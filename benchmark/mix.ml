(** The two closed-loop 50/50 insert/delete-min workloads: [uniform-mix]
    (the paper's Fig. 3 mix) and [spill-descending] (the store tier's
    design point).  A trial builds a fresh queue, prefills it, then runs a
    warm-up window and [windows] timed windows back to back on {!threads}
    threads; every call in a timed window is timed into the thread's
    histograms.  After the last window the queue is drained, and the
    drain must return exactly what the trial put in and did not take
    out. *)

open Common
module Workload = Klsm_harness.Workload

type shape = {
  name : string;
  k : int;
  prefill : int;
  keys : Workload.t;
  store : bool;  (** spill to a store rooted in the scratch directory *)
  warmup : float;  (** seconds *)
  window : float;  (** seconds, per timed window *)
  windows : int;
}

let uniform =
  {
    name = "uniform-mix";
    k = 256;
    prefill = 100_000;
    keys = Workload.Uniform (1 lsl 28);
    store = false;
    warmup = 0.5;
    window = 0.5;
    windows = 2;
  }

let spill =
  {
    name = "spill-descending";
    k = 4096;
    prefill = 50_000;
    keys = Workload.Descending (1 lsl 30);
    store = true;
    warmup = 0.5;
    window = 1.0;
    windows = 2;
  }

(** The spill threshold of [spill-descending]: with k = 4096 the blocks a
    thread publishes weigh 32-64 KiB, so exactly those go to disk. *)
let spill_bytes = 1 lsl 15

(** A delete-min returning nothing while at least this many items are
    queued counts as a failed operation. *)
let fail_floor = 10_000

type queue = {
  inst : R.instance;
  store_stats : unit -> Obs.snapshot;  (** the spill tier's counters *)
  close : unit -> unit;
}

let make_queue shape ~seed ~dir =
  if not shape.store then
    {
      inst = R.make ~seed ~num_threads:threads (R.Klsm shape.k);
      store_stats = (fun () -> Obs.empty_snapshot ~threads);
      close = ignore;
    }
  else begin
    mkdir_p dir;
    (* The tier's health counters (store.io_error, store.lost) are an
       oracle, so its sheet is enabled whether the trial is traced or
       not. *)
    let was = Obs.enabled () in
    Obs.set_enabled true;
    let sp = R.Spill.create ~threshold:spill_bytes ~num_threads:threads ~root:dir () in
    Obs.set_enabled was;
    let q =
      R.Klsm.create_with ~seed ~k:shape.k
        ~spill_policy:(fun ~alive ~tid b -> R.Spill.policy sp ~alive ~tid b)
        ~num_threads:threads ()
    in
    let register tid =
      let h = R.Klsm.register q tid in
      {
        R.insert = R.Klsm.insert h;
        insert_batch = R.Klsm.insert_batch h;
        try_delete_min = (fun () -> R.Klsm.try_delete_min h);
        try_delete_min_batch = R.Klsm.try_delete_min_batch h;
      }
    in
    {
      inst =
        {
          R.name = shape.name;
          register;
          approximate_size = (fun () -> R.Klsm.approximate_size q);
          stats = (fun () -> R.Klsm.stats q);
        };
      store_stats = (fun () -> R.Spill.stats sp);
      close =
        (fun () ->
          R.Spill.close sp;
          rm_rf dir);
    }
  end

(** An untraced trial builds its queue this many times, each on a fresh
    queue (and store) after a compaction, and records each set-up's CPU
    time; the last queue runs the trial. *)
let setup_reps = 3

(** Set-up, as a user pays it: queue creation and the prefill, which one
    thread performs (only the per-thread component, < k items, would
    differ had both threads shared it).  One key source per thread for the
    whole trial, so descending keys keep descending from the prefill into
    the windows. *)
let build shape p ~seed ~dir ~traced =
  compact ();
  let c0 = cpu_time () in
  Obs.set_enabled traced;
  let q = make_queue shape ~seed ~dir in
  Obs.set_enabled false;
  let handles = Array.init threads q.inst.R.register in
  let gens = key_sources shape.keys ~seed ~threads in
  let prefill_sum = ref 0 in
  for _ = 1 to sized p shape.prefill do
    let k = gens.(0) () in
    handles.(0).R.insert k 0;
    prefill_sum := !prefill_sum + k
  done;
  (q, handles, gens, !prefill_sum, cpu_time () -. c0)

(** One trial; returns the seconds it measured. *)
let trial shape p acc ~index ~traced =
  let seed = p.seed + (1_000_003 * index) in
  let dir r = Filename.concat p.scratch (Printf.sprintf "%s-%d-%d" shape.name index r) in
  reset tstates;
  let rec setups r =
    let ((q, _, _, _, setup) as built) = build shape p ~seed ~dir:(dir r) ~traced in
    if not traced then sample acc ~traced "setup_s" setup;
    if traced || r = setup_reps then built
    else begin
      q.close ();
      setups (r + 1)
    end
  in
  let q, handles, gens, prefill_sum, _ = setups 1 in
  let coins = Array.init threads (fun tid -> Xoshiro.create ~seed:(seed + 13 + (104729 * tid))) in
  let prefill = sized p shape.prefill in
  let before = (q.inst.R.stats (), q.store_stats ()) in
  compact ();
  let nwin = 1 + shape.windows in
  let arrive = Array.init nwin (fun _ -> Atomic.make 0) in
  let stop = Array.init nwin (fun _ -> Atomic.make false) in
  let abort = Atomic.make false in
  let elapsed = Array.make nwin 0. and cpu = Array.make nwin 0. in
  let ops = Array.make_matrix nwin threads 0 in
  let words = ref 0. and majors = ref 0 in
  let queued () = Array.fold_left (fun a s -> a + s.inserts - s.deletes) prefill tstates in
  let body tid =
    let h = handles.(tid) and s = tstates.(tid) in
    let next = gens.(tid) and coin = coins.(tid) in
    for w = 0 to nwin - 1 do
      enter ~abort arrive.(w);
      let timed = w > 0 in
      let len = duration p (if timed then shape.window else shape.warmup) in
      let len_ns = int_of_float (1e9 *. len) in
      let t_start = Pb.now_ns () and c_start = if tid = 0 then cpu_time () else 0. in
      if tid = 0 && w = 1 then begin
        words := minor_words ();
        majors := major_collections ()
      end;
      let n = ref 0 in
      while not (Atomic.get stop.(w)) do
        if Xoshiro.bool coin then begin
          let k = next () in
          let t0 = Pb.now_ns () in
          h.R.insert k 0;
          let t1 = Pb.now_ns () in
          if timed then Hist.record s.ins (t1 - t0);
          s.inserts <- s.inserts + 1;
          s.key_sum <- s.key_sum + k
        end
        else begin
          let t0 = Pb.now_ns () in
          let r = h.R.try_delete_min () in
          let t1 = Pb.now_ns () in
          if timed then Hist.record s.del (t1 - t0);
          match r with
          | Some (k, _) ->
              s.deletes <- s.deletes + 1;
              s.key_sum <- s.key_sum - k
          | None -> if queued () >= fail_floor then s.fails <- s.fails + 1
        end;
        incr n;
        if tid = 0 && !n land 63 = 0 then begin
          let now = Pb.now_ns () in
          if now - t_start >= len_ns then begin
            elapsed.(w) <- float_of_int (now - t_start) *. 1e-9;
            cpu.(w) <- cpu_time () -. c_start;
            Atomic.set stop.(w) true
          end
        end
      done;
      ops.(w).(tid) <- !n
    done;
    if tid = 0 then begin
      words := minor_words () -. !words;
      majors := major_collections () - !majors
    end
  in
  Pb.parallel_run ~num_threads:threads (fun tid ->
      try body tid
      with e ->
        Atomic.set abort true;
        Array.iter (fun s -> Atomic.set s true) stop;
        raise e);
  let after = (q.inst.R.stats (), q.store_stats ()) in
  (* Conservation: drain through one handle (it spies on the other
     thread's local component) and compare count and key sum. *)
  let drained, drained_sum = drain handles.(0).R.try_delete_min 0 0 in
  let expect_n = queued () in
  let expect_sum = prefill_sum + total tstates (fun s -> s.key_sum) in
  if drained <> expect_n || drained_sum <> expect_sum then
    violation acc "%s trial %d: drained %d items (key sum %d), expected %d (key sum %d)"
      shape.name index drained drained_sum expect_n expect_sum;
  let lost = counter (snd after) "store.lost" and io = counter (snd after) "store.io_error" in
  if lost + io > 0 then
    violation acc "%s trial %d: store.lost = %d, store.io_error = %d" shape.name index lost io;
  q.close ();
  let timed_ops = ref 0 and wall = ref 0. and timed_cpu = ref 0. in
  for w = 1 to nwin - 1 do
    timed_ops := !timed_ops + Array.fold_left ( + ) 0 ops.(w);
    wall := !wall +. elapsed.(w);
    timed_cpu := !timed_cpu +. cpu.(w)
  done;
  let all_ops = Array.fold_left (fun a row -> a + Array.fold_left ( + ) 0 row) 0 ops in
  acc.attempted <- acc.attempted + all_ops;
  acc.failed <- acc.failed + total tstates (fun s -> s.fails) + lost + io;
  sample_rate acc ~traced ~ops:!timed_ops ~cpu:!timed_cpu ~wall:!wall;
  sample_calls acc ~traced;
  if traced then begin
    add_snapshot acc (delta (fst before) (fst after));
    add_snapshot acc (delta (snd before) (snd after));
    add acc "ops" (float_of_int all_ops)
  end
  else begin
    add acc "gc.minor_words" !words;
    add acc "gc.majors" (float_of_int !majors);
    add acc "gc.ops" (float_of_int !timed_ops)
  end;
  Array.fold_left ( +. ) 0. elapsed
