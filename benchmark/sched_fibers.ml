(** [sched-fibers]: the fiber scheduler of lib/sched on
    [klsm-sharded:256:4] (no optional knobs), each root task forking 3
    fibers and spawning 2 children (depth 1), workers pulling 8 tasks per
    queue round trip, admission capacity 64.

    A trial is two phases on {!threads} workers, each on a fresh queue and
    worker pool:
    - A, closed loop: every worker submits 5000 roots as fast as
      admission allows.  Gives [real.ops_per_s] (queue items inserted and
      deleted per second) and the queue-call latencies.
    - B, open loop: each worker draws roots at Poisson times at half of
      {!rate} for {!chunk} seconds.  A root is timed from the moment it
      was due to the end of its body, so a stall of the generator counts
      against every root it delays; this gives [real.sojourn_*].

    The audit of every phase: no task lost, delivered twice, shed or
    dead-lettered, and no fiber lost.  The phases are a functor over the
    backend, so the simulator twin runs the same scheduler code. *)

open Common
module M = Klsm_sched.Metrics

let k = 256
let shards = 4
let roots_per_worker = 5000
let pull_batch = 8
let capacity = 64

(** Open-loop arrival rate, roots per second over all workers: about 12%
    of the roots phase A completes per second on the reference host when
    the hypervisor leaves it both cores, and under 30% when other guests
    take half of them. *)
let rate = 10_000.

(** Seconds of open-loop arrivals per trial. *)
let chunk = 0.5

(** An exponential inter-arrival gap with mean [mean]. *)
let gap rng mean = -.log (1.0 -. Xoshiro.float rng) *. mean

type phase =
  | Closed of int  (** roots per worker, submitted as fast as admitted *)
  | Open of { roots : int; rate : float }
      (** roots per worker, Poisson arrivals at [rate] roots/s in total *)

type outcome = {
  setup : float;  (** CPU seconds: queue, worker pool and sheets *)
  wall : float;  (** first worker start to last worker exit, backend seconds *)
  cpu : float;  (** CPU seconds of the process while the workers ran *)
  words : float;  (** minor words allocated while the workers ran *)
  majors : int;  (** major collections while the workers ran *)
}

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Reg = Klsm_harness.Registry.Make (B)
  module CL = Klsm_sched.Closed_loop.Make (B)
  module W = CL.Worker

  let now_ns () = int_of_float (B.time () *. 1e9)

  let cfg ~workers seed =
    {
      CL.default_config with
      num_workers = workers;
      fiber_fanout = 3;
      spawn_fanout = 2;
      spawn_depth = 1;
      capacity;
      seed;
    }

  (* Tasks that never reached a terminal state, delivered twice, or were
     dead-lettered, shed, or lost a fiber: all must be 0. *)
  let audit acc ~name pool (summary : M.summary) =
    let table = Array.length pool.W.tasks in
    let allocated = min (B.get pool.W.next_id) table in
    let lost = ref 0 and double = ref 0 and dead = ref 0 in
    for id = 0 to allocated - 1 do
      match B.get pool.W.tasks.(id) with
      | None -> incr lost
      | Some task ->
          (match W.Task.status task with
          | W.Task.Completed -> ()
          | W.Task.Dead -> incr dead
          | _ -> incr lost);
          if W.Task.claim_count task > 1 then incr double
    done;
    let fiber_lost = summary.M.fibers - summary.M.fibers_completed in
    let bad = !lost + !double + !dead + summary.M.shed + fiber_lost in
    acc.attempted <- acc.attempted + allocated + summary.M.shed;
    acc.failed <- acc.failed + bad;
    if bad > 0 then
      violation acc "%s: lost %d, double %d, dead %d, shed %d, fiber_lost %d" name !lost
        !double !dead summary.M.shed fiber_lost

  (** One phase on [Array.length ts] workers, recording into [ts].
      [on_insert] and [on_delete] see every key the queue takes in, before
      it does, and gives out: the twin's rank oracle. *)
  let run ?(on_insert = ignore) ?(on_delete = ignore) acc ~name ~ts ~seed ~traced phase =
    let workers = Array.length ts in
    let cfg = cfg ~workers seed in
    let roots = match phase with Closed n -> n | Open o -> o.roots in
    let mean_gap_ns =
      match phase with Closed _ -> 0. | Open o -> float_of_int workers /. o.rate *. 1e9
    in
    reset ts;
    compact ();
    let c0 = cpu_time () in
    Obs.set_enabled traced;
    let inst = Reg.make ~seed ~num_threads:workers (Reg.klsm_sharded k shards) in
    let sheet = Obs.create_sheet ~now:B.time ~num_threads:workers () in
    Obs.set_enabled false;
    let pool =
      W.create_pool ~max_tasks:(workers * roots * CL.tasks_per_root cfg) ~num_workers:workers ()
    in
    let metrics = M.create ~num_workers:workers in
    let setup = cpu_time () -. c0 in
    compact ();
    let arrive = B.make 0 and abort = B.make false in
    let t_start = ref 0 and t_end = Array.make workers 0 in
    let body tid =
      let h = inst.Reg.register tid and s = ts.(tid) in
      let insert_batch pairs =
        Array.iter (fun (key, _) -> on_insert key) pairs;
        let t0 = now_ns () in
        h.Reg.insert_batch pairs;
        Hist.record s.ins (now_ns () - t0);
        s.inserts <- s.inserts + Array.length pairs
      in
      let pop_batch n =
        let t0 = now_ns () in
        let r = h.Reg.try_delete_min_batch n in
        Hist.record s.del (now_ns () - t0);
        List.iter (fun (key, _) -> on_delete key) r;
        s.deletes <- s.deletes + List.length r;
        r
      in
      let pop () = match pop_batch 1 with [ kv ] -> Some kv | _ -> None in
      let sub =
        W.Submitter.create
          ~cfg:{ W.Submitter.batch = cfg.CL.batch; urgency_margin = cfg.CL.urgency_margin; capacity }
          ~inflight:pool.W.inflight ~enqueue_batch:insert_batch ()
      in
      let obs = Obs.handle sheet ~tid in
      let ctx =
        W.make_ctx ~obs ~steal_seed:(seed + (6271 * tid)) ~batch:pull_batch ~pop_batch ~pool ~tid
          ~sub ~pop ~metrics:metrics.(tid) ()
      in
      let rng = Xoshiro.create ~seed:(seed + (7919 * tid)) in
      let next_priority = Workload.generator cfg.CL.priorities rng in
      let service_rng = Xoshiro.split rng in
      let arrival_rng = Xoshiro.split rng in
      let remaining = ref roots in
      ignore (B.fetch_and_add arrive 1);
      while B.get arrive < workers && not (B.get abort) do
        B.cpu_relax ()
      done;
      let start = now_ns () in
      if tid = 0 then t_start := start;
      let next_due = ref (float_of_int start) in
      let root () =
        decr remaining;
        let priority = next_priority () in
        let ticks = CL.service_ticks cfg.CL.service service_rng in
        (priority, CL.make_body cfg ~depth:cfg.CL.spawn_depth ~priority ~ticks)
      in
      let arrivals () =
        if !remaining <= 0 then `Done
        else
          match phase with
          | Closed _ -> `Submit (root ())
          | Open _ ->
              let now = now_ns () in
              let due = !next_due in
              if float_of_int now < due then `Wait
              else begin
                next_due := due +. gap arrival_rng mean_gap_ns;
                s.roots <- s.roots + 1;
                if float_of_int now -. due > mean_gap_ns then s.late <- s.late + 1;
                let priority, W.Task.Body inner = root () in
                let due = int_of_float due in
                `Submit
                  ( priority,
                    W.Task.Body
                      (fun api ->
                        inner api;
                        (* The body may finish on another worker than the
                           one that started it: record on the current one. *)
                        Hist.record ts.(B.self ()).req (now_ns () - due)) )
              end
      in
      (* Decorrelated idle backoff on the real backend; the simulator keeps
         the deterministic path, as Closed_loop does. *)
      let jitter =
        if B.name = "sim" then None else Some (Xoshiro.create ~seed:(seed + (104729 * tid)))
      in
      W.run ?jitter ctx ~arrivals;
      t_end.(tid) <- now_ns ();
      let w = metrics.(tid) in
      w.M.flushes <- w.M.flushes + sub.W.Submitter.flushes;
      w.M.urgent_flushes <- w.M.urgent_flushes + sub.W.Submitter.urgent_flushes;
      Obs.add obs W.c_flush sub.W.Submitter.flushes;
      Obs.add obs W.c_urgent_flush sub.W.Submitter.urgent_flushes
    in
    let words = minor_words () and majors = major_collections () and cpu = cpu_time () in
    B.parallel_run ~num_threads:workers (fun tid ->
        try body tid
        with e ->
          B.set abort true;
          raise e);
    let cpu = cpu_time () -. cpu in
    let words = minor_words () -. words and majors = major_collections () - majors in
    let wall = float_of_int (Array.fold_left max 0 t_end - !t_start) *. 1e-9 in
    let summary = M.summarize metrics in
    audit acc ~name pool summary;
    if traced then begin
      add_snapshot acc (inst.Reg.stats ());
      add_snapshot acc (Obs.snapshot sheet);
      add acc "tasks" (float_of_int summary.M.executed);
      add acc "ops" (float_of_int (total ts (fun s -> s.inserts + s.deletes)))
    end;
    { setup; wall; cpu; words; majors }
end

module Real = Make (Pb)

let trial p acc ~index ~traced =
  let seed = p.seed + (1_000_003 * index) in
  (* A: closed loop. *)
  let a =
    Real.run acc ~name:"sched-fibers A" ~ts:tstates ~seed ~traced
      (Closed (sized p roots_per_worker))
  in
  let ops = total tstates (fun s -> s.inserts + s.deletes) in
  if not traced then begin
    sample acc ~traced "setup_s" a.setup;
    add acc "gc.minor_words" a.words;
    add acc "gc.majors" (float_of_int a.majors);
    add acc "gc.ops" (float_of_int ops)
  end;
  sample_rate acc ~traced ~ops ~cpu:a.cpu ~wall:a.wall;
  sample_calls acc ~traced;
  (* B: open loop at a fixed rate. *)
  let roots = max 1 (int_of_float (rate /. float_of_int threads *. duration p chunk)) in
  let b = Real.run acc ~name:"sched-fibers B" ~ts:tstates ~seed:(seed + 1) ~traced (Open { roots; rate }) in
  sample_sojourn acc ~traced;
  add acc "sched.roots" (float_of_int (total tstates (fun s -> s.roots)));
  add acc "sched.late" (float_of_int (total tstates (fun s -> s.late)));
  a.wall +. b.wall
