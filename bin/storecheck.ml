(* The `make store-check` gate (wired into `make check`; docs/STORAGE.md).

   Two gated sections, then two report-only tables, all on the Real
   backend:

   - throughput: a descending-key insert/delete-min workload with the
     spill tier enabled must hold >= 90% of the same queue's in-RAM
     throughput, best of three paired reps (all three ratios and their
     median are recorded too, and each rep's line and record carry both
     sides' ops/s and the spilling side's spill and rehydrate counts).
     Descending keys are the tier's design
     point: old merged blocks hold the {e largest} keys, so
     the spilled backlog sits far behind the delete-min frontier and stays
     cold (ascending or uniform keys instead put the next minima inside
     the big old blocks, so every spill is promptly rehydrated — a regime
     the Sim/chaos suites cover for correctness, but whose cost is the
     disk's, not the queue's).  The thread count is the host's recommended domain
     count (capped at 8): on an oversubscribed host a wall-clock
     comparison measures scheduler interference around the (milliseconds
     long) fetches, not the tier — the same reason perf-check refuses to
     gate oversubscribed wall clock.  The gate also fails if no block
     spilled — a vacuously fast run proves nothing.

   - recovery: spill hand-built blocks into a fresh root, drop the cold
     twins (the exact durable-but-unlinked state a mid-spill kill
     leaves), reopen, Spill.recover into a 1-thread queue, drain, and
     check every (key, value) pair round-trips byte-identically with
     nothing lost or duplicated.  A second recovery of the drained root
     must find nothing (the drain's R records were checkpointed
     durably).

   - threshold sweep (report only): the descending workload at T = 1 on
     klsm:4096 with spill thresholds from 16 KiB to off, with each run's
     spills, cold fetches, memo hits and mean spill/rehydrate latency.

   - recovery scaling (report only): the recovery section's planting and
     oracles at 1,000, 10,000 and 50,000 items, timing Spill.recover.
     Its oracles still gate.

   Results land in BENCH_storecheck.json, also when a section fails: a
   failed check raises [Check_failed], its section's record carries the
   message, the file is written, and the process exits 1 only after the
   temporary store root is removed. *)

module Real = Klsm_backend.Real
module Spill = Klsm_store.Spill.Make (Real)
module K = Klsm_core.Klsm.Make (Real)
module Report = Klsm_harness.Report
module Oracle = Klsm_harness.Oracle
module Audit = Klsm_store.Audit
module Obs = Klsm_obs.Obs
module Bloom = Klsm_primitives.Bloom

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A failed check.  Raised rather than [exit]: [exit] inside the top
   level's [Fun.protect] would skip its [~finally] and leave the temporary
   store root behind. *)
exception Check_failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Check_failed m)) fmt

let counter_total snapshot name =
  match List.assoc_opt name snapshot.Obs.counters with
  | Some per_thread -> Array.fold_left ( + ) 0 per_thread
  | None -> 0

(* The throughput section runs at the tier's design point: spill only
   the {e large} blocks.  Blocks enter the policy on publish into the
   shared component, whose size the relaxation parameter caps at ~k
   items — with k=4096 the dist-spill publishes weigh 32-64 KiB and a
   32 KiB threshold sends exactly those to disk while every smaller
   publish stays resident.  (At k=256 all publishes are ~4 KiB, so any
   spilling threshold would push {e every} block through disk — a
   memory-pressure regime, not the hot path this gate protects.) *)
let gate_k = 4096
let spill_bytes = 1 lsl 15

let throughput_section ~root =
  let module T = Klsm_harness.Throughput.Make (Real) in
  let module R = Klsm_harness.Registry.Make (Real) in
  let threads = max 1 (min 8 (Domain.recommended_domain_count ())) in
  let parse s =
    match R.parse_spec s with Ok s -> s | Error m -> failwith m
  in
  let ram = parse (Printf.sprintf "klsm:%d" gate_k) in
  let stored sub =
    parse (Printf.sprintf "klsm:%d+spill:%d+store:%s" gate_k spill_bytes sub)
  in
  let config =
    {
      T.num_threads = threads;
      prefill = 50_000;
      ops_per_thread = 200_000 / threads;
      seed = 42;
      workload = Klsm_harness.Workload.Descending (1 lsl 30);
    }
  in
  (* One instrumented run first: prove the policy actually fired. *)
  let probe = T.run config (stored (Filename.concat root "probe")) in
  let spills = counter_total probe.T.stats "store.spill" in
  let rehydrates = counter_total probe.T.stats "store.rehydrate" in
  if spills = 0 then
    fail
      "no block spilled at threshold %d — the throughput comparison would \
       be vacuous"
      spill_bytes;
  (* Paired reps: each rep measures in-RAM and spilling back to back with
     the same seed, and the gate takes the best of the per-rep ratios.
     Two independently-run best-of-3s would compare numbers taken under
     different process states (major-heap shape, page cache) — on a small
     CI box that drift dwarfs the effect being gated.  Each spilling rep
     also gets a fresh store root: reps generate distinct key streams, so
     a shared root would accumulate objects and journal records across
     reps and bill later reps for earlier reps' state. *)
  let reps = 3 in
  let ratios = Array.make reps 0.0 in
  let rep_records = ref [] in
  let ratio = ref 0.0 and ram_ops = ref 0.0 and stored_ops = ref 0.0 in
  for rep = 0 to reps - 1 do
    let config = { config with T.seed = config.T.seed + (1009 * rep) } in
    let ops (r : T.result) = r.T.throughput_per_thread *. float_of_int threads in
    let a = ops (T.run config ram) in
    let s =
      T.run config (stored (Filename.concat root (Printf.sprintf "rep%d" rep)))
    in
    let b = ops s in
    let rep_spills = counter_total s.T.stats "store.spill" in
    let rep_rehydrates = counter_total s.T.stats "store.rehydrate" in
    Printf.printf
      "store-check rep %d: %.0f ops/s spilling (%d spills, %d rehydrates) vs \
       %.0f in-RAM (ratio %.3f)\n%!"
      rep b rep_spills rep_rehydrates a (b /. a);
    ratios.(rep) <- b /. a;
    rep_records :=
      Report.Obj
        [
          ("ops_per_sec", Report.Float b);
          ("ram_ops_per_sec", Report.Float a);
          ("spills", Report.Int rep_spills);
          ("rehydrates", Report.Int rep_rehydrates);
          ("ratio", Report.Float (b /. a));
        ]
      :: !rep_records;
    if b /. a > !ratio then begin
      ratio := b /. a;
      ram_ops := a;
      stored_ops := b
    end
  done;
  let ratio = !ratio and ram_ops = !ram_ops and stored_ops = !stored_ops in
  let median = Klsm_primitives.Stats.median ratios in
  Printf.printf
    "store-check real: %.0f ops/s spilling (%d spills, %d rehydrates in \
     probe) vs %.0f ops/s in-RAM — best ratio %.3f, median %.3f (floor 0.90 \
     on the best, %d threads)\n%!"
    stored_ops spills rehydrates ram_ops ratio median threads;
  let pass = ratio >= 0.90 in
  if not pass then
    Printf.eprintf
      "store-check FAILED: spill-enabled throughput %.0f ops/s fell more \
       than 10%% below in-RAM %.0f ops/s\n%!"
      stored_ops ram_ops;
  ( pass,
    Report.Obj
      [
        ("backend", Report.String "real");
        ( "impl",
          Report.String (Printf.sprintf "klsm:%d+spill:%d" gate_k spill_bytes) );
        ("threads", Report.Int threads);
        ("prefill", Report.Int config.T.prefill);
        ("ops_per_thread", Report.Int config.T.ops_per_thread);
        ("spill_bytes", Report.Int spill_bytes);
        ("spills", Report.Int spills);
        ("rehydrates", Report.Int rehydrates);
        ("ops_per_sec_best", Report.Float stored_ops);
        ("ram_ops_per_sec_best", Report.Float ram_ops);
        ("ratio", Report.Float ratio);
        ( "ratios",
          Report.List (Array.to_list (Array.map (fun r -> Report.Float r) ratios)) );
        ("reps", Report.List (List.rev !rep_records));
        ("ratio_median", Report.Float median);
        ("floor", Report.Float 0.90);
        ("pass", Report.Bool pass);
      ] )

let planted_key v = 7919 * ((v * 31) mod 997)

type recovery = {
  planted : int;
  audit : Audit.t;  (** the first recovery's *)
  seconds : float;  (** [Spill.recover]'s wall time, first recovery *)
  drained : int;
  second_items : int;  (** items the second recovery found *)
}

(* Spill [blocks] (each an owning thread and its payloads [v], planted as
   [(planted_key v, v)]) into a fresh [root] and drop their cold twins
   (durable object + S record, never linked — the mid-spill-kill row of
   the failure matrix); reopen, time [Spill.recover] into a 1-thread
   queue, drain it against the planted pairs, and recover the drained
   root a second time. *)
let plant_and_recover ~root ~threads blocks =
  let alive _ = true in
  let spill = Spill.create ~threshold:0 ~num_threads:threads ~root () in
  let expected = Hashtbl.create 64 in
  List.iter
    (fun (tid, payloads) ->
      let pairs =
        Array.map
          (fun v ->
            let k = planted_key v in
            Hashtbl.replace expected v k;
            (k, v))
          payloads
      in
      Array.sort (fun (a, _) (b, _) -> compare b a) pairs;
      let blk =
        Spill.Block.of_sorted_array ~filter:Bloom.empty
          (Array.map (fun (k, v) -> Spill.Item.make k v) pairs)
      in
      ignore (Spill.maybe_spill spill ~alive ~tid blk))
    blocks;
  let planted = Hashtbl.length expected in
  Spill.close spill;
  let spill2 = Spill.create ~threshold:0 ~num_threads:threads ~root () in
  let q = K.create_with ~k:256 ~num_threads:1 () in
  let h = K.register q 0 in
  let t0 = Real.time () in
  let r = Spill.recover spill2 ~link:(fun b -> K.adopt_block h b) in
  let seconds = Real.time () -. t0 in
  if r.Audit.skipped_lines <> 0 then
    fail "%d torn journal lines in a clean shutdown" r.Audit.skipped_lines;
  if r.Audit.quarantined > 0 || r.Audit.lost > 0 then
    fail "%d quarantined + %d lost objects in a clean store" r.Audit.quarantined
      r.Audit.lost;
  (match Oracle.store_conservation r with
  | [] -> ()
  | v :: _ -> fail "audit books do not balance: %s" v);
  if r.Audit.recovered_items <> planted then
    fail "recovered %d items, planted %d" r.Audit.recovered_items planted;
  let drained = ref 0 in
  let rec loop () =
    match K.try_delete_min h with
    | Some (dk, v) -> (
        incr drained;
        match Hashtbl.find_opt expected v with
        | None -> fail "payload %d recovered but never planted" v
        | Some k ->
            if k <> dk then
              fail "payload %d came back with key %d, planted %d" v dk k;
            Hashtbl.remove expected v;
            loop ())
    | None -> ()
  in
  loop ();
  if Hashtbl.length expected <> 0 then
    fail "%d planted items lost in recovery" (Hashtbl.length expected);
  Spill.close spill2;
  (* Idempotence: the drain's R records are checkpointed; a third open
     finds nothing live. *)
  let spill3 = Spill.create ~threshold:0 ~num_threads:threads ~root () in
  let q3 = K.create_with ~k:256 ~num_threads:1 () in
  let h3 = K.register q3 0 in
  let r2 = Spill.recover spill3 ~link:(fun b -> K.adopt_block h3 b) in
  if r2.Audit.recovered_items <> 0 then
    fail "drained root recovered %d items on the second pass"
      r2.Audit.recovered_items;
  Spill.close spill3;
  {
    planted;
    audit = r;
    seconds;
    drained = !drained;
    second_items = r2.Audit.recovered_items;
  }

(* The gate: 2 threads x 4 blocks x 25 items. *)
let recovery_section ~root =
  let blocks =
    List.concat_map
      (fun tid ->
        List.init 4 (fun b ->
            (tid, Array.init 25 (fun i -> (tid * 1000) + (b * 100) + i))))
      [ 0; 1 ]
  in
  let r = plant_and_recover ~root ~threads:2 blocks in
  Printf.printf
    "store-check recovery: %d items across %d blocks round-tripped \
     byte-identically; second recovery empty\n%!"
    r.planted r.audit.Audit.recovered;
  ( true,
    Report.Obj
      [
        ("planted_items", Report.Int r.planted);
        ("recovered_blocks", Report.Int r.audit.Audit.recovered);
        ("recovered_items", Report.Int r.audit.Audit.recovered_items);
        ("drained", Report.Int r.drained);
        ("second_recovery_items", Report.Int r.second_items);
      ] )

let span_mean_us stats name =
  match List.assoc_opt name stats.Obs.spans with
  | Some (d : Obs.span_data) ->
      let n = Array.fold_left ( + ) 0 d.Obs.count in
      if n = 0 then Float.nan
      else Array.fold_left ( +. ) 0.0 d.Obs.ns /. float_of_int n /. 1e3
  | None -> Float.nan

(* A report-only table: each row is its printed cells and its record. *)
let report title header rows =
  Report.section title;
  Report.table ~header (List.map fst rows);
  (true, Report.List (List.map snd rows))

(* From "spill every publish" up to "spill nothing" (the in-RAM
   baseline), one T = 1 run each.  The memo hit rate counts selections
   answered by an already-rehydrated block: rehydrate_memo / (rehydrate
   + rehydrate_memo). *)
let sweep_section ~root =
  let module T = Klsm_harness.Throughput.Make (Real) in
  let module R = Klsm_harness.Registry.Make (Real) in
  let config =
    {
      T.num_threads = 1;
      prefill = 50_000;
      ops_per_thread = 200_000;
      seed = 42;
      workload = Klsm_harness.Workload.Descending (1 lsl 30);
    }
  in
  let row i threshold =
    let spec_s =
      match threshold with
      | Some b ->
          Printf.sprintf "klsm:%d+spill:%d+store:%s" gate_k b
            (Filename.concat root (Printf.sprintf "sweep%d" i))
      | None -> Printf.sprintf "klsm:%d" gate_k
    in
    let spec = match R.parse_spec spec_s with Ok s -> s | Error m -> failwith m in
    let r = T.run config spec in
    let spills = counter_total r.T.stats "store.spill" in
    let cold = counter_total r.T.stats "store.rehydrate" in
    let memo = counter_total r.T.stats "store.rehydrate_memo" in
    let hit_rate =
      if cold + memo = 0 then Float.nan
      else float_of_int memo /. float_of_int (cold + memo)
    in
    let spill_us = span_mean_us r.T.stats "store.spill" in
    let rehydrate_us = span_mean_us r.T.stats "store.rehydrate" in
    let cell fmt v = if Float.is_nan v then "-" else Printf.sprintf fmt v in
    let num v = if Float.is_nan v then Report.Null else Report.Float v in
    ( [
        (match threshold with
        | Some b -> Printf.sprintf "%dB" b
        | None -> "off (in-RAM)");
        Report.human_float r.T.throughput_per_thread;
        string_of_int spills;
        string_of_int cold;
        string_of_int memo;
        cell "%.2f" hit_rate;
        cell "%.0f" spill_us;
        cell "%.0f" rehydrate_us;
      ],
      Report.Obj
        [
          ( "threshold_bytes",
            match threshold with Some b -> Report.Int b | None -> Report.Null );
          ("ops_per_sec", Report.Float r.T.throughput_per_thread);
          ("spills", Report.Int spills);
          ("cold_fetches", Report.Int cold);
          ("memo_hits", Report.Int memo);
          ("memo_hit_rate", num hit_rate);
          ("spill_mean_us", num spill_us);
          ("rehydrate_mean_us", num rehydrate_us);
        ] )
  in
  report
    (Printf.sprintf
       "Store: spill-threshold sweep, klsm:%d, descending 50-50 mix, T=1 \
        (real)"
       gate_k)
    [
      "threshold";
      "ops/s";
      "spills";
      "cold fetches";
      "memo hits";
      "hit rate";
      "spill us";
      "rehydrate us";
    ]
    (List.mapi row [ Some 16384; Some 32768; Some 131072; None ])

(* Recovery time against recovered queue size: the gate's planting and
   oracles on one thread, in blocks of 256 items. *)
let scaling_section ~root =
  let row n =
    let blocks =
      List.init
        ((n + 255) / 256)
        (fun b -> (0, Array.init (min 256 (n - (b * 256))) (fun i -> (b * 256) + i)))
    in
    let r =
      plant_and_recover
        ~root:(Filename.concat root (Printf.sprintf "rec%d" n))
        ~threads:1 blocks
    in
    let blocks = r.audit.Audit.recovered in
    ( [
        string_of_int n;
        string_of_int blocks;
        Printf.sprintf "%.1f" (r.seconds *. 1e3);
        Report.human_float (float_of_int n /. r.seconds);
      ],
      Report.Obj
        [
          ("items", Report.Int n);
          ("blocks", Report.Int blocks);
          ("seconds", Report.Float r.seconds);
        ] )
  in
  report "Store: recovery time vs queue size (real)"
    [ "items"; "blocks"; "recover ms"; "items/s" ]
    (List.map row [ 1_000; 10_000; 50_000 ])

(* Run one section; a failed check becomes the section's record. *)
let section f =
  match f () with
  | result -> result
  | exception Check_failed m ->
      Printf.eprintf "store-check FAILED: %s\n%!" m;
      (false, Report.Obj [ ("error", Report.String m); ("pass", Report.Bool false) ])

let () =
  Obs.set_enabled true;
  let tmp = Filename.temp_dir "klsm-storecheck" "" in
  let pass =
    Fun.protect
      ~finally:(fun () -> rm_rf tmp)
      (fun () ->
        let thr_pass, throughput =
          section (fun () -> throughput_section ~root:(Filename.concat tmp "thr"))
        in
        let rec_pass, recovery =
          section (fun () -> recovery_section ~root:(Filename.concat tmp "rec"))
        in
        let _, sweep =
          section (fun () -> sweep_section ~root:(Filename.concat tmp "sweep"))
        in
        let scaling_pass, scaling =
          section (fun () ->
              scaling_section ~root:(Filename.concat tmp "scaling"))
        in
        let path = "BENCH_storecheck.json" in
        Report.write_json ~path
          (Report.Obj
             [
               ("benchmark", Report.String "store-check");
               ("metric", Report.String "ops_per_sec ratio / recovery counts");
               ("throughput", throughput);
               ("recovery", recovery);
               ("sweep", sweep);
               ("recovery_scaling", scaling);
             ]);
        Printf.printf "wrote %s\n%!" path;
        thr_pass && rec_pass && scaling_pass)
  in
  if pass then print_endline "store-check OK" else exit 1
