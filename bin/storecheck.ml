(* The `make store-check` gate (wired into `make check`; docs/STORAGE.md).

   Three sections, all on the Real backend:

   - throughput: a descending-key insert/delete-min workload with the
     spill tier enabled must hold >= 90% of the same queue's in-RAM
     throughput, best of three paired reps (all three ratios and their
     median are recorded too).  Descending keys are the tier's design
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
     nothing lost or duplicated.

   - idempotence: a second recovery of the drained root must find
     nothing (the drain's R records were checkpointed durably).

   Results land in BENCH_storecheck.json (`bench store` owns
   BENCH_store.json with the latency/recovery-scaling tables), also when a
   section fails: a failed check raises [Check_failed], its section's
   record carries the message, the file is written, and the process
   exits 1 only after the temporary store root is removed. *)

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
  let ratio = ref 0.0 and ram_ops = ref 0.0 and stored_ops = ref 0.0 in
  for rep = 0 to reps - 1 do
    let config = { config with T.seed = config.T.seed + (1009 * rep) } in
    let ops spec =
      (T.run config spec).T.throughput_per_thread *. float_of_int threads
    in
    let a = ops ram in
    let b = ops (stored (Filename.concat root (Printf.sprintf "rep%d" rep))) in
    Printf.printf
      "store-check rep %d: %.0f ops/s spilling vs %.0f in-RAM (ratio %.3f)\n%!"
      rep b a (b /. a);
    ratios.(rep) <- b /. a;
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
        ("ratio_median", Report.Float median);
        ("floor", Report.Float 0.90);
        ("pass", Report.Bool pass);
      ] )

let recovery_section ~root =
  let alive _ = true in
  let spill = Spill.create ~threshold:0 ~num_threads:2 ~root () in
  let mk_block pairs =
    Spill.Block.of_sorted_array ~filter:Bloom.empty
      (Array.map (fun (k, v) -> Spill.Item.make k v) pairs)
  in
  let expected = Hashtbl.create 64 in
  let planted = ref 0 in
  for tid = 0 to 1 do
    for b = 0 to 3 do
      let pairs =
        Array.init 25 (fun i ->
            let v = (tid * 1000) + (b * 100) + i in
            let k = 7919 * ((v * 31) mod 997) in
            Hashtbl.replace expected v k;
            incr planted;
            (k, v))
      in
      Array.sort (fun (a, _) (b, _) -> compare b a) pairs;
      (* Drop the cold twin: durable object + S record, never linked —
         the mid-spill-kill row of the failure matrix. *)
      ignore (Spill.maybe_spill spill ~alive ~tid (mk_block pairs))
    done
  done;
  Spill.close spill;
  let spill2 = Spill.create ~threshold:0 ~num_threads:2 ~root () in
  let q = K.create_with ~k:256 ~num_threads:1 () in
  let h = K.register q 0 in
  let r = Spill.recover spill2 ~link:(fun b -> K.adopt_block h b) in
  if r.Audit.skipped_lines <> 0 then
    fail "%d torn journal lines in a clean shutdown" r.Audit.skipped_lines;
  if r.Audit.quarantined > 0 || r.Audit.lost > 0 then
    fail "%d quarantined + %d lost objects in a clean store" r.Audit.quarantined
      r.Audit.lost;
  (match Oracle.store_conservation r with
  | [] -> ()
  | v :: _ -> fail "audit books do not balance: %s" v);
  if r.Audit.recovered_items <> !planted then
    fail "recovered %d items, planted %d" r.Audit.recovered_items !planted;
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
  let spill3 = Spill.create ~threshold:0 ~num_threads:2 ~root () in
  let q3 = K.create_with ~k:256 ~num_threads:1 () in
  let h3 = K.register q3 0 in
  let r2 = Spill.recover spill3 ~link:(fun b -> K.adopt_block h3 b) in
  if r2.Audit.recovered_items <> 0 then
    fail "drained root recovered %d items on the second pass"
      r2.Audit.recovered_items;
  Spill.close spill3;
  Printf.printf
    "store-check recovery: %d items across %d blocks round-tripped \
     byte-identically; second recovery empty\n%!"
    !planted r.Audit.recovered;
  ( true,
    Report.Obj
      [
        ("planted_items", Report.Int !planted);
        ("recovered_blocks", Report.Int r.Audit.recovered);
        ("recovered_items", Report.Int r.Audit.recovered_items);
        ("drained", Report.Int !drained);
        ("second_recovery_items", Report.Int r2.Audit.recovered_items);
      ] )

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
        let path = "BENCH_storecheck.json" in
        Report.write_json ~path
          (Report.Obj
             [
               ("benchmark", Report.String "store-check");
               ("metric", Report.String "ops_per_sec ratio / recovery counts");
               ("throughput", throughput);
               ("recovery", recovery);
             ]);
        Printf.printf "wrote %s\n%!" path;
        thr_pass && rec_pass)
  in
  if pass then print_endline "store-check OK" else exit 1
