(* The `make stats-check` gate: run the internal-counter workload, write
   BENCH_stats.json, and check its schema against docs/METRICS.md.

   Usage: statscheck OUT_JSON METRICS_MD

   The workload is the observability companion of Figure 3 on the
   simulator (seed 0xC0FFEE, the default cost model; DESIGN.md §1.4): the
   50-50 mix at T = 8 over every Registry queue, plus an imbalanced
   producer/consumer fiber run whose consumers must steal.  Each queue's
   lib/obs counters print as a per-thread table and go into OUT_JSON.
   The run is deterministic: two runs write byte-identical files.

   OUT_JSON is then read back and validated:
   - the file is well-formed JSON of the shape Obs_report.to_json emits:
     top-level {benchmark, backend, threads, queues[]}, each queue
     {impl, threads, counters[], spans[]}, each counter {name, total,
     per_thread[]} with total = sum(per_thread) and |per_thread| = threads,
     each span {name, count, total_ns, per_thread_count, per_thread_ns};
   - at least one queue emitted at least one counter (an all-empty file
     means observability never got enabled — a plumbing regression);
   - every counter/span name appearing in the file is documented in
     docs/METRICS.md (the reference must never lag the code).

   The file is read with the benchmark's JSON reader
   (benchmark/json_in.ml), which parses into {!Klsm_harness.Report.json},
   the type every BENCH_*.json writer uses; every number arrives as a
   [Float]. *)

module Sim = Klsm_backend.Sim
module Report = Klsm_harness.Report
module R = Klsm_harness.Registry.Make (Sim)
module T = Klsm_harness.Throughput.Make (Sim)
module Obs = Klsm_obs.Obs
module Obs_report = Klsm_harness.Obs_report
module W = Klsm_sched.Worker.Make (Sim)
module M = Klsm_sched.Metrics

(* ---------------- workload ---------------- *)

(* Imbalanced producer/consumer fiber scenario (lib/sched; DESIGN.md
   section 16): worker 0 is the sole producer of fibered roots, so the
   consumers' deques start empty and the only fibers they ever run are
   pulled through the shared queue or STOLEN from a peer's deque.  The
   whole point of the Chase–Lev layer is that `steal.success` comes out
   positive here — asserted below, and written into the stats file as a
   validated queue entry so the record gates it too. *)
let sched_fibers_imbalanced ~workers ~roots ~fanout ~seed =
  Sim.configure ~seed ~policy:Sim.Fair ();
  let sheet = Obs.create_sheet ~now:Sim.time ~num_threads:workers () in
  let instance = R.make ~seed ~num_threads:workers (R.Klsm 8) in
  let pool = W.create_pool ~max_tasks:roots ~num_workers:workers () in
  let metrics = M.create ~num_workers:workers in
  Sim.parallel_run ~num_threads:workers (fun tid ->
      let h = instance.R.register tid in
      let sub =
        W.Submitter.create
          ~cfg:{ W.Submitter.batch = 1; urgency_margin = 1; capacity = max_int }
          ~inflight:pool.W.inflight ~enqueue_batch:h.R.insert_batch ()
      in
      let ctx =
        W.make_ctx ~obs:(Obs.handle sheet ~tid) ~pool ~tid ~sub
          ~pop:h.R.try_delete_min ~metrics:metrics.(tid) ()
      in
      let remaining = ref (if tid = 0 then roots else 0) in
      let arrivals () =
        if !remaining = 0 then `Done
        else begin
          decr remaining;
          let priority = !remaining in
          `Submit
            ( priority,
              W.Task.Body
                (fun api ->
                  (* A wide fiber tree per root: odd children yield once so
                     parked fibers cross the requeue/steal surface. *)
                  let kids =
                    List.init fanout (fun i ->
                        api.W.Task.fork (fun () ->
                            if i land 1 = 1 then api.W.Task.yield ();
                            Sim.tick 64;
                            i))
                  in
                  List.iteri
                    (fun i k ->
                      if api.W.Task.await k <> i then
                        failwith "statscheck: fiber joined to the wrong value")
                    kids) )
        end
      in
      W.run ctx ~arrivals);
  let summary = M.summarize metrics in
  if W.completed_count pool <> roots then
    failwith "statscheck: imbalanced fiber run lost tasks";
  if summary.M.fibers <> summary.M.fibers_completed then
    failwith "statscheck: imbalanced fiber run lost fibers";
  if summary.M.steals = 0 then
    failwith "statscheck: imbalanced fiber run recorded no successful steals";
  (summary, Obs.snapshot sheet)

let with_impl name = function
  | Report.Obj fields -> Report.Obj (("impl", Report.String name) :: fields)
  | other -> other

(* The 50-50 mix over every queue the registry knows (the Figure 3 line-up
   plus the Figure 4 Wimmer variants and one striped queue), then the
   fiber run; prints the counter tables and writes [path]. *)
let write_stats path =
  Sim.configure ~seed:0xC0FFEE ~cost:Klsm_backend.Cost_model.default ();
  Obs.set_enabled true;
  let t = 8 in
  let config =
    { T.default_config with num_threads = t; prefill = 10_000; ops_per_thread = 4_000 }
  in
  let specs =
    R.figure3_specs
    @ List.filter (fun s -> not (List.mem s R.figure3_specs)) R.figure4_specs
    @ [ R.klsm_sharded 256 4 ]
  in
  let measured = List.map (fun spec -> (spec, T.run config spec)) specs in
  let fiber_summary, fiber_stats =
    sched_fibers_imbalanced ~workers:4 ~roots:24 ~fanout:8 ~seed:11
  in
  Report.section
    (Printf.sprintf
       "Internal counters (lib/obs): 50-50 mix, T=%d, prefill %d (sim); see \
        docs/METRICS.md"
       t config.T.prefill);
  List.iter
    (fun (spec, (r : T.result)) ->
      Obs_report.print_table ~name:(R.spec_name spec) r.T.stats)
    measured;
  Obs_report.print_table ~name:"sched fibers imbalanced (klsm(8), 1 producer)"
    fiber_stats;
  Printf.printf
    "sched fibers imbalanced: %d fibers, %d/%d steals landed (hit rate \
     %.2f)\n%!"
    fiber_summary.M.fibers fiber_summary.M.steals fiber_summary.M.steal_attempts
    (float_of_int fiber_summary.M.steals
    /. float_of_int (max 1 fiber_summary.M.steal_attempts));
  Report.write_json ~path
    (Report.Obj
       [
         ("benchmark", Report.String "internal-stats");
         ("backend", Report.String Sim.name);
         ("threads", Report.Int t);
         ( "queues",
           Report.List
             (List.map
                (fun (spec, (r : T.result)) ->
                  with_impl (R.spec_name spec) (Obs_report.to_json r.T.stats))
                measured
             @ [
                 (* The scheduler's own counters under the imbalanced
                    fiber run: steal.success > 0 is asserted before this
                    entry is written. *)
                 with_impl "sched-fibers-imbalanced"
                   (Obs_report.to_json fiber_stats);
               ]) );
       ]);
  Printf.printf "wrote %s\n%!" path

(* ---------------- schema ---------------- *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let field obj name =
  match obj with
  | Report.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> fail "missing field %S" name)
  | _ -> fail "expected an object with field %S" name

let as_str what = function
  | Report.String s -> s
  | _ -> fail "%s: expected string" what

let as_arr what = function
  | Report.List l -> l
  | _ -> fail "%s: expected array" what

let as_int what = function
  | Report.Float f when Float.is_integer f -> int_of_float f
  | _ -> fail "%s: expected integer" what

let int_list what v = List.map (as_int what) (as_arr what v)

let check_counter ~threads ~impl c =
  let name = as_str "counter.name" (field c "name") in
  let ctx = Printf.sprintf "%s/%s" impl name in
  let total = as_int (ctx ^ ".total") (field c "total") in
  let per = int_list (ctx ^ ".per_thread") (field c "per_thread") in
  if List.length per <> threads then
    fail "%s: per_thread has %d entries, queue has %d threads" ctx
      (List.length per) threads;
  let sum = List.fold_left ( + ) 0 per in
  if sum <> total then fail "%s: total %d <> sum(per_thread) %d" ctx total sum;
  name

let check_span ~threads ~impl s =
  let name = as_str "span.name" (field s "name") in
  let ctx = Printf.sprintf "%s/%s" impl name in
  let count = as_int (ctx ^ ".count") (field s "count") in
  (match field s "total_ns" with
  | Report.Float _ | Report.Null -> ()  (* non-finite floats serialize as null *)
  | _ -> fail "%s.total_ns: expected number" ctx);
  let per = int_list (ctx ^ ".per_thread_count") (field s "per_thread_count") in
  if List.length per <> threads then
    fail "%s: per_thread_count has %d entries, queue has %d threads" ctx
      (List.length per) threads;
  if List.fold_left ( + ) 0 per <> count then
    fail "%s: count <> sum(per_thread_count)" ctx;
  if
    List.length (as_arr (ctx ^ ".per_thread_ns") (field s "per_thread_ns"))
    <> threads
  then fail "%s: per_thread_ns has wrong length" ctx;
  name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let () =
  let stats_path, metrics_path =
    match Sys.argv with
    | [| _; a; b |] -> (a, b)
    | _ ->
        prerr_endline "usage: statscheck BENCH_stats.json docs/METRICS.md";
        exit 2
  in
  write_stats stats_path;
  try
    let root = Klsm_bench.Json_in.read_file stats_path in
    ignore (as_str "benchmark" (field root "benchmark"));
    ignore (as_str "backend" (field root "backend"));
    ignore (as_int "threads" (field root "threads"));
    let queues = as_arr "queues" (field root "queues") in
    if queues = [] then fail "queues is empty";
    let metrics_md = read_file metrics_path in
    let documented name =
      (* METRICS.md writes every name in backticks; require exactly that so
         an incidental prose mention does not count as documentation. *)
      let needle = "`" ^ name ^ "`" in
      let nl = String.length needle and ml = String.length metrics_md in
      let rec scan i =
        i + nl <= ml && (String.sub metrics_md i nl = needle || scan (i + 1))
      in
      scan 0
    in
    let total_counters = ref 0 in
    let undocumented = ref [] in
    List.iter
      (fun q ->
        let impl = as_str "queue.impl" (field q "impl") in
        let threads = as_int (impl ^ ".threads") (field q "threads") in
        let counters = as_arr (impl ^ ".counters") (field q "counters") in
        let spans = as_arr (impl ^ ".spans") (field q "spans") in
        let names =
          List.map (check_counter ~threads ~impl) counters
          @ List.map (check_span ~threads ~impl) spans
        in
        total_counters := !total_counters + List.length counters;
        List.iter
          (fun n ->
            if (not (documented n)) && not (List.mem n !undocumented) then
              undocumented := n :: !undocumented)
          names)
      queues;
    if !total_counters = 0 then
      fail "no queue emitted any counter (observability never enabled?)";
    if !undocumented <> [] then
      fail "names missing from %s: %s" metrics_path
        (String.concat ", " (List.sort compare !undocumented));
    Printf.printf "statscheck: %s OK (%d queues, %d counters, all documented)\n"
      stats_path (List.length queues) !total_counters
  with
  | Bad msg | Klsm_bench.Json_in.Error msg ->
      Printf.eprintf "statscheck: %s: %s\n" stats_path msg;
      exit 1
  | Sys_error msg ->
      Printf.eprintf "statscheck: %s\n" msg;
      exit 1
