(* Schema sanity check for BENCH_stats.json (the `make stats-check` half of
   `make check`).

   Usage: statscheck BENCH_STATS_JSON METRICS_MD

   Validates that
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

module J = Klsm_harness.Report

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* ---------------- schema ---------------- *)

let field obj name =
  match obj with
  | J.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> fail "missing field %S" name)
  | _ -> fail "expected an object with field %S" name

let as_str what = function J.String s -> s | _ -> fail "%s: expected string" what
let as_arr what = function J.List l -> l | _ -> fail "%s: expected array" what

let as_int what = function
  | J.Float f when Float.is_integer f -> int_of_float f
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
  | J.Float _ | J.Null -> ()  (* Report serializes non-finite floats as null *)
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
