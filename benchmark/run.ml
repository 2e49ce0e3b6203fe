(* The benchmark's command line (README.md in this directory).

     run.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
             [--json PATH] [--spec BENCHMARK.json]
     run.exe --smoke [--spec BENCHMARK.json]
     run.exe --compare BASE.json NEW.json [--spec BENCHMARK.json]

   A run prints one line per metric, then, as its last line, one JSON
   object with "correct", "attempted", "failed" and "metrics".  It exits
   1 when an oracle fails and 2 on a usage error. *)

open Klsm_bench
module J = Klsm_harness.Report

let usage () =
  prerr_endline
    "usage: run.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--json PATH]\n\
    \                [--spec BENCHMARK.json]\n\
    \       run.exe --smoke [--spec BENCHMARK.json]\n\
    \       run.exe --compare BASE.json NEW.json [--spec BENCHMARK.json]\n\
     workloads: uniform-mix sssp-grid sched-fibers spill-descending (default: all)";
  exit 2

type opts = {
  mutable seed : int;
  mutable seconds : float;
  mutable workloads : string list;
  mutable trace : bool;
  mutable json : string option;
  mutable smoke : bool;
  mutable compare : (string * string) option;
  mutable spec : string;
}

let parse argv =
  let o =
    {
      seed = 1;
      seconds = 10.;
      workloads = [];
      trace = false;
      json = None;
      smoke = false;
      compare = None;
      spec = "BENCHMARK.json";
    }
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--seed" :: n :: rest ->
        o.seed <- int n;
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some f when f > 0. -> o.seconds <- f | _ -> usage ());
        go rest
    | "--workload" :: w :: rest ->
        if Bench.find w = None then usage ();
        o.workloads <- o.workloads @ [ w ];
        go rest
    | "--trace" :: t :: rest ->
        (match t with "0" -> o.trace <- false | "1" -> o.trace <- true | _ -> usage ());
        go rest
    | "--json" :: p :: rest ->
        o.json <- Some p;
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | "--compare" :: a :: b :: rest ->
        o.compare <- Some (a, b);
        go rest
    | "--spec" :: p :: rest ->
        o.spec <- p;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  o

(* Store roots and other scratch files live under the working directory
   (the checkout, when run as the benchmark command) and go at exit. *)
let scratch () =
  let dir = Filename.concat ".bench_tmp" (string_of_int (Unix.getpid ())) in
  Common.mkdir_p dir;
  at_exit (fun () ->
      Common.rm_rf dir;
      try Sys.rmdir ".bench_tmp" with Sys_error _ -> ());
  dir

let selected o =
  match o.workloads with
  | [] -> Bench.workloads
  | names -> List.map (fun n -> Option.get (Bench.find n)) names

let load path read =
  match read path with
  | v -> v
  | exception (Sys_error m | Json_in.Error m) ->
      Printf.eprintf "cannot read %s: %s\n" path m;
      exit 2

let load_spec o = load o.spec Spec.load

(* ------------------------------------------------------------------ *)

let measure o =
  let spec = load_spec o in
  let p = { Common.seed = o.seed; seconds = o.seconds; scale = 1.0; scratch = scratch () } in
  let results = Bench.run spec p ~trace:o.trace (selected o) in
  Bench.print_lines spec stdout results;
  Option.iter
    (fun path ->
      J.write_json ~path (Bench.file_json ~seed:o.seed ~seconds:o.seconds ~trace:o.trace results))
    o.json;
  print_endline (J.json_to_string (Bench.result_json spec results));
  exit (if List.for_all Bench.correct results then 0 else 1)

(* Every workload at 1/50 scale, untraced and traced: every oracle, and
   the shape of the result line against BENCHMARK.json.  No timing is
   checked. *)
let smoke o =
  let spec = load_spec o in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  if List.map (fun (w : Bench.workload) -> w.name) Bench.workloads <> spec.Spec.workloads then
    fail "BENCHMARK.json and the workload table name different workloads";
  let p = { Common.seed = o.seed; seconds = 0.01; scale = 0.02; scratch = scratch () } in
  let check ~trace =
    let results = Bench.run ~log:ignore spec p ~trace Bench.workloads in
    List.iter
      (fun (r : Bench.result) ->
        List.iter (fail "%s: %s" r.workload) r.violations;
        if r.failed > 0 then fail "%s: %d failed operations" r.workload r.failed;
        let line = Json_in.parse (J.json_to_string (Bench.result_json spec [ r ])) in
        let keys = List.map fst (Json_in.to_obj line) in
        if keys <> [ "correct"; "attempted"; "failed"; "metrics" ] then
          fail "%s: result keys %s" r.workload (String.concat "," keys);
        let metrics = Json_in.to_obj (Json_in.member "metrics" line) in
        let want = List.map (fun (m : Spec.metric) -> m.name) (if trace then spec.layers else spec.e2e) in
        if List.map fst metrics <> want then fail "%s: metric names differ" r.workload;
        List.iter
          (fun (name, m) ->
            match Json_in.member "value" m with
            | J.Float v when Float.is_finite v ->
                if (not trace) && v = 0. then fail "%s: %s is 0" r.workload name
            | _ -> fail "%s: %s is not a finite number" r.workload name)
          metrics;
        if Json_in.member "correct" line <> J.Bool true then fail "%s: correct = false" r.workload)
      results;
    Printf.printf "smoke %s: %s\n%!" (if trace then "traced" else "untraced")
      (String.concat ", "
         (List.map (fun (r : Bench.result) -> Printf.sprintf "%s %d trials" r.workload r.trials) results))
  in
  check ~trace:false;
  check ~trace:true;
  match List.rev !fails with
  | [] -> print_endline "smoke OK"
  | errs ->
      List.iter (Printf.printf "smoke FAILED: %s\n") errs;
      exit 1

(* ------------------------------------------------------------------ *)

let compare o (base_path, new_path) =
  let spec = load_spec o in
  let load path = Json_in.to_obj (Json_in.member "workloads" (load path Json_in.read_file)) in
  let base = load base_path and next = load new_path in
  let num j k = try Json_in.to_float (Json_in.member k j) with Json_in.Error _ -> nan in
  let spread j = (num j "q3" -. num j "q1") /. num j "value" in
  List.iter
    (fun (w, b) ->
      match List.assoc_opt w next with
      | None -> ()
      | Some n ->
          Printf.printf "== %s ==\n%-20s %12s %25s %12s %25s %7s  %s\n" w "metric" "base"
            "[q1, q3]" "new" "[q1, q3]" "ratio" "verdict";
          let row name bv nv =
            let r = num nv "value" /. num bv "value" in
            let verdict =
              match Spec.find spec name with
              | None -> "not in BENCHMARK.json"
              | Some m when Float.is_nan m.Spec.bound ->
                  Printf.sprintf "no bound; spread %.0f%% / %.0f%%" (spread bv *. 100.)
                    (spread nv *. 100.)
              | Some m ->
                  let worse = if m.Spec.better = "lower" then r -. 1. else 1. -. r in
                  Printf.sprintf "%s (bound %.0f%%)"
                    (if Float.max (spread bv) (spread nv) > m.Spec.bound then "unresolved"
                     else if worse > m.Spec.bound then "REGRESSION"
                     else if -.worse > m.Spec.bound then "improved"
                     else "ok")
                    (m.Spec.bound *. 100.)
            in
            Printf.printf "%-20s %12.6g [%10.6g, %10.6g] %12.6g [%10.6g, %10.6g] %7.3f  %s\n" name
              (num bv "value") (num bv "q1") (num bv "q3") (num nv "value") (num nv "q1")
              (num nv "q3") r verdict
          in
          let section j k = Json_in.to_obj (Json_in.member k j) in
          List.iter
            (fun k ->
              List.iter
                (fun (name, bv) -> Option.iter (row name bv) (List.assoc_opt name (section n k)))
                (section b k))
            [ "end_to_end"; "real" ];
          let nl = section n "per_layer" in
          List.iter
            (fun (name, bv) ->
              match List.assoc_opt name nl with
              | _ when String.starts_with ~prefix:"real." name -> ()
              | None -> ()
              | Some nv ->
                  let flt v = try Json_in.to_float v with Json_in.Error _ -> nan in
                  let bv = flt bv and nv = flt nv in
                  Printf.printf "  %-30s %12.6g -> %12.6g  %+7.1f%%  (%s is better)\n" name bv nv
                    (if bv <> 0. then (nv /. bv -. 1.) *. 100. else 0.)
                    (match Spec.find spec name with Some m -> m.Spec.better | None -> "?"))
            (section b "per_layer"))
    base

let () =
  let o = parse Sys.argv in
  match o.compare with
  | Some files -> compare o files
  | None -> if o.smoke then smoke o else measure o
