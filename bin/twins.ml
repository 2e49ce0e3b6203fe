(* The benchmark's simulator twins alone (`make twins`).

   dune exec bin/twins.exe -- --seeds A-B [--workload W]... [--counters]

   Runs the twin of each selected workload of benchmark/ (all four by
   default) at every seed from A to B, and prints the six twin metrics of
   BENCHMARK.json per seed, then their median and quartiles per workload.
   The twins are the ones `benchmark/run.sh` bounds — this links
   [Klsm_bench.Bench.workloads] instead of copying them — without the
   Real trials and layer kernels around them, so a seed pair of two trees
   costs seconds instead of minutes.  The simulator repeats itself: one
   seed gives the same numbers on any host.

   With --counters it instead runs one traced Real trial of each selected
   workload (the benchmark's own trial code, T = 2, seed A) and prints the
   thread-local find-min counters per 1,000 local deletes, and the
   thread-local merges and block-pool acquisitions per 1,000 operations:
   every insert that carries slots builds one block, so pool.hit +
   pool.miss per insert reads the blocks built.  For a workload whose
   workers pull from the queue (sched-fibers), a second table reads the
   pull path per 1,000 queue pulls (steal.fallback): run claims, shared
   deletes, lost takes, stripe selections and publish CAS attempts. *)

module Bench = Klsm_bench.Bench
module Common = Klsm_bench.Common
module Twin = Klsm_bench.Twin
module Hist = Klsm_bench.Hist
module Stats = Klsm_primitives.Stats

let metrics =
  [
    ("sim8_ops_per_s", fun (tw : Twin.result) -> tw.Twin.ops_per_s);
    ("sim8_insert_p50_ns", fun tw -> Hist.percentile tw.Twin.insert 50.);
    ("sim8_insert_p99_ns", fun tw -> Hist.percentile tw.Twin.insert 99.);
    ("sim8_delete_p50_ns", fun tw -> Hist.percentile tw.Twin.delete 50.);
    ("sim8_delete_p99_ns", fun tw -> Hist.percentile tw.Twin.delete 99.);
    ("rank_err_mean", fun tw -> tw.Twin.rank_err_mean);
  ]

let usage = "twins.exe --seeds A-B [--workload W]... [--counters]"

let parse_seeds s =
  let bad () = raise (Arg.Bad ("--seeds: expected A-B, got " ^ s)) in
  let seed a = match int_of_string_opt a with Some n -> n | None -> bad () in
  match String.split_on_char '-' s with
  | [ a ] -> (seed a, seed a)
  | [ a; b ] -> (seed a, seed b)
  | _ -> bad ()

let twins workloads ~first ~last ~scratch =
  Printf.printf "%-16s %4s" "workload" "seed";
  List.iter (fun (m, _) -> Printf.printf " %18s" m) metrics;
  print_newline ();
  let failed = ref false in
  List.iter
    (fun (w : Bench.workload) ->
      let rows = ref [] in
      for seed = first to last do
        match w.twin ~seed ~scratch ~scale:1.0 with
        | Error e ->
            failed := true;
            Printf.printf "%-16s %4d VIOLATION %s\n%!" w.name seed e
        | Ok tw ->
            let row = List.map (fun (_, f) -> f tw) metrics in
            rows := row :: !rows;
            Printf.printf "%-16s %4d" w.name seed;
            List.iter (Printf.printf " %18.6g") row;
            if tw.Twin.rank_err_max > tw.Twin.rho then begin
              failed := true;
              Printf.printf "  VIOLATION rank error %d > %d" tw.Twin.rank_err_max
                tw.Twin.rho
            end;
            print_newline ()
      done;
      if !rows <> [] then begin
        let column i = Array.of_list (List.map (fun r -> List.nth r i) !rows) in
        List.iter
          (fun (label, stat) ->
            Printf.printf "%-16s %4s" w.name label;
            List.iteri (fun i _ -> Printf.printf " %18.6g" (stat (column i))) metrics;
            print_newline ())
          [
            ("q1", fun a -> Stats.percentile a 25.);
            ("med", Stats.median);
            ("q3", fun a -> Stats.percentile a 75.);
          ]
      end)
    workloads;
  not !failed

(* The pull-path counters of the second --counters table, read per 1,000
   queue pulls. *)
let pull_counters =
  [
    "shared.batch_claim";
    "klsm.claim_yield";
    "klsm.delete_shared";
    "klsm.take_race";
    "stripe.cache_miss";
    "shared.cas_attempt";
  ]

let counters workloads ~seed ~scratch =
  let p = { Common.seed; seconds = 1.; scale = 1.0; scratch } in
  Printf.printf "%-16s %12s %16s %18s %10s %12s %14s %15s\n" "workload" "local_del"
    "bound_scan/1k" "stale_repeek/1k" "ops" "merge/kop" "pool.hit/kop" "pool.miss/kop";
  let sums =
    List.map
      (fun (w : Bench.workload) ->
        let acc = Common.create_acc () in
        let trial = w.start p acc in
        ignore (trial ~index:1 ~traced:true);
        let s = Common.sum acc in
        let per_k denom name = if denom > 0. then 1000. *. s name /. denom else 0. in
        let local = s "klsm.delete_local" and ops = s "ops" in
        Printf.printf "%-16s %12.0f %16.1f %18.1f %10.0f %12.1f %14.1f %15.1f\n%!" w.name local
          (per_k local "dist.bound_scan") (per_k local "dist.stale_repeek") ops
          (per_k ops "dist.merge") (per_k ops "pool.hit") (per_k ops "pool.miss");
        List.iter (Printf.printf "%s VIOLATION %s\n" w.name) acc.Common.violations;
        (w.name, s, acc.Common.violations = []))
      workloads
  in
  (match List.filter (fun (_, s, _) -> s "steal.fallback" > 0.) sums with
  | [] -> ()
  | pulling ->
      Printf.printf "\n%-16s %10s" "workload" "pulls";
      List.iter (fun c -> Printf.printf " %19s" (c ^ "/kpull")) pull_counters;
      print_newline ();
      List.iter
        (fun (name, s, _) ->
          let pulls = s "steal.fallback" in
          Printf.printf "%-16s %10.0f" name pulls;
          List.iter (fun c -> Printf.printf " %19.1f" (1000. *. s c /. pulls)) pull_counters;
          print_newline ())
        pulling);
  List.for_all (fun (_, _, ok) -> ok) sums

let () =
  let seeds = ref None and names = ref [] and count = ref false in
  Arg.parse
    [
      ("--seeds", Arg.String (fun s -> seeds := Some (parse_seeds s)), "A-B seeds to run (or one seed)");
      ("--workload", Arg.String (fun w -> names := w :: !names), "W a workload (repeatable; default all)");
      ("--counters", Arg.Set count, " one traced Real trial per workload: find-min, merge, pool and pull-path counters");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let first, last =
    match !seeds with
    | Some r -> r
    | None ->
        prerr_endline usage;
        exit 2
  in
  let workloads =
    match List.rev !names with
    | [] -> Bench.workloads
    | ns ->
        List.map
          (fun n ->
            match Bench.find n with
            | Some w -> w
            | None ->
                Printf.eprintf "unknown workload %s\n" n;
                exit 2)
          ns
  in
  (* Store roots go to a temporary directory, removed before the exit. *)
  let scratch = Filename.temp_dir "klsm-twins" "" in
  let ok =
    Fun.protect
      ~finally:(fun () -> Common.rm_rf scratch)
      (fun () ->
        if !count then counters workloads ~seed:first ~scratch
        else twins workloads ~first ~last ~scratch)
  in
  if not ok then exit 1
