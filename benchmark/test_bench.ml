(* Unit tests of the benchmark's own machinery: histogram percentiles,
   the pool backend, and seeding. *)

open Klsm_bench
module Pb = Pool_backend
module Stats = Klsm_primitives.Stats
module Xoshiro = Klsm_primitives.Xoshiro

let check = Alcotest.(check bool)

(* Latency-like samples: mostly a few hundred ns, a long tail, and some
   exact small values below the first log bucket. *)
let samples seed n =
  let rng = Xoshiro.create ~seed in
  Array.init n (fun i ->
      if i mod 10 = 0 then Xoshiro.int rng 128
      else int_of_float (200. *. exp (2.5 *. Xoshiro.float rng *. Xoshiro.float rng)))

let test_hist_percentiles () =
  List.iter
    (fun (seed, n) ->
      let xs = samples seed n in
      let h = Hist.create () in
      Array.iter (Hist.record h) xs;
      let fx = Array.map float_of_int xs in
      List.iter
        (fun p ->
          let exact = Stats.percentile fx p in
          let got = Hist.percentile h p in
          let tol = float_of_int (Hist.resolution (int_of_float exact)) in
          check
            (Printf.sprintf "n=%d p%g: hist %.1f vs exact %.1f within %.0f" n p got exact tol)
            true
            (Float.abs (got -. exact) <= tol))
        [ 1.; 10.; 50.; 90.; 99.; 99.9 ])
    [ (1, 10_000); (2, 100_000); (3, 1_000_000) ];
  let h = Hist.create () in
  List.iter (Hist.record h) [ 5; 5; 5 ];
  check "a constant sample stays in its bucket" true
    (Float.abs (Hist.percentile h 99. -. 5.) < 1.)

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () and all = Hist.create () in
  Array.iteri
    (fun i x ->
      Hist.record (if i land 1 = 0 then a else b) x;
      Hist.record all x)
    (samples 4 50_000);
  Hist.merge_into ~dst:a b;
  check "merged count" true (Hist.count a = Hist.count all);
  check "merged p99" true (Hist.percentile a 99. = Hist.percentile all 99.)

let test_pool_self () =
  check "self outside a run" true (Pb.self () = -1);
  let ids = Array.make 3 (-2) and doms = Array.make 3 (-1) in
  Pb.parallel_run ~num_threads:3 (fun tid ->
      ids.(tid) <- Pb.self ();
      doms.(tid) <- (Domain.self () :> int));
  check "each thread sees its index" true (ids = [| 0; 1; 2 |]);
  check "thread 0 runs on the caller" true (doms.(0) = (Domain.self () :> int));
  check "other threads run on other domains" true
    (doms.(1) <> doms.(0) && doms.(2) <> doms.(0) && doms.(1) <> doms.(2));
  check "self after a run" true (Pb.self () = -1);
  (* The pool is persistent: a second run reuses the same domains. *)
  let again = Array.make 3 (-1) in
  Pb.parallel_run ~num_threads:3 (fun tid -> again.(tid) <- (Domain.self () :> int));
  check "domains are reused" true (again = doms);
  let fewer = Array.make 2 (-2) in
  Pb.parallel_run ~num_threads:2 (fun tid -> fewer.(tid) <- Pb.self ());
  check "a smaller run" true (fewer = [| 0; 1 |])

let test_pool_exceptions () =
  (match Pb.parallel_run ~num_threads:2 (fun tid -> if tid = 1 then failwith "boom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Pb.Thread_failure (1, Failure m) -> check "message kept" true (m = "boom")
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e));
  (match
     Pb.parallel_run ~num_threads:2 (fun tid ->
         if tid = 0 then Pb.parallel_run ~num_threads:2 ignore)
   with
  | () -> Alcotest.fail "nested run accepted"
  | exception Pb.Thread_failure (0, Invalid_argument _) -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e));
  let ran = Atomic.make 0 in
  Pb.parallel_run ~num_threads:2 (fun _ -> Atomic.incr ran);
  check "the pool survives a failed run" true (Atomic.get ran = 2)

(* Two seeds give different inputs; the same seed gives the same ones. *)
let test_seeds () =
  let stream seed =
    let next = (Common.key_sources Mix.uniform.Mix.keys ~seed ~threads:1).(0) in
    List.init 64 (fun _ -> next ())
  in
  check "same seed, same keys" true (stream 1 = stream 1);
  check "other seed, other keys" true (stream 1 <> stream 2);
  let weights seed =
    Klsm_graph.Graph.fold_edges
      (Klsm_graph.Gen.grid ~seed ~width:8 ~height:8 ())
      ~init:[] ~f:(fun acc _ _ w -> w :: acc)
  in
  check "other seed, other grid weights" true (weights 1 <> weights 2);
  let gaps seed = List.init 16 (fun _ -> Sched_fibers.gap (Xoshiro.create ~seed) 50_000.) in
  check "other seed, other arrival gaps" true (gaps 1 <> gaps 2);
  let spec = Spec.load "../BENCHMARK.json" in
  let run seed =
    let dir = Printf.sprintf ".bench_tmp/test-%d-%d" (Unix.getpid ()) seed in
    Common.mkdir_p dir;
    let p = { Common.seed; seconds = 0.01; scale = 0.02; scratch = dir } in
    let rs =
      Bench.run ~log:ignore spec p ~trace:false
        (List.filter_map Bench.find [ "uniform-mix"; "sched-fibers" ])
    in
    Common.rm_rf dir;
    List.map
      (fun (r : Bench.result) ->
        check (r.workload ^ " correct") true (Bench.correct r);
        (r.workload, List.map fst r.e2e, List.assoc "sim8_ops_per_s" r.e2e))
      rs
  in
  let a = run 1 and b = run 2 in
  check "same metric set" true
    (List.map (fun (w, names, _) -> (w, names)) a = List.map (fun (w, names, _) -> (w, names)) b);
  check "the simulator twin sees other inputs" true
    (List.exists2 (fun (_, _, x) (_, _, y) -> x.Bench.v <> y.Bench.v) a b)

(* Descending keys: whichever thread draws next, its key is below every
   key drawn before, so every insert is a new global minimum. *)
let test_descending () =
  let gens = Common.key_sources Mix.spill.Mix.keys ~seed:1 ~threads:2 in
  let rng = Xoshiro.create ~seed:5 in
  let drawn = List.init 1000 (fun _ -> gens.(Xoshiro.int rng 2) ()) in
  let rec falling = function a :: (b :: _ as rest) -> a > b && falling rest | _ -> true in
  check "strictly falling across threads" true (falling drawn)

let () =
  Alcotest.run "benchmark"
    [
      ( "hist",
        [
          Alcotest.test_case "percentiles within a bucket" `Quick test_hist_percentiles;
          Alcotest.test_case "merge" `Quick test_hist_merge;
        ] );
      ( "pool backend",
        [
          Alcotest.test_case "self ids" `Quick test_pool_self;
          Alcotest.test_case "exception propagation" `Quick test_pool_exceptions;
        ] );
      ("seed", [ Alcotest.test_case "drives every input" `Quick test_seeds ]);
      ("keys", [ Alcotest.test_case "descending keys are global minima" `Quick test_descending ]);
    ]
