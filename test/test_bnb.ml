(* Tests for the branch-and-bound engine and its two problem instances:
   optimality against independent oracles (DP / Held-Karp), determinism,
   multi-threaded runs on both backends and under random preemption, and
   pruning sanity. *)

open Helpers
module Sim = Klsm_backend.Sim
module Engine_sim = Klsm_bnb.Engine.Make (Sim)
module Engine_real = Klsm_bnb.Engine.Make (Klsm_backend.Real)
module Knapsack = Klsm_bnb.Knapsack
module Tsp = Klsm_bnb.Tsp

let solve_knapsack_sim ?(threads = 4) ?(k = 64) inst =
  Sim.configure ~seed:1 ~policy:Sim.Fair ();
  let stats = Engine_sim.solve ~k ~num_threads:threads (Knapsack.problem inst) in
  (Knapsack.profit_of_best inst stats.Engine_sim.best, stats)

(* ---------------- knapsack ---------------- *)

let prop_knapsack_matches_dp =
  qtest "B&B knapsack = DP optimum (sim, 4 threads)" ~count:25
    QCheck2.Gen.(pair int (int_range 4 18))
    (fun (seed, n) ->
      let inst = Knapsack.random ~seed ~n () in
      let profit, _ = solve_knapsack_sim inst in
      profit = Knapsack.dp_optimum inst)

let test_knapsack_thread_counts () =
  let inst = Knapsack.random ~seed:77 ~n:20 () in
  let expect = Knapsack.dp_optimum inst in
  List.iter
    (fun threads ->
      let profit, _ = solve_knapsack_sim ~threads inst in
      check_int (Printf.sprintf "T=%d" threads) expect profit)
    [ 1; 2; 8 ]

let test_knapsack_relaxation_values () =
  (* Higher k may expand more nodes, never worse answers. *)
  let inst = Knapsack.random ~seed:3 ~n:18 () in
  let expect = Knapsack.dp_optimum inst in
  List.iter
    (fun k ->
      let profit, _ = solve_knapsack_sim ~k inst in
      check_int (Printf.sprintf "k=%d" k) expect profit)
    [ 0; 4; 1024 ]

let test_knapsack_real_domains () =
  let inst = Knapsack.random ~seed:5 ~n:20 () in
  let stats = Engine_real.solve ~num_threads:3 (Knapsack.problem inst) in
  check_int "real backend optimal" (Knapsack.dp_optimum inst)
    (Knapsack.profit_of_best inst stats.Engine_real.best)

let test_knapsack_zero_capacity () =
  let inst =
    Knapsack.instance
      ~items:[| { Knapsack.weight = 5; profit = 10 } |]
      ~capacity:0
  in
  let profit, _ = solve_knapsack_sim ~threads:1 inst in
  check_int "nothing fits" 0 profit

let test_knapsack_validation () =
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Knapsack.instance: weights > 0, profits >= 0")
    (fun () ->
      ignore
        (Knapsack.instance ~items:[| { Knapsack.weight = 0; profit = 1 } |]
           ~capacity:5))

let test_engine_stats_sane () =
  let inst = Knapsack.random ~seed:11 ~n:16 () in
  let _, stats = solve_knapsack_sim inst in
  check_bool "expanded > 0" true (stats.Engine_sim.expanded > 0);
  check_bool "wall >= 0" true (stats.Engine_sim.wall >= 0.)

let test_knapsack_random_preempt () =
  (* Preemption at every atomic access, with the incumbent's lazy
     deletion dropping nodes on whichever worker copies their block: the
     solve must still stop only after the optimum is found. *)
  Fun.protect
    ~finally:(fun () -> Sim.configure ~policy:Sim.Fair ())
    (fun () ->
      List.iter
        (fun p ->
          List.iter
            (fun threads ->
              List.iter
                (fun k ->
                  for seed = 1 to 10 do
                    let inst = Knapsack.random ~seed ~n:14 () in
                    Sim.configure ~seed ~policy:(Sim.Random_preempt p) ();
                    let stats =
                      Engine_sim.solve ~seed ~k ~num_threads:threads
                        (Knapsack.problem inst)
                    in
                    check_int
                      (Printf.sprintf "p=%.2f T=%d k=%d seed=%d" p threads k seed)
                      (Knapsack.dp_optimum inst)
                      (Knapsack.profit_of_best inst stats.Engine_sim.best)
                  done)
                [ 0; 64 ])
            [ 2; 3; 8 ])
        [ 0.05; 0.5 ])

(* ---------------- TSP ---------------- *)

let prop_tsp_matches_held_karp =
  qtest "B&B TSP = Held-Karp optimum (sim, 4 threads)" ~count:15
    QCheck2.Gen.(pair int (int_range 4 9))
    (fun (seed, n) ->
      let inst = Tsp.random ~seed ~n () in
      Sim.configure ~seed:1 ~policy:Sim.Fair ();
      let stats = Engine_sim.solve ~k:32 ~num_threads:4 (Tsp.problem inst) in
      stats.Engine_sim.best = Tsp.held_karp inst)

let test_tsp_two_cities () =
  let inst = Tsp.random ~seed:2 ~n:2 () in
  Sim.configure ~seed:1 ~policy:Sim.Fair ();
  let stats = Engine_sim.solve ~num_threads:1 (Tsp.problem inst) in
  check_int "out and back" (2 * inst.Tsp.dist.(0).(1)) stats.Engine_sim.best

let test_tsp_bound_admissible () =
  (* Spot-check on small instances: the Held-Karp optimum never beats the
     root bound. *)
  for seed = 1 to 10 do
    let inst = Tsp.random ~seed ~n:7 () in
    let (module P) = Tsp.problem inst in
    check_bool "root bound admissible" true
      (P.bound P.root <= Tsp.held_karp inst)
  done

let test_tsp_larger_instance () =
  let inst = Tsp.random ~seed:123 ~n:12 () in
  Sim.configure ~seed:1 ~policy:Sim.Fair ();
  let stats = Engine_sim.solve ~k:64 ~num_threads:8 (Tsp.problem inst) in
  check_int "12 cities optimal" (Tsp.held_karp inst) stats.Engine_sim.best

let () =
  Alcotest.run "bnb"
    [
      ( "knapsack",
        [
          prop_knapsack_matches_dp;
          Alcotest.test_case "thread counts" `Slow test_knapsack_thread_counts;
          Alcotest.test_case "relaxation values" `Slow test_knapsack_relaxation_values;
          Alcotest.test_case "real domains" `Slow test_knapsack_real_domains;
          Alcotest.test_case "zero capacity" `Quick test_knapsack_zero_capacity;
          Alcotest.test_case "validation" `Quick test_knapsack_validation;
          Alcotest.test_case "stats" `Quick test_engine_stats_sane;
          Alcotest.test_case "random preemption" `Slow test_knapsack_random_preempt;
        ] );
      ( "tsp",
        [
          prop_tsp_matches_held_karp;
          Alcotest.test_case "two cities" `Quick test_tsp_two_cities;
          Alcotest.test_case "bound admissible" `Quick test_tsp_bound_admissible;
          Alcotest.test_case "12 cities" `Slow test_tsp_larger_instance;
        ] );
    ]
