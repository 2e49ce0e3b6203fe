(* Integration tests for the parallel label-correcting SSSP (paper §6):
   distances must equal sequential Dijkstra for every queue, on both
   backends, with and without queue-side lazy deletion, across graph
   families and under random preemption. *)

open Helpers
module Sim = Klsm_backend.Sim
module Gen = Klsm_graph.Gen
module Dijkstra = Klsm_graph.Dijkstra

module Against (B : Klsm_backend.Backend_intf.S) = struct
  module R = Klsm_harness.Registry.Make (B)
  module SB = Klsm_harness.Sssp_bench.Make (B)

  let check_spec ~graph ~reference ~num_threads spec =
    let r = SB.run ~graph ~source:0 ~num_threads ~reference spec in
    check_bool
      (Printf.sprintf "%s T=%d correct" (R.spec_name spec) num_threads)
      true r.SB.correct;
    r
end

module On_sim = Against (Klsm_backend.Sim)
module On_real = Against (Klsm_backend.Real)
module R_sim = Klsm_harness.Registry.Make (Klsm_backend.Sim)
module R_real = Klsm_harness.Registry.Make (Klsm_backend.Real)

let er_graph = lazy (Gen.erdos_renyi ~seed:21 ~n:250 ~p:0.08 ~max_weight:10_000 ())
let er_ref = lazy (Dijkstra.run (Lazy.force er_graph) ~source:0)

let test_sim_all_queues () =
  let graph = Lazy.force er_graph and reference = Lazy.force er_ref in
  List.iter
    (fun spec ->
      ignore (On_sim.check_spec ~graph ~reference ~num_threads:4 spec))
    [
      R_sim.Klsm 0;
      R_sim.Klsm 256;
      R_sim.Dlsm;
      R_sim.Wimmer_centralized;
      R_sim.Wimmer_hybrid 64;
      R_sim.Linden;
      R_sim.Multiq 2;
      R_sim.Heap_lock;
      R_sim.Spraylist;
    ]

let test_sim_thread_counts () =
  let graph = Lazy.force er_graph and reference = Lazy.force er_ref in
  List.iter
    (fun t ->
      ignore (On_sim.check_spec ~graph ~reference ~num_threads:t (R_sim.Klsm 64)))
    [ 1; 2; 8; 20 ]

let test_real_domains () =
  (* Genuine OS-thread parallelism (preemptive on 1 core still races). *)
  let graph = Lazy.force er_graph and reference = Lazy.force er_ref in
  List.iter
    (fun spec ->
      ignore (On_real.check_spec ~graph ~reference ~num_threads:3 spec))
    [ R_real.Klsm 64; R_real.Dlsm; R_real.Wimmer_hybrid 64 ]

let test_grid_graph () =
  let graph = Gen.grid ~seed:3 ~width:20 ~height:20 ~max_weight:50 () in
  let reference = Dijkstra.run graph ~source:0 in
  ignore (On_sim.check_spec ~graph ~reference ~num_threads:6 (R_sim.Klsm 128))

let test_rmat_graph () =
  let graph = Gen.rmat ~seed:3 ~scale:8 ~edge_factor:4 () in
  let reference = Dijkstra.run graph ~source:0 in
  ignore (On_sim.check_spec ~graph ~reference ~num_threads:6 (R_sim.Klsm 128))

let test_disconnected_graph () =
  (* Unreachable nodes must stay at max_int and not break termination. *)
  let graph = Klsm_graph.Graph.of_edges ~n:10 [ (0, 1, 3); (1, 2, 4) ] in
  let reference = Dijkstra.run graph ~source:0 in
  let r = On_sim.check_spec ~graph ~reference ~num_threads:4 (R_sim.Klsm 16) in
  check_int "only 3 settled" 3 reference.Dijkstra.settled;
  check_bool "no extra work on empty graph" true (r.On_sim.SB.iterations >= 3)

let test_single_node () =
  let graph = Klsm_graph.Graph.of_edges ~n:1 [] in
  let reference = Dijkstra.run graph ~source:0 in
  ignore (On_sim.check_spec ~graph ~reference ~num_threads:2 (R_sim.Klsm 4))

let test_extra_iterations_grow_with_k () =
  (* The paper's quality metric: higher k must not reduce correctness, and
     (statistically) produces at least as many extra iterations at high
     relaxation as at k=0.  Averaged over a few seeds to avoid flakiness. *)
  let graph = Lazy.force er_graph and reference = Lazy.force er_ref in
  let avg_extra k =
    let total = ref 0 in
    for seed = 1 to 3 do
      let r =
        On_sim.SB.run ~seed ~graph ~source:0 ~num_threads:8 ~reference
          (R_sim.Klsm k)
      in
      total := !total + r.On_sim.SB.extra_iterations
    done;
    !total
  in
  let low = avg_extra 0 and high = avg_extra 4096 in
  check_bool "relaxation costs iterations" true (high >= low)

let test_stale_counted () =
  let graph = Lazy.force er_graph and reference = Lazy.force er_ref in
  let r = On_sim.check_spec ~graph ~reference ~num_threads:8 (R_sim.Klsm 256) in
  (* iterations = settled + extra; both non-negative. *)
  check_bool "iterations >= settled" true
    (r.On_sim.SB.iterations >= reference.Dijkstra.settled);
  check_bool "stale >= 0" true (r.On_sim.SB.stale >= 0)

(* ---------------- adversarial schedules ---------------- *)

module Sssp_sim = Klsm_graph.Sssp.Make (Sim)

(* Entries the queues dropped lazily, over every solve below. *)
let lazy_drops = ref 0

(* One solve through [Sssp.run] directly, so lazy deletion can be left
   unwired for a queue that supports it. *)
let solve_sim ~graph ~num_threads ~lazy_deletion ~seed spec =
  let stats =
    Sssp_sim.run graph ~source:0 ~num_threads
      ~setup:(fun ~dist ~drop ->
        let inst =
          if lazy_deletion then
            R_sim.make ~seed ~should_delete:(Sssp_sim.should_delete_of dist)
              ~on_lazy_delete:(fun d v ->
                incr lazy_drops;
                drop d v)
              ~num_threads spec
          else R_sim.make ~seed ~num_threads spec
        in
        fun tid ->
          let h = inst.R_sim.register tid in
          { Sssp_sim.insert = h.R_sim.insert; try_delete_min = h.R_sim.try_delete_min })
      ()
  in
  Sssp_sim.distances stats

let test_random_preempt () =
  (* A preemption may fall between any two atomic accesses, so a worker
     can stall between announcing a child and inserting it, or between
     inserting its last child and retiring its entry, while the others
     poll for quiescence.  Every run must reproduce Dijkstra and stop; an
     entry retired twice, or never (a lazy drop lost), would leave the
     sums unequal forever.  The soundness of the double collect itself is
     checked exhaustively in test_primitives.ml. *)
  let graph = Gen.erdos_renyi ~seed:5 ~n:60 ~p:0.1 ~max_weight:100 () in
  let reference = (Dijkstra.run graph ~source:0).Dijkstra.dist in
  let specs =
    [
      R_sim.Klsm 0;
      R_sim.Klsm 16;
      R_sim.klsm_sharded 16 2;
    ]
  in
  Fun.protect
    ~finally:(fun () -> Sim.configure ~policy:Sim.Fair ())
    (fun () ->
      List.iter
        (fun p ->
          List.iter
            (fun num_threads ->
              List.iter
                (fun spec ->
                  List.iter
                    (fun lazy_deletion ->
                      for seed = 1 to 5 do
                        Sim.configure ~seed ~policy:(Sim.Random_preempt p) ();
                        let dist =
                          solve_sim ~graph ~num_threads ~lazy_deletion ~seed spec
                        in
                        check_bool
                          (Printf.sprintf "%s p=%.2f T=%d lazy=%b seed=%d"
                             (R_sim.spec_name spec) p num_threads lazy_deletion seed)
                          true (dist = reference)
                      done)
                    [ true; false ])
                specs)
            [ 2; 3; 8 ])
        [ 0.05; 0.5 ]);
  check_bool "lazy deletion dropped entries" true (!lazy_drops > 0)

let test_drop_outside_worker () =
  (* An entry dropped outside a worker would be retired on no thread and
     every idle worker would wait for it forever. *)
  let graph = Klsm_graph.Graph.of_edges ~n:2 [ (0, 1, 1) ] in
  Alcotest.check_raises "drop outside a worker"
    (Invalid_argument "Quiescence.retire: -1 is not a worker thread")
    (fun () ->
      ignore
        (Sssp_sim.run graph ~source:0 ~num_threads:2
           ~setup:(fun ~dist:_ ~drop ->
             drop 0 1;
             fun _ -> assert false)
           ()))

let () =
  Alcotest.run "sssp"
    [
      ( "correctness",
        [
          Alcotest.test_case "all queues (sim)" `Slow test_sim_all_queues;
          Alcotest.test_case "thread counts (sim)" `Slow test_sim_thread_counts;
          Alcotest.test_case "real domains" `Slow test_real_domains;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "grid" `Quick test_grid_graph;
          Alcotest.test_case "rmat" `Quick test_rmat_graph;
          Alcotest.test_case "disconnected" `Quick test_disconnected_graph;
          Alcotest.test_case "single node" `Quick test_single_node;
        ] );
      ( "quality",
        [
          Alcotest.test_case "extra iterations vs k" `Slow test_extra_iterations_grow_with_k;
          Alcotest.test_case "stale accounting" `Quick test_stale_counted;
        ] );
      ( "termination",
        [
          Alcotest.test_case "random preemption vs Dijkstra" `Slow test_random_preempt;
          Alcotest.test_case "drop outside a worker" `Quick test_drop_outside_worker;
        ] );
    ]
