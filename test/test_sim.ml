(* Tests for the discrete-event simulator backend: determinism, atomic
   semantics, scheduling fairness, cost accounting, time, exception
   propagation, and the random-preemption schedule fuzzer; plus the real
   backend's clock, which must be monotonic. *)

open Helpers
module Sim = Klsm_backend.Sim
module Cost_model = Klsm_backend.Cost_model

let reset () = Sim.configure ~seed:1 ~cost:Cost_model.default ~policy:Sim.Fair ()

(* ---------------- basic execution ---------------- *)

let test_runs_all_threads () =
  reset ();
  let ran = Array.make 8 false in
  Sim.parallel_run ~num_threads:8 (fun tid -> ran.(tid) <- true);
  check_bool "all ran" true (Array.for_all Fun.id ran)

let test_single_thread () =
  reset ();
  let x = ref 0 in
  Sim.parallel_run ~num_threads:1 (fun _ -> x := 42);
  check_int "ran" 42 !x

let test_num_threads_validation () =
  Alcotest.check_raises "zero threads"
    (Invalid_argument "Sim.parallel_run: num_threads < 1") (fun () ->
      Sim.parallel_run ~num_threads:0 (fun _ -> ()))

(* ---------------- atomics ---------------- *)

let test_fetch_and_add_exact () =
  reset ();
  let c = Sim.make 0 in
  Sim.parallel_run ~num_threads:10 (fun _ ->
      for _ = 1 to 1000 do
        ignore (Sim.fetch_and_add c 1)
      done);
  check_int "exact sum" 10_000 (Sim.get c)

let test_cas_mutual_exclusion () =
  reset ();
  (* A CAS-based lock-free counter: read-modify-write via CAS retry. *)
  let c = Sim.make 0 in
  Sim.parallel_run ~num_threads:8 (fun _ ->
      for _ = 1 to 500 do
        let rec bump () =
          let v = Sim.get c in
          if not (Sim.compare_and_set c v (v + 1)) then bump ()
        in
        bump ()
      done);
  check_int "no lost updates" 4_000 (Sim.get c)

let test_racy_increment_loses_updates () =
  (* The canonical race: get + set is NOT atomic; the simulator must be
     able to interleave between them and lose updates (demonstrating it
     explores real interleavings). *)
  let lost = ref false in
  let seed = ref 0 in
  while (not !lost) && !seed < 50 do
    Sim.configure ~seed:!seed ~policy:(Sim.Random_preempt 0.5) ();
    let c = Sim.make 0 in
    Sim.parallel_run ~num_threads:4 (fun _ ->
        for _ = 1 to 50 do
          Sim.set c (Sim.get c + 1)
        done);
    if Sim.get c < 200 then lost := true;
    incr seed
  done;
  reset ();
  check_bool "a racy schedule was found" true !lost

let test_exchange () =
  reset ();
  let c = Sim.make "a" in
  Sim.parallel_run ~num_threads:1 (fun _ ->
      let old = Sim.exchange c "b" in
      check_bool "old" true (old = "a"));
  check_bool "new" true (Sim.get c = "b")

let test_atomics_outside_run () =
  (* Cost-free plain semantics outside parallel_run. *)
  let c = Sim.make 1 in
  Sim.set c 2;
  check_bool "cas" true (Sim.compare_and_set c 2 3);
  check_int "faa" 3 (Sim.fetch_and_add c 4);
  check_int "value" 7 (Sim.get c)

(* ---------------- determinism ---------------- *)

let run_workload () =
  let c = Sim.make 0 in
  Sim.parallel_run ~num_threads:6 (fun tid ->
      for i = 1 to 200 do
        if i mod (tid + 2) = 0 then ignore (Sim.fetch_and_add c 1)
        else ignore (Sim.get c)
      done);
  (Sim.makespan (), (Sim.stats ()).Sim.switches, Sim.get c)

let test_deterministic_replay () =
  Sim.configure ~seed:7 ~policy:Sim.Fair ();
  let a = run_workload () in
  Sim.configure ~seed:7 ~policy:Sim.Fair ();
  let b = run_workload () in
  check_bool "identical replay" true (a = b)

let test_seed_changes_random_schedule () =
  Sim.configure ~seed:1 ~policy:(Sim.Random_preempt 0.3) ();
  let a = run_workload () in
  Sim.configure ~seed:2 ~policy:(Sim.Random_preempt 0.3) ();
  let b = run_workload () in
  reset ();
  (* Almost surely different switch counts. *)
  let _, sa, _ = a and _, sb, _ = b in
  check_bool "schedules differ" true (sa <> sb)

(* ---------------- time & cost model ---------------- *)

let test_time_advances () =
  reset ();
  let t0 = Sim.time () in
  Sim.parallel_run ~num_threads:2 (fun _ ->
      for _ = 1 to 100 do
        Sim.tick 10
      done);
  let t1 = Sim.time () in
  check_bool "time advanced" true (t1 > t0);
  check_bool "makespan positive" true (Sim.makespan () > 0.)

let test_parallel_speedup_model () =
  (* Independent work on T threads should take ~the same simulated
     makespan as on 1 thread (perfect scaling of independent ticks). *)
  reset ();
  Sim.parallel_run ~num_threads:1 (fun _ -> Sim.tick 100_000);
  let t1 = Sim.makespan () in
  reset ();
  Sim.parallel_run ~num_threads:8 (fun _ -> Sim.tick 100_000);
  let t8 = Sim.makespan () in
  check_bool "independent work scales" true (t8 < t1 *. 1.5)

let test_contention_costs_more () =
  (* Hammering one atomic from 8 threads must cost more per op than from
     one thread (coherence misses). *)
  reset ();
  let c = Sim.make 0 in
  Sim.parallel_run ~num_threads:1 (fun _ ->
      for _ = 1 to 8000 do
        ignore (Sim.fetch_and_add c 1)
      done);
  let t1 = Sim.makespan () in
  reset ();
  let c = Sim.make 0 in
  Sim.parallel_run ~num_threads:8 (fun _ ->
      for _ = 1 to 1000 do
        ignore (Sim.fetch_and_add c 1)
      done);
  let t8 = Sim.makespan () in
  check_bool "contention penalized" true (t8 > t1 *. 2.)

let test_stats_populated () =
  reset ();
  let c = Sim.make 0 in
  Sim.parallel_run ~num_threads:4 (fun _ ->
      for _ = 1 to 100 do
        ignore (Sim.get c);
        Sim.set c 1;
        ignore (Sim.compare_and_set c 1 2);
        Sim.tick 3;
        Sim.cpu_relax ()
      done);
  let st = Sim.stats () in
  check_bool "reads" true (st.Sim.reads >= 400);
  check_bool "writes" true (st.Sim.writes >= 400);
  check_bool "cas" true (st.Sim.cas >= 400);
  check_bool "ticks" true (st.Sim.ticks >= 1200);
  check_bool "hits+misses consistent" true (st.Sim.hits + st.Sim.misses > 0)

(* ---------------- exceptions & nesting ---------------- *)

let test_exception_propagates () =
  reset ();
  let raised =
    try
      Sim.parallel_run ~num_threads:4 (fun tid ->
          if tid = 2 then failwith "boom"
          else
            for _ = 1 to 100 do
              Sim.tick 1
            done);
      false
    with Sim.Thread_failure (2, Failure msg) -> msg = "boom"
  in
  check_bool "failure surfaced with tid" true raised;
  (* The simulator must be reusable afterwards. *)
  let ok = ref false in
  Sim.parallel_run ~num_threads:2 (fun _ -> ok := true);
  check_bool "reusable" true !ok

let test_nested_run_rejected () =
  reset ();
  let rejected = ref false in
  Sim.parallel_run ~num_threads:1 (fun _ ->
      match Sim.parallel_run ~num_threads:1 (fun _ -> ()) with
      | () -> ()
      | exception Failure _ -> rejected := true);
  check_bool "nested rejected" true !rejected

let test_yield_voluntary () =
  reset ();
  (* Two fibers ping-pong via yields; both must finish. *)
  let log = ref [] in
  Sim.parallel_run ~num_threads:2 (fun tid ->
      for i = 1 to 3 do
        log := (tid, i) :: !log;
        Sim.yield ()
      done);
  check_int "six events" 6 (List.length !log)

let test_relax_n_charges_batch () =
  (* relax_n n must cost ~n times one cpu_relax (single event, same total
     virtual time up to jitter). *)
  reset ();
  Sim.parallel_run ~num_threads:1 (fun _ ->
      for _ = 1 to 100 do
        Sim.relax_n 512
      done);
  let batched = Sim.makespan () in
  reset ();
  Sim.parallel_run ~num_threads:1 (fun _ ->
      for _ = 1 to 51_200 do
        Sim.cpu_relax ()
      done);
  let singles = Sim.makespan () in
  check_bool "same order of magnitude" true
    (batched > singles *. 0.8 && batched < singles *. 1.2)

(* ---------------- trace ---------------- *)

let test_trace_records_events () =
  reset ();
  Sim.set_trace 100;
  let c = Sim.make 0 in
  Sim.parallel_run ~num_threads:2 (fun _ ->
      for _ = 1 to 5 do
        ignore (Sim.fetch_and_add c 1);
        ignore (Sim.get c)
      done);
  let events = Sim.dump_trace () in
  Sim.set_trace 0;
  check_bool "events recorded" true (List.length events = 20);
  check_bool "virtual times non-negative" true
    (List.for_all (fun e -> e.Sim.tr_at >= 0.) events);
  check_bool "both tids appear" true
    (List.exists (fun e -> e.Sim.tr_tid = 0) events
    && List.exists (fun e -> e.Sim.tr_tid = 1) events);
  check_bool "kinds include faa and read" true
    (List.exists (fun e -> e.Sim.tr_kind = Sim.T_faa) events
    && List.exists (fun e -> e.Sim.tr_kind = Sim.T_read) events)

let test_trace_ring_overwrites () =
  reset ();
  Sim.set_trace 8;
  let c = Sim.make 0 in
  Sim.parallel_run ~num_threads:1 (fun _ ->
      for _ = 1 to 100 do
        Sim.set c 1
      done);
  let events = Sim.dump_trace () in
  Sim.set_trace 0;
  check_int "capped at capacity" 8 (List.length events);
  (* Oldest-first ordering by virtual time within one thread. *)
  let sorted =
    List.sort (fun a b -> compare a.Sim.tr_at b.Sim.tr_at) events
  in
  check_bool "chronological" true (events = sorted)

let test_trace_disabled_by_default () =
  reset ();
  Sim.set_trace 0;
  let c = Sim.make 0 in
  Sim.parallel_run ~num_threads:1 (fun _ -> Sim.set c 1);
  check_int "no events" 0 (List.length (Sim.dump_trace ()))

let test_trace_kind_names () =
  Alcotest.(check string) "read" "read" (Sim.kind_name Sim.T_read);
  Alcotest.(check string) "cas-fail" "cas-fail" (Sim.kind_name Sim.T_cas_fail)

(* Real.time reads CLOCK_MONOTONIC: successive reads never decrease, and
   it counts seconds. *)
let test_real_clock_monotonic () =
  let module Real = Klsm_backend.Real in
  let prev = ref (Real.time ()) in
  for _ = 1 to 100_000 do
    let t = Real.time () in
    if t < !prev then Alcotest.failf "clock stepped back: %.9f < %.9f" t !prev;
    prev := t
  done;
  let t0 = Real.time () in
  Unix.sleepf 0.002;
  let dt = Real.time () -. t0 in
  check_bool (Printf.sprintf "a 2 ms sleep reads as %.6f s" dt) true
    (dt >= 0.001 && dt < 1.0)

let () =
  Alcotest.run "sim"
    [
      ( "execution",
        [
          Alcotest.test_case "all threads run" `Quick test_runs_all_threads;
          Alcotest.test_case "single thread" `Quick test_single_thread;
          Alcotest.test_case "validation" `Quick test_num_threads_validation;
        ] );
      ( "atomics",
        [
          Alcotest.test_case "faa exact" `Quick test_fetch_and_add_exact;
          Alcotest.test_case "cas retry counter" `Quick test_cas_mutual_exclusion;
          Alcotest.test_case "racy rmw loses updates" `Quick test_racy_increment_loses_updates;
          Alcotest.test_case "exchange" `Quick test_exchange;
          Alcotest.test_case "outside run" `Quick test_atomics_outside_run;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "replay" `Quick test_deterministic_replay;
          Alcotest.test_case "seeded schedules" `Quick test_seed_changes_random_schedule;
        ] );
      ( "time",
        [
          Alcotest.test_case "advances" `Quick test_time_advances;
          Alcotest.test_case "independent work scales" `Quick test_parallel_speedup_model;
          Alcotest.test_case "contention penalized" `Quick test_contention_costs_more;
          Alcotest.test_case "stats" `Quick test_stats_populated;
          Alcotest.test_case "relax_n batching" `Quick test_relax_n_charges_batch;
          Alcotest.test_case "real clock monotonic" `Quick
            test_real_clock_monotonic;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records events" `Quick test_trace_records_events;
          Alcotest.test_case "ring overwrite" `Quick test_trace_ring_overwrites;
          Alcotest.test_case "disabled" `Quick test_trace_disabled_by_default;
          Alcotest.test_case "kind names" `Quick test_trace_kind_names;
        ] );
      ( "control",
        [
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
          Alcotest.test_case "nested rejected" `Quick test_nested_run_rejected;
          Alcotest.test_case "voluntary yield" `Quick test_yield_voluntary;
        ] );
    ]
