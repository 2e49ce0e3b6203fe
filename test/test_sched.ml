(* Tests for the task-scheduling runtime (lib/sched).

   The two load-bearing properties:

   - determinism: on the simulator under the Fair policy, a (config, spec,
     seed) triple fully determines the run — same completion order, same
     makespan, byte-identical metrics on replay;
   - exactly-once: under randomized preemption schedules (many seeds, 8
     virtual threads) no submitted task is lost or executed twice, with
     and without task-spawning-tasks, across queue implementations.

   Plus unit tests for the submitter's batching/urgent-flush/admission
   machinery and task construction (on the Real backend — they are
   single-threaded and need no simulated schedule), except the test that
   a refused admission writes nothing, which reads Sim's access counts. *)

module Sim = Klsm_backend.Sim
module Real = Klsm_backend.Real
module CL = Klsm_sched.Closed_loop.Make (Sim)
module M = Klsm_sched.Metrics

(* ---------------- helpers ---------------- *)

let base_config =
  {
    CL.default_config with
    num_workers = 8;
    roots_per_worker = 30;
    service = CL.Fixed 16;
    priorities = Klsm_harness.Workload.Uniform 10_000;
    batch = 4;
  }

(* The simulated schedule is exactly reproducible, but [makespan] is
   computed as [(base +. m) -. base] against the simulator's global clock,
   whose base advances between runs — so replayed makespans agree only up
   to float-rounding of that subtraction.  Everything discrete (completion
   order, counters) is compared exactly. *)
let check_makespan name a b = Alcotest.(check (float 1e-9)) name a b

(* The completion log must be a permutation of 0 .. total-1: every task id
   appears exactly once (delivered, claimed, executed, logged). *)
let check_permutation name (r : CL.result) =
  Alcotest.(check int)
    (name ^ ": log length") r.CL.total_tasks
    (Array.length r.CL.completion_order);
  let seen = Array.make r.CL.total_tasks 0 in
  Array.iter
    (fun id ->
      if id < 0 || id >= r.CL.total_tasks then
        Alcotest.failf "%s: bogus id %d in completion log" name id;
      seen.(id) <- seen.(id) + 1)
    r.CL.completion_order;
  Array.iteri
    (fun id c ->
      if c <> 1 then Alcotest.failf "%s: task %d logged %d times" name id c)
    seen

let check_conserving name (r : CL.result) =
  Alcotest.(check (pair int int)) (name ^ ": lost/double") (0, 0)
    (r.CL.lost, r.CL.double);
  check_permutation name r

(* ---------------- determinism under Sim Fair ---------------- *)

let run_fair ~seed config spec =
  Sim.configure ~seed ~policy:Sim.Fair ();
  CL.run { config with CL.seed } spec

let test_determinism_fair () =
  List.iter
    (fun spec ->
      let name = CL.Registry.spec_name spec in
      let a = run_fair ~seed:42 base_config spec in
      let b = run_fair ~seed:42 base_config spec in
      check_conserving name a;
      Alcotest.(check (array int))
        (name ^ ": same completion order") a.CL.completion_order
        b.CL.completion_order;
      check_makespan (name ^ ": same makespan") a.CL.makespan b.CL.makespan;
      Alcotest.(check int)
        (name ^ ": same flush count") a.CL.metrics.M.flushes
        b.CL.metrics.M.flushes;
      (* ... and a different seed gives a genuinely different run (sanity
         check that determinism is not degeneracy). *)
      let c = run_fair ~seed:43 base_config spec in
      if
        a.CL.completion_order = c.CL.completion_order
        && a.CL.makespan = c.CL.makespan
      then Alcotest.failf "%s: seed 42 and 43 produced identical runs" name)
    [ CL.Registry.Klsm 16; CL.Registry.Multiq 2; CL.Registry.Linden ]

let test_determinism_fair_with_spawns () =
  let config =
    { base_config with CL.spawn_fanout = 2; spawn_depth = 2; batch = 3 }
  in
  let spec = CL.Registry.Klsm 64 in
  let a = run_fair ~seed:7 config spec in
  let b = run_fair ~seed:7 config spec in
  Alcotest.(check int)
    "spawn tree size" (CL.total_tasks config) a.CL.total_tasks;
  check_conserving "spawns" a;
  Alcotest.(check (array int))
    "same completion order (spawns)" a.CL.completion_order
    b.CL.completion_order;
  check_makespan "same makespan (spawns)" a.CL.makespan b.CL.makespan

(* ---------------- exactly-once under random preemption ---------------- *)

let test_exactly_once_fuzzed () =
  (* >= 32 schedules at 8 virtual threads: no task lost, none executed
     twice, whatever the preemption pattern does to the queue, the
     submitter buffers, and the claim races. *)
  let config = { base_config with CL.roots_per_worker = 15 } in
  for seed = 1 to 32 do
    Sim.configure ~seed ~policy:(Sim.Random_preempt 0.25) ();
    let r = CL.run { config with CL.seed } (CL.Registry.Klsm 8) in
    check_conserving (Printf.sprintf "klsm(8) seed %d" seed) r
  done;
  Sim.configure ~policy:Sim.Fair ()

let test_exactly_once_fuzzed_spawns_and_queues () =
  (* Fewer seeds but the harder shapes: spawning tasks, other queues, a
     tight admission bound that keeps the backpressure path hot. *)
  let config =
    {
      base_config with
      CL.roots_per_worker = 8;
      spawn_fanout = 2;
      spawn_depth = 1;
      capacity = 16;
    }
  in
  List.iter
    (fun spec ->
      for seed = 33 to 40 do
        Sim.configure ~seed ~policy:(Sim.Random_preempt 0.3) ();
        let r = CL.run { config with CL.seed } spec in
        let name =
          Printf.sprintf "%s seed %d" (CL.Registry.spec_name spec) seed
        in
        check_conserving name r;
        (* Spawns push the counter past capacity while roots race to
           admit: an admission that trusted its read alone would land
           above the bound here. *)
        if r.CL.peak_inflight > config.CL.capacity then
          Alcotest.failf "%s: peak in-flight %d exceeds capacity %d" name
            r.CL.peak_inflight config.CL.capacity
      done)
    [ CL.Registry.Klsm 4; CL.Registry.Dlsm; CL.Registry.Multiq 2 ];
  Sim.configure ~policy:Sim.Fair ()

let test_open_loop_conserves () =
  let config =
    {
      base_config with
      CL.mode = CL.Open_poisson 100_000.0;
      roots_per_worker = 20;
    }
  in
  let r = run_fair ~seed:5 config (CL.Registry.Klsm 16) in
  check_conserving "open loop" r;
  let r2 = run_fair ~seed:5 config (CL.Registry.Klsm 16) in
  Alcotest.(check (array int))
    "open loop deterministic" r.CL.completion_order r2.CL.completion_order

let test_backpressure_bounds_inflight () =
  let config = { base_config with CL.capacity = 8; roots_per_worker = 50 } in
  let r = run_fair ~seed:11 config (CL.Registry.Klsm 16) in
  check_conserving "bounded" r;
  if r.CL.peak_inflight > 8 then
    Alcotest.failf "peak in-flight %d exceeds capacity 8" r.CL.peak_inflight;
  if r.CL.metrics.M.rejected = 0 then
    Alcotest.fail "capacity 8 under 400 tasks never triggered backpressure"

(* ---------------- admission: release-driven retries ---------------- *)

let check_peak name (r : CL.result) =
  if r.CL.peak_inflight > r.CL.config.CL.capacity then
    Alcotest.failf "%s: peak in-flight %d exceeds capacity %d" name
      r.CL.peak_inflight r.CL.config.CL.capacity

let test_refusals_per_root () =
  (* The sched-fibers twin's closed loop, as [bin/sched.exe --queue
     klsm-sharded:256:4 --threads 8 --tasks 300 --fibers 3 --fanout 2
     --depth 1 --capacity 64] runs it.  A refused root waits until its own
     worker freed a slot or ran dry, so refusals stay a small multiple of
     admissions; retried on every serve step it was refused 13.7 times
     per root. *)
  let config =
    {
      CL.default_config with
      num_workers = 8;
      roots_per_worker = 300;
      fiber_fanout = 3;
      spawn_fanout = 2;
      spawn_depth = 1;
      capacity = 64;
    }
  in
  let r = run_fair ~seed:1 config (CL.Registry.klsm_sharded 256 4) in
  check_conserving "twin" r;
  check_peak "twin" r;
  let m = r.CL.metrics in
  Alcotest.(check int) "every root admitted" (8 * 300) m.M.submitted;
  if m.M.rejected > 2 * m.M.submitted then
    Alcotest.failf "%d refusals for %d admitted roots (%.1f per root)"
      m.M.rejected m.M.submitted
      (float_of_int m.M.rejected /. float_of_int m.M.submitted)

let test_capacity_one_terminates () =
  (* One slot: a release that only brings the count back to capacity
     (spawns are forced past it) frees nothing, so most refused roots wait
     for a dry round, and a worker that seals a task retries at once.
     Every root must still get in and every task resolve, under the fair
     schedule and under random preemption. *)
  let config =
    {
      base_config with
      CL.num_workers = 4;
      roots_per_worker = 12;
      fiber_fanout = 2;
      spawn_fanout = 1;
      spawn_depth = 1;
      capacity = 1;
    }
  in
  let spec = CL.Registry.Klsm 8 in
  let check name r =
    check_conserving name r;
    check_peak name r;
    Alcotest.(check int) (name ^ ": all tasks") (CL.total_tasks config)
      r.CL.total_tasks
  in
  check "fair" (run_fair ~seed:3 config spec);
  for seed = 1 to 16 do
    Sim.configure ~seed ~policy:(Sim.Random_preempt 0.25) ();
    check
      (Printf.sprintf "preempt seed %d" seed)
      (CL.run { config with CL.seed } spec)
  done;
  Sim.configure ~policy:Sim.Fair ()

let test_dead_letters_free_waiting_roots () =
  (* Leases shorter than a task's service: the supervising sweep of an
     idle worker declares running tasks [Dead] and gives their slots back
     while roots wait at capacity 2.  Every root must get in and every
     task end [Completed] or [Dead]; the run deadline turns a waiting
     root that is never retried into a failure instead of a hang. *)
  let config =
    {
      base_config with
      CL.num_workers = 4;
      roots_per_worker = 10;
      service = CL.Fixed 2_000;
      capacity = 2;
      robust =
        {
          CL.Worker.default_robust with
          lease = 1e-6;
          run_deadline = 1e-2;
        };
    }
  in
  let r = run_fair ~seed:5 config (CL.Registry.Klsm 8) in
  Alcotest.(check bool) "no give-up" false r.CL.gave_up;
  Alcotest.(check int) "lost" 0 r.CL.lost;
  check_peak "dead letters" r;
  Alcotest.(check int) "all tasks" (CL.total_tasks config) r.CL.total_tasks;
  Alcotest.(check int) "completed + dead" r.CL.total_tasks
    (Array.length r.CL.completion_order + r.CL.dead_lettered);
  if r.CL.dead_lettered = 0 then Alcotest.fail "no task was dead-lettered";
  if r.CL.metrics.M.rejected = 0 then Alcotest.fail "no root ever waited"

(* ---------------- fibers: determinism, depth, starvation -------------- *)

let test_fiber_steal_determinism_fuzzed () =
  (* 32 randomized preemption schedules with fibered bodies: forks land
     on deques, thieves steal them, yields requeue them — and the whole
     steal schedule must still replay byte-identically from the seed
     (victims come from per-worker seeded streams, Sim preemption from
     the configured seed). *)
  let config =
    {
      base_config with
      CL.num_workers = 4;
      roots_per_worker = 6;
      fiber_fanout = 3;
      service = CL.Fixed 24;
    }
  in
  let spec = CL.Registry.Klsm 8 in
  for seed = 1 to 32 do
    let go () =
      Sim.configure ~seed ~policy:(Sim.Random_preempt 0.25) ();
      CL.run { config with CL.seed } spec
    in
    let a = go () in
    let b = go () in
    let name = Printf.sprintf "fibers seed %d" seed in
    check_conserving name a;
    Alcotest.(check int) (name ^ ": no fiber lost") 0 a.CL.fiber_lost;
    (* every task = 1 root + fiber_fanout forked children *)
    Alcotest.(check int)
      (name ^ ": fiber count")
      (a.CL.total_tasks * (1 + 3))
      a.CL.metrics.M.fibers;
    Alcotest.(check (array int))
      (name ^ ": same completion order") a.CL.completion_order
      b.CL.completion_order;
    Alcotest.(check int)
      (name ^ ": same steal count") a.CL.metrics.M.steals
      b.CL.metrics.M.steals;
    Alcotest.(check int)
      (name ^ ": same suspension count") a.CL.metrics.M.fiber_suspends
      b.CL.metrics.M.fiber_suspends
  done;
  Sim.configure ~policy:Sim.Fair ()

(* A minimal direct-Worker harness for hand-written task bodies (the
   Closed_loop driver only builds its own body shapes): worker 0 submits
   [bodies] in order, everyone serves to exact termination. *)
module W = Klsm_sched.Worker.Make (Sim)

let run_custom_bodies ~num_workers ~seed bodies =
  Sim.configure ~seed ~policy:Sim.Fair ();
  let instance =
    CL.Registry.make ~seed ~num_threads:num_workers (CL.Registry.Klsm 8)
  in
  let pool =
    W.create_pool ~max_tasks:(List.length bodies) ~num_workers ()
  in
  let metrics = M.create ~num_workers in
  Sim.parallel_run ~num_threads:num_workers (fun tid ->
      let h = instance.CL.Registry.register tid in
      let sub =
        W.Submitter.create
          ~cfg:{ W.Submitter.batch = 1; urgency_margin = 1; capacity = max_int }
          ~inflight:pool.W.inflight
          ~enqueue_batch:h.CL.Registry.insert_batch ()
      in
      let ctx =
        W.make_ctx ~pool ~tid ~sub ~pop:h.CL.Registry.try_delete_min
          ~metrics:metrics.(tid) ()
      in
      let todo = ref (if tid = 0 then bodies else []) in
      let arrivals () =
        match !todo with
        | [] -> `Done
        | (priority, body) :: rest ->
            todo := rest;
            `Submit (priority, body)
      in
      W.run ctx ~arrivals);
  (pool, M.summarize metrics)

let test_fiber_tree_depth_1000 () =
  (* A fork/await chain 1000 deep: each fiber forks its successor and
     blocks on it, so the whole tower is parked in Join cells at peak;
     the deepest return unwinds it resumption by resumption, and the sum
     must come back intact. *)
  let depth = 1000 in
  let result = ref (-1) in
  let body =
    W.Task.Body
      (fun api ->
        let rec chain d =
          if d = 0 then 0
          else 1 + api.W.Task.await (api.W.Task.fork (fun () -> chain (d - 1)))
        in
        result := chain depth)
  in
  let pool, summary = run_custom_bodies ~num_workers:2 ~seed:3 [ (5, body) ] in
  Alcotest.(check int) "chain joined to the right value" depth !result;
  Alcotest.(check int) "task completed" 1 (W.completed_count pool);
  Alcotest.(check int) "all fibers finished" (depth + 1) summary.M.fibers_completed;
  Alcotest.(check int) "fibers = root + chain" (depth + 1) summary.M.fibers;
  (* every await but the last-instant ones must actually have parked *)
  if summary.M.fiber_suspends < depth / 2 then
    Alcotest.failf "only %d suspensions across a %d-deep chain"
      summary.M.fiber_suspends depth

(* One worker, one pull: [tasks] (priority, body) are published as
   admitted, as [inject]'s callers do, under ids 0, 1, ...; the stub
   [pop_batch] returns [pulled] once, then nothing. *)
let run_one_pull ~batch tasks pulled =
  Sim.configure ~seed:1 ~policy:Sim.Fair ();
  let pool =
    W.create_pool ~max_tasks:(List.length tasks) ~num_workers:1 ()
  in
  List.iteri
    (fun id (p, body) ->
      Sim.set pool.W.tasks.(id)
        (Some (W.Task.make ~id ~priority:p ~now:0. body));
      ignore (Sim.fetch_and_add pool.W.inflight 1))
    tasks;
  let pending = ref pulled in
  let pop_batch n =
    Alcotest.(check int) "pull size" batch n;
    let l = !pending in
    pending := [];
    l
  in
  let metrics = M.create ~num_workers:1 in
  Sim.parallel_run ~num_threads:1 (fun tid ->
      let sub =
        W.Submitter.create ~inflight:pool.W.inflight ~enqueue_batch:ignore ()
      in
      let ctx =
        W.make_ctx ~pool ~tid ~sub ~batch ~pop_batch
          ~pop:(fun () -> None)
          ~metrics:metrics.(tid) ()
      in
      W.run ctx ~arrivals:(fun () -> `Done));
  (pool, M.summarize metrics)

let test_batch_starts_most_urgent () =
  (* A pulled batch comes back in deletion order, which under concurrency
     need not be key order: the worker must start the most urgent task
     first whatever order [pop_batch] returns. *)
  let prios = [ 5; 3; 9 ] in
  let started = ref [] in
  let task p = (p, W.Task.fn (fun () -> started := p :: !started)) in
  let pool, _ =
    run_one_pull ~batch:3 (List.map task prios)
      (List.mapi (fun id p -> (p, id)) prios)
  in
  Alcotest.(check (list int)) "start order" [ 3; 5; 9 ] (List.rev !started);
  Alcotest.(check int) "all completed" 3 (W.completed_count pool)

let test_double_delivery_in_one_pull () =
  (* One pull that delivers the same id twice: the head starts inline and
     wins the lease, the deferred copy loses it when its fiber runs.  Both
     starts go through the one lease path, so the task runs once, the loss
     is counted, and the deferred fiber still balances the fiber audit. *)
  let runs = ref 0 in
  let _, m =
    run_one_pull ~batch:2
      [ (5, W.Task.fn (fun () -> incr runs)) ]
      [ (5, 0); (5, 0) ]
  in
  Alcotest.(check int) "body ran once" 1 !runs;
  Alcotest.(check int) "executed once" 1 m.M.executed;
  Alcotest.(check int) "one lost lease" 1 m.M.double_claims;
  Alcotest.(check int) "fibers balance" m.M.fibers m.M.fibers_completed;
  Alcotest.(check int) "root and deferred copy" 2 m.M.fibers

let test_fiber_hog_cannot_stall_drain () =
  (* One hog fiber burning 200k ticks without yielding must not stall
     queue drain: with a second worker serving, every quick task (16
     ticks each) completes, and the hog — submitted first and most
     urgent, so it is picked up first — seals last. *)
  let quick = 16 in
  let hog =
    W.Task.Body
      (fun api ->
        let f =
          api.W.Task.fork (fun () ->
              Sim.tick 200_000;
              ())
        in
        api.W.Task.await f)
  in
  let bodies =
    (0, hog)
    :: List.init quick (fun i -> (100 + i, W.Task.fn (fun () -> Sim.tick 16)))
  in
  let pool, _ = run_custom_bodies ~num_workers:2 ~seed:9 bodies in
  Alcotest.(check int) "everything completed" (quick + 1)
    (W.completed_count pool);
  let log = W.completion_log pool in
  Alcotest.(check int) "log complete" (quick + 1) (Array.length log);
  Alcotest.(check int) "hog (id 0) sealed last" 0 (log.(Array.length log - 1))

(* ---------------- deque unit tests (Real atomics) ---------------- *)

module Dq = Klsm_primitives.Deque.Make (struct
  type 'a t = 'a Atomic.t

  let make = Atomic.make
  let get = Atomic.get
  let set = Atomic.set
  let compare_and_set = Atomic.compare_and_set
end)

let test_deque_lifo_fifo () =
  let d = Dq.create ~capacity:2 () in
  (* capacity 2 forces several buffer growths *)
  for i = 1 to 100 do
    Dq.push d i
  done;
  Alcotest.(check int) "size" 100 (Dq.size d);
  (match Dq.steal d with
  | `Stolen v -> Alcotest.(check int) "steal takes the oldest" 1 v
  | _ -> Alcotest.fail "steal on non-empty deque");
  (match Dq.steal d with
  | `Stolen v -> Alcotest.(check int) "steal is FIFO" 2 v
  | _ -> Alcotest.fail "second steal");
  Alcotest.(check (option int)) "pop takes the newest" (Some 100) (Dq.pop d);
  Alcotest.(check (option int)) "pop is LIFO" (Some 99) (Dq.pop d);
  (* drain the middle from both ends *)
  let popped = ref 0 and stolen = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match Dq.pop d with
    | Some _ -> incr popped
    | None -> (
        match Dq.steal d with
        | `Stolen _ -> incr stolen
        | `Race -> ()
        | `Empty -> continue_ := false)
  done;
  Alcotest.(check int) "conservation" 96 (!popped + !stolen);
  Alcotest.(check (option int)) "empty pop" None (Dq.pop d);
  (match Dq.steal d with
  | `Empty -> ()
  | _ -> Alcotest.fail "empty steal")

(* ---------------- submitter unit tests (Real backend) ---------------- *)

module Sub = Klsm_sched.Submitter.Make (Real)

let make_sub ?(batch = 4) ?(margin = 10) ?(capacity = max_int) () =
  let batches = ref [] in
  let sub =
    Sub.create
      ~cfg:{ Sub.batch; urgency_margin = margin; capacity }
      ~inflight:(Real.make 0)
      ~enqueue_batch:(fun pairs -> batches := pairs :: !batches)
      ()
  in
  (sub, batches)

let test_submitter_batches () =
  let sub, batches = make_sub ~batch:4 () in
  for i = 1 to 3 do
    Sub.push sub ~priority:(100 * i) ~id:i
  done;
  Alcotest.(check int) "buffered, not flushed" 0 (List.length !batches);
  Sub.push sub ~priority:400 ~id:4;
  Alcotest.(check int) "flushed at batch size" 1 (List.length !batches);
  Alcotest.(check int) "whole buffer in one batch" 4
    (Array.length (List.hd !batches));
  Sub.push sub ~priority:7 ~id:5;
  Sub.flush sub;
  Alcotest.(check int) "manual flush" 2 (List.length !batches);
  Alcotest.(check (list (pair int int)))
    "flush carries the pending pair"
    [ (7, 5) ]
    (Array.to_list (List.hd !batches));
  Sub.flush sub;
  Alcotest.(check int) "empty flush is a no-op" 2 (List.length !batches)

let test_submitter_urgent_flush () =
  let sub, batches = make_sub ~batch:100 ~margin:10 () in
  Sub.push sub ~priority:1_000 ~id:1;
  Sub.push sub ~priority:995 ~id:2;
  (* within the margin of the buffered min: stays buffered *)
  Alcotest.(check int) "near-min priority buffers" 0 (List.length !batches);
  Sub.push sub ~priority:100 ~id:3;
  (* undercuts 995 by more than 10: the whole buffer must go out now *)
  Alcotest.(check int) "urgent task forces flush" 1 (List.length !batches);
  Alcotest.(check int) "urgent flush includes the urgent task" 3
    (Array.length (List.hd !batches));
  Alcotest.(check int) "urgent flush counted" 1 sub.Sub.urgent_flushes

let test_submitter_admission () =
  let sub, _ = make_sub ~capacity:2 () in
  Alcotest.(check (option int)) "admit 1" (Some 1) (Sub.try_admit sub);
  Alcotest.(check (option int)) "admit 2" (Some 2) (Sub.try_admit sub);
  Alcotest.(check (option int)) "reject at capacity" None (Sub.try_admit sub);
  Alcotest.(check int) "inflight unchanged by rejection" 2 (Sub.inflight sub);
  Alcotest.(check bool) "release frees a slot" true (Sub.release sub);
  Alcotest.(check (option int)) "admit after release" (Some 2)
    (Sub.try_admit sub);
  (* spawned children bypass the bound but still count *)
  Sub.admit_spawn sub;
  Alcotest.(check int) "spawn counts in-flight" 3 (Sub.inflight sub);
  (* back down to capacity, not below it: no slot for a refused root *)
  Alcotest.(check bool) "release to capacity frees none" false
    (Sub.release sub)

module SimSub = Klsm_sched.Submitter.Make (Sim)

let test_refusal_writes_nothing () =
  (* Admission contends with every release and spawn for the counter's
     line, so a refusal at capacity must cost one read of the shared
     counter and no write to it. *)
  let capacity = 2 in
  let inflight = Sim.make capacity in
  let sub =
    SimSub.create
      ~cfg:{ SimSub.batch = 1; urgency_margin = 0; capacity }
      ~inflight ~enqueue_batch:ignore ()
  in
  let got = ref (Some 0) in
  Sim.parallel_run ~num_threads:1 (fun _ -> got := SimSub.try_admit sub);
  let st = Sim.stats () in
  Alcotest.(check (option int)) "refused at capacity" None !got;
  Alcotest.(check (list int))
    "fetch-and-adds, CAS, writes" [ 0; 0; 0 ]
    [ st.Sim.faa; st.Sim.cas; st.Sim.writes ];
  Alcotest.(check int) "counter untouched" capacity (Sim.get inflight);
  (* Below capacity an admission is one fetch-and-add. *)
  Sim.set inflight (capacity - 1);
  Sim.parallel_run ~num_threads:1 (fun _ -> got := SimSub.try_admit sub);
  Alcotest.(check (option int)) "admitted below capacity" (Some capacity) !got;
  Alcotest.(check int) "one fetch-and-add" 1 (Sim.stats ()).Sim.faa

(* ---------------- task construction (Real backend) ---------------- *)

(* ---------------- give-up ---------------- *)

module Chaos = Klsm_chaos.Chaos

(* A worker that crashes right after leasing a task holds that lease
   forever under the default infinite lease: the task never resolves, so
   the run can never drain.  A finite run deadline must turn that into a
   run that returns with [gave_up] set instead of one that spins forever. *)
let test_run_deadline_gives_up () =
  Sim.configure ~seed:7 ~policy:Sim.Fair ();
  let plan = [ Chaos.rule ~tid:1 "sched.execute.post_lease" Chaos.Crash ] in
  Chaos.install plan;
  let r, crashes =
    Fun.protect ~finally:Chaos.uninstall (fun () ->
        let r =
          CL.run
            {
              base_config with
              num_workers = 4;
              roots_per_worker = 20;
              robust = { CL.Worker.default_robust with run_deadline = 1e-3 };
            }
            (CL.Registry.Klsm 8)
        in
        (r, (Chaos.stats ()).Chaos.crashes))
  in
  Alcotest.(check int) "one worker crashed" 1 crashes;
  Alcotest.(check bool) "gave up" true r.CL.gave_up;
  Alcotest.(check bool) "the crashed worker's task never resolved" true
    (r.CL.lost >= 1)

module T = Klsm_sched.Task.Make (Real)

let test_task_rejects_negative_priority () =
  Alcotest.check_raises "negative priority"
    (Invalid_argument "Task.make: negative priority") (fun () ->
      ignore (T.make ~id:0 ~priority:(-1) ~now:0.0 T.noop))

let () =
  Alcotest.run "sched"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same run (3 queues)" `Quick
            test_determinism_fair;
          Alcotest.test_case "with spawn trees" `Quick
            test_determinism_fair_with_spawns;
          Alcotest.test_case "open loop" `Quick test_open_loop_conserves;
        ] );
      ( "exactly-once",
        [
          Alcotest.test_case "32 fuzzed schedules, 8 threads" `Slow
            test_exactly_once_fuzzed;
          Alcotest.test_case "fuzzed: spawns, queues, tight capacity" `Slow
            test_exactly_once_fuzzed_spawns_and_queues;
          Alcotest.test_case "backpressure bounds in-flight" `Quick
            test_backpressure_bounds_inflight;
          Alcotest.test_case "one id pulled twice runs once" `Quick
            test_double_delivery_in_one_pull;
          Alcotest.test_case "run deadline gives up on a lost lease" `Quick
            test_run_deadline_gives_up;
        ] );
      ( "admission",
        [
          Alcotest.test_case "twin loop: few refusals per root" `Quick
            test_refusals_per_root;
          Alcotest.test_case "capacity 1 terminates (fair, 16 fuzzed)" `Slow
            test_capacity_one_terminates;
          Alcotest.test_case "dead letters free waiting roots" `Quick
            test_dead_letters_free_waiting_roots;
        ] );
      ( "fibers",
        [
          Alcotest.test_case "32 fuzzed steal schedules replay" `Slow
            test_fiber_steal_determinism_fuzzed;
          Alcotest.test_case "fork/await chain 1000 deep" `Quick
            test_fiber_tree_depth_1000;
          Alcotest.test_case "hog fiber cannot stall drain" `Quick
            test_fiber_hog_cannot_stall_drain;
          Alcotest.test_case "pulled batch starts most urgent" `Quick
            test_batch_starts_most_urgent;
        ] );
      ( "deque",
        [ Alcotest.test_case "LIFO pop, FIFO steal" `Quick test_deque_lifo_fifo ] );
      ( "submitter",
        [
          Alcotest.test_case "batch flush" `Quick test_submitter_batches;
          Alcotest.test_case "urgent flush" `Quick test_submitter_urgent_flush;
          Alcotest.test_case "admission control" `Quick
            test_submitter_admission;
          Alcotest.test_case "refusal writes nothing (Sim)" `Quick
            test_refusal_writes_nothing;
        ] );
      ( "task",
        [
          Alcotest.test_case "negative priority rejected" `Quick
            test_task_rejects_negative_priority;
        ] );
    ]
