(** Replayable open/closed-loop workload driver for the scheduler — the
    experiment harness entry of lib/sched, sitting next to
    {!Klsm_harness.Throughput}.

    Workers are clients and servers at once: each of the [num_workers]
    threads generates its share of root tasks (priorities drawn from a
    {!Klsm_harness.Workload} distribution, service demands from a
    {!service} distribution) and serves the shared queue.  Two arrival
    regimes:

    - {b closed loop}: a worker submits as fast as admission control
      admits — the in-flight population is pinned at [capacity], the
      classic closed system;
    - {b open loop}: arrivals follow a Poisson process of the given rate
      in backend time, decoupling offered load from service capacity so
      overload behaviour (backpressure, delay growth) is observable.

    Either way a worker's arrival source returns [`Done] after its
    [roots_per_worker] roots; that is how a run stops admitting.

    Tasks optionally spawn children ([spawn_fanout]/[spawn_depth], the
    Pheet pattern), with priorities derived deterministically from the
    parent so the workload replays identically regardless of which worker
    executes what.

    Everything — completion order, makespan, every metric — is a
    deterministic function of (config, spec, simulator seed) under
    [Sim.Fair]; [test/test_sched.ml] asserts exact replay of the discrete
    outcomes (completion order, counters) and makespan equality up to the
    float rounding of the simulator's advancing clock base. *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Registry = Klsm_harness.Registry.Make (B)
  module Workload = Klsm_harness.Workload
  module Task = Task.Make (B)
  module Submitter = Submitter.Make (B)
  module Worker = Worker.Make (B)
  module Xoshiro = Klsm_primitives.Xoshiro
  module Obs = Klsm_obs.Obs

  type arrival_mode =
    | Closed  (** submit as fast as admission control allows *)
    | Open_poisson of float  (** mean arrival rate per worker, tasks/s *)

  type service =
    | Fixed of int  (** every task costs this many work units *)
    | Uniform_work of int  (** uniform in [1, arg] *)
    | Exponential of float  (** exponential with this mean, >= 1 *)

  type config = {
    num_workers : int;
    roots_per_worker : int;
    mode : arrival_mode;
    service : service;
    priorities : Workload.t;  (** key distribution for task priorities *)
    spawn_fanout : int;  (** children per task, 0 = no spawning *)
    spawn_depth : int;  (** spawn recursion depth below each root *)
    fiber_fanout : int;
        (** child fibers forked (and awaited) per task body, 0 = the
            legacy straight-line body.  Each task then runs as
            [1 + fiber_fanout] fibers sharing its service demand, with
            odd-indexed children yielding once mid-work — the knob
            [bin/sched.exe --fibers] sets *)
    batch : int;  (** submitter buffer size *)
    pull : int;
        (** tasks pulled per shared-queue round trip by each worker
            (Worker [~batch]/[~pop_batch]), >= 1: the delete-side
            counterpart of [batch].  The head task starts inline; the rest
            land in the worker's deque as steal-ready fibers.  1 (the
            default) pulls one task per round trip, which on every queue
            is a delete-min *)
    urgency_margin : int;  (** submitter priority-inversion flush margin *)
    capacity : int;  (** admission bound on in-flight tasks *)
    seed : int;
    robust : Worker.robust;
        (** timeout/retry/supervision knobs; {!Worker.default_robust}
            disables them all (the legacy trusting behaviour) *)
  }

  let default_config =
    {
      num_workers = 8;
      roots_per_worker = 250;
      mode = Closed;
      service = Fixed 32;
      priorities = Workload.Uniform (1 lsl 20);
      spawn_fanout = 0;
      spawn_depth = 0;
      fiber_fanout = 0;
      batch = 16;
      pull = 1;
      urgency_margin = 512;
      capacity = 4096;
      seed = 42;
      robust = Worker.default_robust;
    }

  (** Tasks ultimately created per root (the spawn tree). *)
  let tasks_per_root cfg =
    if cfg.spawn_fanout <= 0 || cfg.spawn_depth <= 0 then 1
    else begin
      let acc = ref 0 and layer = ref 1 in
      for _ = 0 to cfg.spawn_depth do
        acc := !acc + !layer;
        layer := !layer * cfg.spawn_fanout
      done;
      !acc
    end

  let total_tasks cfg = cfg.num_workers * cfg.roots_per_worker * tasks_per_root cfg

  let service_ticks service rng =
    match service with
    | Fixed n -> max 1 n
    | Uniform_work n -> 1 + Xoshiro.int rng (max 1 n)
    | Exponential mean ->
        max 1 (int_of_float (-.mean *. log (1.0 -. Xoshiro.float rng)))

  (* The task body: consume [ticks] units of (virtual) service time —
     straight-line, or exploded into a fiber tree when [fiber_fanout] > 0 —
     then spawn the next layer of the task tree.  Child priorities and
     demands derive only from the parent's, and fibers are forked and
     awaited in a fixed order, so the workload replays identically
     regardless of which worker (or thief) executes what. *)
  let rec make_body cfg ~depth ~priority ~ticks =
    Task.Body
      (fun api ->
        if cfg.fiber_fanout > 0 then begin
          (* Fork the children in index order, then join them in index
             order and check each value, so a mis-routed resumption
             cannot go unnoticed.  Odd children yield once mid-work to
             exercise the suspend/requeue/steal surface. *)
          let share = max 1 (ticks / cfg.fiber_fanout) in
          let kids =
            let rec build i acc =
              if i >= cfg.fiber_fanout then List.rev acc
              else
                let kid =
                  api.Task.fork (fun () ->
                      if i land 1 = 1 then api.Task.yield ();
                      B.tick share;
                      priority + i)
                in
                build (i + 1) (kid :: acc)
            in
            build 0 []
          in
          List.iteri
            (fun i f ->
              if api.Task.await f <> priority + i then
                failwith "Closed_loop: fiber tree joined to the wrong value")
            kids
        end
        else B.tick ticks;
        if depth > 0 then
          for i = 1 to cfg.spawn_fanout do
            let child_priority = priority + i in
            api.Task.spawn ~priority:child_priority
              (make_body cfg ~depth:(depth - 1) ~priority:child_priority
                 ~ticks:(max 1 (ticks / 2)))
          done)

  type result = {
    spec : Registry.spec;
    config : config;
    total_tasks : int;
    makespan : float;  (** wall (real) or virtual (sim) seconds *)
    throughput : float;  (** completed tasks per second *)
    completion_order : int array;  (** task ids, execution-finish order *)
    metrics : Metrics.summary;
    peak_inflight : int;
    lost : int;
        (** allocated tasks that reached no terminal state (neither
            [Completed] nor [Dead]); must be 0 — even under faults *)
    double : int;
        (** tasks delivered more than once.  Must be 0 in a fault-free
            run; under fault injection re-deliveries are expected (and
            harmless — the lease CAS blocks double {e execution}, which
            the completion-log permutation check still asserts) *)
    dead_lettered : int;
        (** tasks whose status is [Dead]: they timed out of all their
            retries *)
    gave_up : bool;  (** the run hit [robust.run_deadline]; must be false *)
    fiber_lost : int;
        (** fibers created minus fiber thunks finished, summed over
            workers — the per-fiber exactly-once audit.  Must be 0 in a
            fault-free run; under injected crashes a positive value is
            the expected signature of fibers that died with their worker
            (the task-level lease machinery re-ran them) *)
    queue_stats : Obs.snapshot;
        (** the queue's internal counters (Pq_intf.stats; lib/obs) *)
    sched_stats : Obs.snapshot;
        (** the scheduling layer's [sched.*] counters; both snapshots are
            empty unless observability was enabled before the run *)
  }

  let run config spec =
    if config.num_workers < 1 then invalid_arg "Closed_loop.run: num_workers";
    if config.roots_per_worker < 0 then
      invalid_arg "Closed_loop.run: roots_per_worker";
    if config.pull < 1 then invalid_arg "Closed_loop.run: pull < 1";
    let total = total_tasks config in
    let instance =
      Registry.make ~seed:config.seed ~num_threads:config.num_workers spec
    in
    let pool =
      Worker.create_pool ~robust:config.robust ~max_tasks:(max 1 total)
        ~num_workers:config.num_workers ()
    in
    let metrics = Metrics.create ~num_workers:config.num_workers in
    let sub_cfg =
      {
        Submitter.batch = config.batch;
        urgency_margin = config.urgency_margin;
        capacity = config.capacity;
      }
    in
    let sched_obs =
      Obs.create_sheet ~now:B.time ~num_threads:config.num_workers ()
    in
    let t0 = B.time () in
    B.parallel_run ~num_threads:config.num_workers (fun tid ->
        let h = instance.Registry.register tid in
        let sub =
          Submitter.create ~cfg:sub_cfg ~inflight:pool.Worker.inflight
            ~enqueue_batch:h.Registry.insert_batch ()
        in
        let obs = Obs.handle sched_obs ~tid in
        let ctx =
          Worker.make_ctx ~obs ~steal_seed:(config.seed + (6271 * tid))
            ~batch:config.pull
            ~pop_batch:h.Registry.try_delete_min_batch ~pool ~tid ~sub
            ~pop:h.Registry.try_delete_min ~metrics:metrics.(tid) ()
        in
        let rng = Xoshiro.create ~seed:(config.seed + (7919 * tid)) in
        let next_priority = Workload.generator config.priorities rng in
        let service_rng = Xoshiro.split rng in
        let arrival_rng = Xoshiro.split rng in
        let remaining = ref config.roots_per_worker in
        let next_arrival = ref (B.time ()) in
        let fresh_root () =
          decr remaining;
          let priority = next_priority () in
          let ticks = service_ticks config.service service_rng in
          `Submit
            (priority, make_body config ~depth:config.spawn_depth ~priority ~ticks)
        in
        let arrivals () =
          if !remaining <= 0 then `Done
          else
            match config.mode with
            | Closed -> fresh_root ()
            | Open_poisson rate ->
                if B.time () >= !next_arrival then begin
                  let gap =
                    -.log (1.0 -. Xoshiro.float arrival_rng) /. rate
                  in
                  next_arrival := !next_arrival +. gap;
                  fresh_root ()
                end
                else `Wait
        in
        (* Decorrelated idle backoff on the real backend; the simulator
           keeps the deterministic doubling path so same-seed replays stay
           byte-identical (see Backoff). *)
        let jitter =
          if B.name = "sim" then None
          else Some (Xoshiro.create ~seed:(config.seed + (104729 * tid)))
        in
        Worker.run ?jitter ctx ~arrivals;
        (* Fold the submitter's private counters into this worker's metrics
           record (they are separate objects so the submitter stays
           harness-agnostic). *)
        let w = metrics.(tid) in
        w.Metrics.flushes <- w.Metrics.flushes + sub.Submitter.flushes;
        w.Metrics.urgent_flushes <-
          w.Metrics.urgent_flushes + sub.Submitter.urgent_flushes;
        Obs.add obs Worker.c_flush sub.Submitter.flushes;
        Obs.add obs Worker.c_urgent_flush sub.Submitter.urgent_flushes);
    let makespan = B.time () -. t0 in
    (* Post-run audit: every allocated task must have reached a terminal
       state — [Completed] exactly once, or [Dead].
       [claim_count > 1] means an id was delivered twice: a conservation
       bug in a fault-free run, the expected recovery signature under
       injected faults (the lease CAS stopped any double execution either
       way). *)
    let table = Array.length pool.Worker.tasks in
    let allocated = min (B.get pool.Worker.next_id) table in
    let lost = ref 0 and double = ref 0 and dead = ref 0 in
    for id = 0 to allocated - 1 do
      match B.get pool.Worker.tasks.(id) with
      | None -> incr lost
      | Some task ->
          (match Task.status task with
          | Task.Completed -> ()
          | Task.Dead -> incr dead
          | _ -> incr lost);
          if Task.claim_count task > 1 then incr double
    done;
    let summary = Metrics.summarize metrics in
    {
      spec;
      config;
      total_tasks = allocated;
      makespan;
      throughput =
        (if makespan > 0.0 then float_of_int allocated /. makespan
         else Float.nan);
      completion_order = Worker.completion_log pool;
      metrics = summary;
      peak_inflight = Worker.peak_inflight pool;
      lost = !lost;
      (* [claims] counts every delivery attempt, so the scan above already
         covers ids that lost a lease race — adding [double_claims] on top
         would count those deliveries twice. *)
      double = !double;
      dead_lettered = !dead;
      gave_up = Worker.gave_up pool;
      fiber_lost = summary.Metrics.fibers - summary.Metrics.fibers_completed;
      queue_stats = instance.Registry.stats ();
      sched_stats = Obs.snapshot sched_obs;
    }
end
