(** Worker loops: the execution layer of the scheduler, rebuilt on
    fibers and work-stealing deques.

    A pool is one scheduling run's shared state — the task table, the
    in-flight accounting, the completion log, the per-worker
    work-stealing deques, and (when a {!robust} configuration enables
    them) the supervision structures.  Each participating thread builds a
    {!ctx} around its queue handle and runs {!run}, which interleaves
    five duties:

    + admitting new root tasks from an arrival source (with backpressure:
      a rejected arrival is retried after serving, never busy-waited on —
      and with load shedding: a full task table refuses admission with
      [`Overflow] instead of killing the worker);
    + draining its own deque LIFO: every task body runs as the root
      {!Fiber} of its lease attempt, and fibers it forks (plus fibers it
      yields) land on the executing worker's deque, so the cache-hot,
      most-recently-created work is served first without touching the
      shared queue at all;
    + when the deque is dry, stealing FIFO from a random victim's deque —
      the {e oldest} fiber, the one the owner is least likely to come
      back to — {e before} falling back to the shared k-LSM;
    + only then popping a fresh task id from the priority queue and
      leasing it ({!Task.try_lease}).  The shared component alone decides
      {e which task starts next} (so the k-LSM's rank bound still governs
      priority order); the deques only absorb the churn of the short-lived
      fibers a started task explodes into.  With a delete batch configured
      ([make_ctx ~batch ~pop_batch]) that round trip claims a whole run of
      ids at once — one shared-component CAS on the k-LSMs — starting the
      most urgent inline and parking the rest in the deque as immediately
      steal-ready, lease-on-run fibers;
    + {b supervising} (robust mode): on dry rounds the worker heartbeat-
      checks its peers, declares silent ones dead, expires overdue leases
      into parked retries or the dead-letter queue, re-enqueues parked
      tasks whose backoff elapsed, and — after a persistent idle streak —
      re-enqueues [Pending] tasks wholesale.  Re-enqueueing is always
      safe: a duplicate delivery loses the lease CAS and executes nothing.

    {2 Per-fiber exactly-once}

    A lease attempt owns a padded live-fiber counter, starting at 1 for
    the root; [fork] increments it, every fiber decrements it when its
    thunk finishes, and whichever worker drives it to zero {e seals} the
    attempt — the [try_complete] CAS, the completion-log append, the
    in-flight release.  Sealing therefore happens exactly once per task
    even though its fibers ran on many workers, and a crashed worker
    (whose stolen fiber died with it) simply never drives the counter to
    zero: the lease expires and a fresh attempt gets a fresh counter, so
    orphaned fibers of the dead attempt can never double-complete the
    task.

    Termination is exact, not heuristic: a worker exits only when every
    arrival source has finished {e and} the in-flight counter is zero.
    Fibers cannot be stranded by that rule — an unfinished fiber keeps
    its task unsealed, hence in flight, hence some worker serving.

    Determinism: under [Sim.Fair] with a fixed seed the whole loop —
    pops, leases, steals (victims come from a per-worker seeded stream),
    fiber resumptions, completion-log appends — is a deterministic
    function of the virtual schedule, which is what makes same-seed runs
    byte-identical (asserted by [test/test_sched.ml]). *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Task = Task.Make (B)
  module Fiber = Task.Fiber
  module Submitter = Submitter.Make (B)
  module Backoff = Klsm_primitives.Backoff
  module Xoshiro = Klsm_primitives.Xoshiro
  module Padded = Klsm_primitives.Padded
  module Obs = Klsm_obs.Obs

  module Deque = Klsm_primitives.Deque.Make (struct
    type 'a t = 'a B.atomic

    let make = B.make
    let get = B.get
    let set = B.set
    let compare_and_set = B.compare_and_set
  end)

  (* Observability (lib/obs; docs/METRICS.md).  These double the
     always-on {!Metrics} fields into the shared counter namespace so one
     BENCH_stats.json carries queue internals and scheduler behaviour
     side by side; [sched.flush]/[sched.urgent_flush] are folded in from
     the submitter after the run (see {!Closed_loop}).  The fiber-side
     counters [fiber.spawn]/[fiber.suspend]/[fiber.resume] are declared
     in {!Fiber} and incremented here through the executing worker
     ({!cur}). *)
  let c_claim_race = Obs.counter "sched.claim_race"
  let c_empty_pop = Obs.counter "sched.empty_pop"
  let c_reject = Obs.counter "sched.reject"
  let c_execute = Obs.counter "sched.execute"
  let c_flush = Obs.counter "sched.flush"
  let c_urgent_flush = Obs.counter "sched.urgent_flush"
  let c_overflow = Obs.counter "sched.overflow"
  let c_timeout = Obs.counter "sched.timeout"
  let c_retry = Obs.counter "sched.retry"
  let c_reenqueue = Obs.counter "sched.reenqueue"
  let c_dead_letter = Obs.counter "sched.dead_letter"
  let c_late = Obs.counter "sched.late_completion"
  let c_worker_dead = Obs.counter "sched.worker_dead"
  let c_sweep = Obs.counter "sched.sweep"
  let c_steal_attempt = Obs.counter "steal.attempt"
  let c_steal_success = Obs.counter "steal.success"
  let c_steal_fallback = Obs.counter "steal.fallback"

  (** Robustness knobs.  {!default_robust} disables everything (infinite
      leases and deadlines, one attempt), reproducing the trusting
      pre-supervision behaviour byte for byte — the knobs only change a
      run that actually needs them. *)
  type robust = {
    lease : float;  (** per-attempt execution budget, seconds *)
    max_attempts : int;  (** lease attempts before dead-lettering; >= 1 *)
    retry_delay : float;
        (** base retry backoff; attempt [a] parks for [retry_delay *
            2^(a-1)] before re-entering the queue *)
    task_deadline : float;
        (** start-by deadline relative to submission; a task still queued
            past it is dead-lettered instead of executed *)
    liveness_timeout : float;
        (** a worker silent (no heartbeat) for this long is declared dead
            and its arrival source closed *)
    run_deadline : float;
        (** give-up horizon for a whole run, measured from pool creation:
            the progress bound that turns a would-be deadlock into an
            explicit, reportable failure *)
  }

  let default_robust =
    {
      lease = infinity;
      max_attempts = 1;
      retry_delay = 1e-6;
      task_deadline = infinity;
      liveness_timeout = infinity;
      run_deadline = infinity;
    }

  let robust_active rc =
    rc.lease < infinity || rc.task_deadline < infinity
    || rc.liveness_timeout < infinity
    || rc.run_deadline < infinity || rc.max_attempts > 1

  (* Every hot atomic below is cache-line-padded (Padded.copy_as_padded):
     the task-table slots, the admission/termination counters and the
     per-worker lease clocks are the cells every worker hammers, and
     before padding they were allocated back to back — one worker's CAS
     traffic evicted its neighbours' lines. *)
  let patomic v = Padded.copy_as_padded (B.make v)

  type pool = {
    tasks : Task.t option B.atomic array;  (** id -> task; padded slots *)
    next_id : int B.atomic;
    inflight : int B.atomic;  (** admitted - resolved; 0 = drained *)
    peak_inflight : int B.atomic;
    sources_live : int B.atomic;  (** workers still producing arrivals *)
    log : int array;
        (** completion order: task ids in the order execution finished.
            Each slot is written once by the sealing worker; read after
            the run joins. *)
    log_next : int B.atomic;  (** completed tasks: the next log slot *)
    last_started : int B.atomic;  (** priority watermark for slack metric *)
    rc : robust;
    supervised : bool;  (** [robust_active rc], precomputed *)
    created_at : float;  (** backend time at pool creation (run_deadline) *)
    draining : bool B.atomic;  (** graceful shutdown: stop admission *)
    gave_up : bool B.atomic;  (** run_deadline elapsed without completion *)
    beats : float B.atomic array;
        (** per-worker heartbeat timestamps (the lease clocks); padded *)
    source_done : bool B.atomic array;
        (** per-worker "arrival source closed" latch; guards the single
            [sources_live] decrement whether the worker closed it itself
            or a supervisor declared it dead *)
    dead : int list B.atomic;  (** the dead-letter queue (task ids) *)
    deques : Fiber.work Deque.t array;  (** per-worker stealable deques *)
    failure : exn option B.atomic;
        (** first exception to escape a fiber; re-raised by the next
            worker to notice, aborting the run like an un-fibered body
            exception used to *)
    ctxs : ctx option array;
        (** tid -> that worker's context, registered by {!make_ctx}; the
            table behind {!cur} (each slot is written once, by its own
            worker or before the run starts) *)
  }

  and ctx = {
    pool : pool;
    tid : int;
    sub : Submitter.t;
    pop : unit -> (int * int) option;  (** the queue's try_delete_min *)
    pop_batch : int -> (int * int) list;
        (** the queue's try_delete_min_batch; on the k-LSMs one call
            claims a whole run of tasks from the shared component with a
            single CAS (see Shared_klsm.try_pop_batch) *)
    batch : int;
        (** tasks pulled per shared-queue round trip; 1 = the classic
            one-pop serve loop, byte-identical to the pre-batch worker *)
    w : Metrics.worker;
    obs : Obs.handle;
    deque : Fiber.work Deque.t;  (** this worker's own deque *)
    steal_rng : Xoshiro.t;  (** victim selection; seeded for replay *)
    hooks : Fiber.hooks;  (** suspend/resume accounting (see {!hooks_of}) *)
  }

  let create_pool ?(robust = default_robust) ~max_tasks ~num_workers () =
    if max_tasks < 1 then invalid_arg "Worker.create_pool: max_tasks < 1";
    if num_workers < 1 then invalid_arg "Worker.create_pool: num_workers < 1";
    if robust.max_attempts < 1 then
      invalid_arg "Worker.create_pool: max_attempts < 1";
    let now = B.time () in
    {
      tasks = Array.init max_tasks (fun _ -> patomic None);
      next_id = patomic 0;
      inflight = patomic 0;
      peak_inflight = patomic 0;
      sources_live = patomic num_workers;
      log = Array.make max_tasks (-1);
      log_next = patomic 0;
      last_started = patomic 0;
      rc = robust;
      supervised = robust_active robust;
      created_at = now;
      draining = patomic false;
      gave_up = patomic false;
      beats = Array.init num_workers (fun _ -> patomic now);
      source_done = Array.init num_workers (fun _ -> patomic false);
      dead = patomic [];
      deques = Array.init num_workers (fun _ -> Deque.create ());
      failure = patomic None;
      ctxs = Array.make num_workers None;
    }

  let completed_count pool = B.get pool.log_next
  let peak_inflight pool = B.get pool.peak_inflight

  (** Ids in the dead-letter queue (most recent first). *)
  let dead_letters pool = B.get pool.dead

  (** Graceful shutdown: stop admitting new roots.  Workers observe the
      flag, close their arrival sources, finish everything in flight, and
      exit through the normal exact-termination path; {!leftovers} then
      reports what never resolved. *)
  let request_drain pool = B.set pool.draining true

  let draining pool = B.get pool.draining
  let gave_up pool = B.get pool.gave_up

  (** Completion order so far; call after the run for the full log. *)
  let completion_log pool = Array.sub pool.log 0 (B.get pool.log_next)

  (** Post-run report of every task that never reached a terminal state —
      empty after a healthy run or a completed drain. *)
  let leftovers pool =
    let n = min (B.get pool.next_id) (Array.length pool.tasks) in
    let acc = ref [] in
    for id = n - 1 downto 0 do
      match B.get pool.tasks.(id) with
      | None -> ()
      | Some task -> (
          match Task.status task with
          | Task.Completed | Task.Dead -> ()
          | _ -> acc := (id, Task.status_name task) :: !acc)
    done;
    !acc

  (* The worker currently executing, resolved through [B.self ()] (the
     backend's dynamic thread identity) and the pool's registration
     table.  Fibers migrate: a continuation parked by worker A can be
     resumed inline by worker B (whoever finishes the awaited fiber), so
     accounting inside fiber code must bill the worker {e running right
     now}, not the one that created the closure — on the Real backend the
     latter would be a cross-domain mutation of another worker's metrics
     record.  [Domain.DLS] is NOT a valid shortcut here: under Sim every
     virtual worker shares one domain, so a domain-keyed ambient would
     hand one worker's submitter — and with it the strictly per-thread
     k-LSM insertion handle behind it — to a concurrently-running peer,
     corrupting the handle's snapshot state. *)
  let cur pool =
    let tid = B.self () in
    if tid < 0 || tid >= Array.length pool.ctxs then
      failwith "Worker: fiber operation outside a worker loop"
    else
      match pool.ctxs.(tid) with
      | Some c -> c
      | None -> failwith "Worker: fiber operation outside a worker loop"

  (* Suspend/resume accounting callbacks handed to {!Fiber}.  Resolved
     through {!cur} at event time because the suspending/resuming fiber
     may be running on any worker by then. *)
  let hooks_of pool =
    {
      Fiber.on_suspend =
        (fun () ->
          let c = cur pool in
          c.w.Metrics.fiber_suspends <- c.w.Metrics.fiber_suspends + 1;
          Obs.incr c.obs Fiber.c_suspend);
      on_resume =
        (fun () ->
          let c = cur pool in
          c.w.Metrics.fiber_resumes <- c.w.Metrics.fiber_resumes + 1;
          Obs.incr c.obs Fiber.c_resume);
    }

  let make_ctx ?(obs = Obs.null_handle) ?steal_seed ?(batch = 1) ?pop_batch
      ~pool ~tid ~sub ~pop ~metrics () =
    if tid < 0 || tid >= Array.length pool.ctxs then
      invalid_arg "Worker.make_ctx: tid out of range";
    if batch < 1 then invalid_arg "Worker.make_ctx: batch < 1";
    let seed =
      match steal_seed with Some s -> s | None -> 0x9E3779B9 + (6271 * tid)
    in
    let pop_batch =
      match pop_batch with
      | Some f -> f
      | None ->
          (* Queues without a bulk path: the Pq_intf default loop. *)
          fun n ->
            let rec go acc got =
              if got >= n then List.rev acc
              else
                match pop () with
                | Some kv -> go (kv :: acc) (got + 1)
                | None -> List.rev acc
            in
            go [] 0
    in
    let c =
      {
        pool;
        tid;
        sub;
        pop;
        pop_batch;
        batch;
        w = metrics;
        obs;
        deque = pool.deques.(tid);
        steal_rng = Xoshiro.create ~seed;
        hooks = hooks_of pool;
      }
    in
    pool.ctxs.(tid) <- Some c;
    c

  let rec bump_peak pool v =
    let cur = B.get pool.peak_inflight in
    if v > cur && not (B.compare_and_set pool.peak_inflight cur v) then
      bump_peak pool v

  (* Allocate an id, publish the task in the table, then hand the
     (priority, id) pair to the submitter.  Publication MUST precede the
     queue insert: a popped id is looked up in the table immediately.
     [`Overflow] sheds the task instead of the old [failwith]: the caller
     undoes its admission accounting and the burst is survived. *)
  let inject ctx ~priority body =
    let id = B.fetch_and_add ctx.pool.next_id 1 in
    if id >= Array.length ctx.pool.tasks then `Overflow
    else begin
      let now = B.time () in
      let rc = ctx.pool.rc in
      let task =
        Task.make ~id ~priority ~now ~deadline:(now +. rc.task_deadline)
          ~lease:rc.lease body
      in
      B.set ctx.pool.tasks.(id) (Some task);
      Submitter.push ctx.sub ~priority ~id;
      `Ok
    end

  let shed ctx =
    Submitter.release ctx.sub;
    ctx.w.shed <- ctx.w.shed + 1;
    Obs.incr ctx.obs c_overflow

  (** Root submission through admission control.  [`Backpressure] = at
      capacity, the caller should serve the queue and retry; [`Overflow] =
      the task table itself is full, the task was shed (a permanent
      refusal the arrival source must absorb). *)
  let try_submit_root ctx ~priority body =
    match Submitter.try_admit ctx.sub with
    | None ->
        ctx.w.rejected <- ctx.w.rejected + 1;
        Obs.incr ctx.obs c_reject;
        `Backpressure
    | Some now -> (
        bump_peak ctx.pool now;
        match inject ctx ~priority body with
        | `Ok ->
            ctx.w.submitted <- ctx.w.submitted + 1;
            `Admitted
        | `Overflow ->
            shed ctx;
            `Overflow)

  (* Spawn path handed to executing bodies: bypasses the admission bound
     (see Submitter.admit_spawn) but fully participates in accounting and
     batching.  Overflow sheds the child like a root.  Resolves the
     executing worker at call time: the spawning fiber may have migrated
     since it was created. *)
  let spawn_task pool ~priority body =
    let ctx = cur pool in
    Submitter.admit_spawn ctx.sub;
    match inject ctx ~priority body with
    | `Ok -> ctx.w.spawned <- ctx.w.spawned + 1
    | `Overflow -> shed ctx

  (* Move a task whose fate was just sealed as [Dead] to the dead-letter
     queue.  The caller must already own the terminal transition (the
     Task CAS), so each dead task is recorded exactly once. *)
  let rec push_dead pool id =
    let cur = B.get pool.dead in
    if not (B.compare_and_set pool.dead cur (id :: cur)) then push_dead pool id

  let dead_letter ctx (task : Task.t) =
    push_dead ctx.pool task.Task.id;
    Submitter.release ctx.sub;
    ctx.w.dead_letters <- ctx.w.dead_letters + 1;
    Obs.incr ctx.obs c_dead_letter

  (* One lease attempt of one task: the root fiber plus everything it
     forks, sharing a live-fiber counter.  The counter cell is padded —
     it is CASed by every worker that runs one of the attempt's fibers. *)
  type attempt = { task : Task.t; live : int B.atomic; pool : pool }

  let record_failure pool e =
    ignore (B.compare_and_set pool.failure None (Some e))

  (* Seal the attempt whose last fiber just finished: runs on whichever
     worker drove [live] to zero, using pool atomics plus that worker's
     own metrics/obs (the {!cur} read), so it is cross-domain safe. *)
  let seal att =
    let ctx = cur att.pool in
    B.fault_point "sched.execute.pre_complete";
    if Task.try_complete att.task ~now:(B.time ()) then begin
      let slot = B.fetch_and_add ctx.pool.log_next 1 in
      ctx.pool.log.(slot) <- att.task.Task.id;
      Submitter.release ctx.sub;
      ctx.w.executed <- ctx.w.executed + 1;
      Obs.incr ctx.obs c_execute
    end
    else begin
      (* The supervisor sealed this task's fate (re-leased elsewhere or
         dead-lettered) while the attempt ran: the work is done but must
         not be accounted — whoever owns the terminal state did that. *)
      ctx.w.late_completions <- ctx.w.late_completions + 1;
      Obs.incr ctx.obs c_late
    end

  (* A fiber of [att] finished its thunk.  Crash discipline: this is only
     reached on normal return or a non-fatal exception — a killed worker
     unwinds past it, leaving [live] > 0 forever, which is exactly what
     routes the task to lease-expiry recovery instead of a bogus seal. *)
  let fiber_done att =
    let c = cur att.pool in
    c.w.Metrics.fibers_completed <- c.w.Metrics.fibers_completed + 1;
    if B.fetch_and_add att.live (-1) = 1 then seal att

  (* Wrap a fiber thunk with the attempt accounting.  A non-fatal
     exception still counts the fiber as finished (its work is over),
     is recorded as the run's failure — an exception escaping a fiber
     aborts the run, as it did when bodies ran bare — and then re-raised
     so Fiber turns it into [Raise] and waiters are discontinued. *)
  let wrap att th () =
    match th () with
    | v ->
        fiber_done att;
        v
    | exception e when not (Fiber.fatal e) ->
        record_failure att.pool e;
        fiber_done att;
        raise e

  let fork_fiber att th =
    let ctx = cur att.pool in
    ignore (B.fetch_and_add att.live 1);
    let fib = Fiber.create (wrap att th) in
    Deque.push ctx.deque (Fiber.Work fib);
    ctx.w.Metrics.fibers <- ctx.w.Metrics.fibers + 1;
    Obs.incr ctx.obs Fiber.c_spawn;
    fib

  let requeue_here pool w =
    let ctx = cur pool in
    Deque.push ctx.deque w

  (* The capability record a body sees.  Everything resolves the
     executing worker at call time because the calling fiber migrates. *)
  let api_of att =
    let hooks = hooks_of att.pool in
    {
      Task.spawn = (fun ~priority body -> spawn_task att.pool ~priority body);
      fork = (fun th -> fork_fiber att th);
      await = (fun f -> Fiber.await hooks f);
      yield = (fun () -> Fiber.yield hooks ~requeue:(requeue_here att.pool));
    }

  (* Start a freshly-leased task: build the attempt, count the root fiber,
     and run it inline (it parks itself in the deque whenever it blocks). *)
  let execute ctx task ~attempt =
    Metrics.push ctx.w.delays (Task.queueing_delay task);
    let prev = B.exchange ctx.pool.last_started task.Task.priority in
    Metrics.push ctx.w.slacks
      (float_of_int (max 0 (prev - task.Task.priority)));
    if attempt > 1 then begin
      ctx.w.retries <- ctx.w.retries + 1;
      Obs.incr ctx.obs c_retry
    end;
    B.fault_point "sched.execute.post_lease";
    let att = { task; live = patomic 1; pool = ctx.pool } in
    ctx.w.Metrics.fibers <- ctx.w.Metrics.fibers + 1;
    Obs.incr ctx.obs Fiber.c_spawn;
    let root = Fiber.create (wrap att (fun () -> Task.run task (api_of att))) in
    Fiber.run ctx.hooks (Fiber.Work root)

  (* Lease and start one freshly-popped task id on this worker, inline. *)
  let start_one (ctx : ctx) id =
    match B.get ctx.pool.tasks.(id) with
    | None ->
        (* Unreachable with a conserving queue: ids are enqueued only
           after table publication. *)
        ctx.w.double_claims <- ctx.w.double_claims + 1;
        Obs.incr ctx.obs c_claim_race
    | Some task -> (
        match Task.try_lease task ~now:(B.time ()) with
        | Task.Leased attempt -> execute ctx task ~attempt
        | Task.Lost ->
            ctx.w.double_claims <- ctx.w.double_claims + 1;
            Obs.incr ctx.obs c_claim_race
        | Task.Deadline_expired ->
            ctx.w.timeouts <- ctx.w.timeouts + 1;
            Obs.incr ctx.obs c_timeout;
            dead_letter ctx task)

  (* Park a batch-claimed task in the deque as a steal-ready fiber.  The
     LEASE happens when the fiber runs, not when it is deferred: the
     lease clock must not start ticking on a task that may sit in the
     deque behind a long head, and a worker killed with deferred tasks
     still on its deque leaves them [Pending] — never leased — so the
     supervisor's rescue sweep re-enqueues them exactly like ids stranded
     in a crashed worker's submission buffer.  All accounting resolves
     the executing worker through {!cur} because a thief, not the
     deferrer, may run the fiber.  The fiber is counted as spawned here
     and completed in every terminal branch (lease won or lost), keeping
     the per-fiber exactly-once audit balanced. *)
  let defer_task (ctx : ctx) (_priority, id) =
    let pool = ctx.pool in
    ctx.w.Metrics.fibers <- ctx.w.Metrics.fibers + 1;
    Obs.incr ctx.obs Fiber.c_spawn;
    let fib =
      Fiber.create (fun () ->
          let c = cur pool in
          let undone () =
            c.w.Metrics.fibers_completed <- c.w.Metrics.fibers_completed + 1
          in
          match B.get pool.tasks.(id) with
          | None ->
              c.w.double_claims <- c.w.double_claims + 1;
              Obs.incr c.obs c_claim_race;
              undone ()
          | Some task -> (
              match Task.try_lease task ~now:(B.time ()) with
              | Task.Leased attempt ->
                  (* This fiber becomes the attempt's root: same
                     accounting as {!execute}, minus the extra fiber
                     spawn (this fiber was counted at defer time). *)
                  Metrics.push c.w.delays (Task.queueing_delay task);
                  let prev =
                    B.exchange pool.last_started task.Task.priority
                  in
                  Metrics.push c.w.slacks
                    (float_of_int (max 0 (prev - task.Task.priority)));
                  if attempt > 1 then begin
                    c.w.retries <- c.w.retries + 1;
                    Obs.incr c.obs c_retry
                  end;
                  B.fault_point "sched.execute.post_lease";
                  let att = { task; live = patomic 1; pool } in
                  wrap att (fun () -> Task.run task (api_of att)) ()
              | Task.Lost ->
                  c.w.double_claims <- c.w.double_claims + 1;
                  Obs.incr c.obs c_claim_race;
                  undone ()
              | Task.Deadline_expired ->
                  c.w.timeouts <- c.w.timeouts + 1;
                  Obs.incr c.obs c_timeout;
                  dead_letter c task;
                  undone ()))
    in
    Deque.push ctx.deque (Fiber.Work fib)

  (** Pop and execute at most one task from the shared queue; [false]
      when it looked empty.  A task id delivered twice (queue race or
      supervisor re-enqueue) loses the lease race and is counted, never
      re-executed.

      With [ctx.batch > 1] the pull claims up to [batch] tasks in one
      shared-component round trip ({!ctx.pop_batch}; a single CAS on the
      k-LSMs): the most urgent starts inline and the rest are deferred
      into the deque as immediately steal-ready fibers.  The tail is
      pushed most-urgent-last so this worker's LIFO pop resumes the batch
      in priority order, while a thief's FIFO steal takes the batch's
      {e least} urgent task — the one the owner would reach last.  The
      pull is sorted here first: a queue returns a batch in deletion
      order, which under concurrency need not be key order
      ({!Klsm_core.Pq_intf.S.try_delete_min_batch}). *)
  let try_execute_one ctx =
    if ctx.batch > 1 then begin
      match
        List.stable_sort
          (fun (p, _) (q, _) -> Int.compare p q)
          (ctx.pop_batch ctx.batch)
      with
      | [] ->
          ctx.w.empty_pops <- ctx.w.empty_pops + 1;
          Obs.incr ctx.obs c_empty_pop;
          false
      | (_priority, id) :: rest ->
          List.iter (defer_task ctx) (List.rev rest);
          start_one ctx id;
          true
    end
    else
      match ctx.pop () with
      | None ->
          ctx.w.empty_pops <- ctx.w.empty_pops + 1;
          Obs.incr ctx.obs c_empty_pop;
          false
      | Some (_priority, id) ->
          start_one ctx id;
          true

  (* Steal the oldest fiber from a random victim's deque: up to two
     seeded-random victims per round, retrying a [`Race] once (someone is
     moving — work exists, one more CAS is cheap).  The crash window
     between winning the steal CAS and running the fiber is a first-class
     fault site: a kill here strands the stolen fiber, and recovery must
     come from the lease, never from the deque (docs/CHAOS.md). *)
  let try_steal (ctx : ctx) =
    let pool = ctx.pool in
    let n = Array.length pool.deques in
    if n <= 1 then None
    else begin
      let found = ref None in
      let rounds = ref 0 in
      while !found = None && !rounds < 2 do
        incr rounds;
        let victim =
          let v = Xoshiro.int ctx.steal_rng (n - 1) in
          if v >= ctx.tid then v + 1 else v
        in
        let dq = pool.deques.(victim) in
        let rec attempt retries =
          ctx.w.steal_attempts <- ctx.w.steal_attempts + 1;
          Obs.incr ctx.obs c_steal_attempt;
          match Deque.steal dq with
          | `Stolen w ->
              ctx.w.steals <- ctx.w.steals + 1;
              Obs.incr ctx.obs c_steal_success;
              B.fault_point "sched.steal";
              found := Some w
          | `Race -> if retries > 0 then attempt (retries - 1)
          | `Empty -> ()
        in
        attempt 1
      done;
      !found
    end

  (** One scheduling step: own deque (LIFO), then a steal round (FIFO
      from a victim), then the shared queue.  [false] = everything dry. *)
  let serve ctx =
    match Deque.pop ctx.deque with
    | Some w ->
        Fiber.run ctx.hooks w;
        true
    | None -> (
        match try_steal ctx with
        | Some w ->
            Fiber.run ctx.hooks w;
            true
        | None ->
            ctx.w.steal_fallbacks <- ctx.w.steal_fallbacks + 1;
            Obs.incr ctx.obs c_steal_fallback;
            try_execute_one ctx)

  (* Declare worker [w]'s arrival source closed; [true] iff this caller
     performed the (exactly-once) transition. *)
  let mark_source_done pool w =
    (not (B.get pool.source_done.(w)))
    && B.compare_and_set pool.source_done.(w) false true
    &&
    (ignore (B.fetch_and_add pool.sources_live (-1));
     true)

  (* One supervision pass (robust mode, executed on dry rounds only):
     heartbeat-check peers, expire overdue leases, re-enqueue due retries,
     and — when [rescue] (persistent idle) — re-enqueue every [Pending]
     task to recover ids stranded in a crashed worker's submission buffer.
     Everything here is idempotent or CAS-guarded, so concurrent
     supervisors cannot double-account. *)
  let supervise (ctx : ctx) ~rescue =
    let pool = ctx.pool in
    let rc = pool.rc in
    let now = B.time () in
    ctx.w.sweeps <- ctx.w.sweeps + 1;
    Obs.incr ctx.obs c_sweep;
    if rc.liveness_timeout < infinity then
      for w = 0 to Array.length pool.beats - 1 do
        if
          w <> ctx.tid
          && (not (B.get pool.source_done.(w)))
          && now -. B.get pool.beats.(w) > rc.liveness_timeout
          && mark_source_done pool w
        then begin
          ctx.w.worker_deaths <- ctx.w.worker_deaths + 1;
          Obs.incr ctx.obs c_worker_dead
        end
      done;
    let n = min (B.get pool.next_id) (Array.length pool.tasks) in
    for id = 0 to n - 1 do
      match B.get pool.tasks.(id) with
      | None -> ()
      | Some task ->
          (match
             Task.expire task ~now ~max_attempts:rc.max_attempts
               ~retry_delay:rc.retry_delay
           with
          | Task.Expired_parked _ ->
              ctx.w.timeouts <- ctx.w.timeouts + 1;
              Obs.incr ctx.obs c_timeout
          | Task.Expired_dead ->
              ctx.w.timeouts <- ctx.w.timeouts + 1;
              Obs.incr ctx.obs c_timeout;
              dead_letter ctx task
          | Task.Not_expired -> ());
          let requeue =
            Task.unpark task ~now
            || (rescue && match Task.status task with
                | Task.Pending _ -> true
                | _ -> false)
          in
          if requeue then begin
            Submitter.push_now ctx.sub ~priority:task.Task.priority ~id;
            ctx.w.reenqueues <- ctx.w.reenqueues + 1;
            Obs.incr ctx.obs c_reenqueue
          end
    done

  (** The full worker loop.  [arrivals ()] drives this thread's workload:
      - [`Submit (priority, body)]: a root task wants in now;
      - [`Wait]: nothing due yet (open-loop pacing) — keep serving;
      - [`Done]: this worker's arrival stream is exhausted (final). *)
  let run ?jitter (ctx : ctx) ~arrivals =
    let pool = ctx.pool in
    let rc = pool.rc in
    let pending = ref None in
    let sources_done = ref false in
    let idle = ref 0 in
    let bo = Backoff.create ?jitter ~max:256 () in
    let close_source () =
      if not !sources_done then begin
        sources_done := true;
        ignore (mark_source_done pool ctx.tid);
        (* Nothing will flow through the submit path anymore; make any
           stragglers visible to the other workers. *)
        Submitter.flush ctx.sub
      end
    in
    let rec loop () =
      (match B.get pool.failure with Some e -> raise e | None -> ());
      if pool.supervised then B.set pool.beats.(ctx.tid) (B.time ());
      if B.get pool.draining then begin
        (* Graceful shutdown: drop the backpressured arrival (it was never
           admitted) and stop pulling from the source. *)
        pending := None;
        close_source ()
      end;
      (* 1. Admit the next due arrival, honouring backpressure. *)
      (match !pending with
      | Some (priority, body) -> (
          match try_submit_root ctx ~priority body with
          | `Admitted | `Overflow -> pending := None
          | `Backpressure -> ())
      | None ->
          if not !sources_done then begin
            match arrivals () with
            | `Submit (priority, body) -> (
                match try_submit_root ctx ~priority body with
                | `Admitted | `Overflow -> ()
                | `Backpressure -> pending := Some (priority, body))
            | `Wait -> ()
            | `Done -> close_source ()
          end);
      (* 2. Serve: deque, then steal, then the shared queue. *)
      if serve ctx then begin
        idle := 0;
        Backoff.reset bo;
        loop ()
      end
      else begin
        (* Everything looks dry.  Remaining work can only hide in (a) our
           own submission buffer — flush it; (b) other threads' DistLSMs —
           the queue's own spy path covers that on the next pop; (c) other
           workers' buffers — their own dry-queue flushes cover those, or
           the rescue sweep below if the owner crashed. *)
        Submitter.flush ctx.sub;
        if B.get pool.sources_live = 0 && B.get pool.inflight = 0 then
          ()  (* every admitted task resolved: exact termination *)
        else if B.get pool.gave_up then ()
        else begin
          incr idle;
          if pool.supervised then begin
            if
              rc.run_deadline < infinity
              && B.time () -. pool.created_at > rc.run_deadline
            then B.set pool.gave_up true
            else supervise ctx ~rescue:(!idle >= 8 && !idle land 3 = 0)
          end;
          if B.get pool.gave_up then ()
          else begin
            Backoff.once bo ~relax:B.relax_n;
            B.yield ();
            loop ()
          end
        end
      end
    in
    loop ()
end
