(** Worker loops: the execution layer of the scheduler, rebuilt on
    fibers and work-stealing deques.

    A pool is one scheduling run's shared state — the task table, the
    in-flight accounting, the completion log, the per-worker
    work-stealing deques, and (when a {!robust} configuration enables
    them) the supervision structures.  Each participating thread builds a
    {!ctx} around its queue handle and runs {!run}, which interleaves
    five duties:

    + admitting new root tasks from an arrival source until the source
      returns [`Done], the one signal that stops admission (with
      backpressure: a refused arrival waits, never busy-waited on, and is
      retried only after this worker's own release freed a slot below
      capacity or a serve round found nothing to run — and with load
      shedding: a full task table refuses admission with [`Overflow]
      instead of killing the worker);
    + serving its own deque LIFO: every task body runs as the root
      {!Fiber} of its lease attempt, and fibers it forks (plus fibers it
      yields) land on the executing worker's deque, so the cache-hot,
      most-recently-created work is served first without touching the
      shared queue at all;
    + when the deque is dry, stealing FIFO from a random victim's deque —
      the {e oldest} fiber, the one the owner is least likely to come
      back to — {e before} falling back to the shared k-LSM;
    + only then pulling fresh task ids from the priority queue, always
      through [pop_batch] ([make_ctx ~batch ~pop_batch]; a batch of one
      is a delete-min), and leasing them ({!Task.try_lease}).  The shared
      component alone decides {e which task starts next} (so the k-LSM's
      rank bound still governs priority order); the deques only absorb the
      churn of the short-lived fibers a started task explodes into.  A
      pull of several ids costs one publish CAS per claimed run on the
      k-LSMs, at every stripe count and without a queue-side deletion
      buffer; the most urgent starts inline and the rest are parked in the
      deque as immediately steal-ready, lease-on-run fibers, both through
      the same lease;
    + {b supervising} (robust mode): on dry rounds the worker heartbeat-
      checks its peers, declares silent ones dead, expires overdue leases
      into parked retries or, with no attempts left, the terminal [Dead]
      status (the only dead-letter record), re-enqueues parked tasks
      whose backoff elapsed, and — after a persistent idle streak —
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
    its task unsealed, hence in flight, hence some worker serving.  Nor
    can a refused root: its worker's source is still open, so that worker
    keeps serving until it frees a slot or runs dry, and a dry round
    retries the root (DESIGN.md §8 has the liveness argument).

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
     side by side ([sched.dead_letter] and [sched.sweep] have no field
     there: the task table's [Dead] statuses are the dead-letter record);
     [sched.flush]/[sched.urgent_flush] are folded in from the submitter
     after the run (see {!Closed_loop}).  The fiber-side counters
     [fiber.spawn]/[fiber.suspend]/[fiber.resume] are declared in {!Fiber}
     and incremented here through the executing worker ({!cur}). *)
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
      leases and run deadline, one attempt), reproducing the trusting
      pre-supervision behaviour byte for byte — the knobs only change a
      run that actually needs them. *)
  type robust = {
    lease : float;  (** per-attempt execution budget, seconds *)
    max_attempts : int;
        (** lease attempts before the task is [Dead]; >= 1 *)
    retry_delay : float;
        (** base retry backoff; attempt [a] parks for [retry_delay *
            2^(a-1)] before re-entering the queue *)
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
      liveness_timeout = infinity;
      run_deadline = infinity;
    }

  let robust_active rc =
    rc.lease < infinity || rc.liveness_timeout < infinity
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
    gave_up : bool B.atomic;  (** run_deadline elapsed without completion *)
    beats : float B.atomic array;
        (** per-worker heartbeat timestamps (the lease clocks); padded *)
    source_done : bool B.atomic array;
        (** per-worker "arrival source closed" latch; guards the single
            [sources_live] decrement whether the worker closed it itself
            or a supervisor declared it dead *)
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
    pop_batch : int -> (int * int) list;
        (** the queue's try_delete_min_batch, the one pull path; on the
            k-LSMs a stripe win claims a whole run of tasks from that
            stripe with a single publish CAS at every stripe count (see
            Klsm.claim_runs), and a batch of one is a try_delete_min *)
    batch : int;  (** tasks pulled per shared-queue round trip *)
    w : Metrics.worker;
    obs : Obs.handle;
    deque : Fiber.work Deque.t;  (** this worker's own deque *)
    steal_rng : Xoshiro.t;  (** victim selection; seeded for replay *)
    hooks : Fiber.hooks;  (** suspend/resume accounting (see {!hooks_of}) *)
    mutable retry_root : bool;
        (** since this worker's last admission attempt it released a slot
            below capacity or found nothing to serve: the one signal on
            which {!run} retries a refused root *)
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
      gave_up = patomic false;
      beats = Array.init num_workers (fun _ -> patomic now);
      source_done = Array.init num_workers (fun _ -> patomic false);
      deques = Array.init num_workers (fun _ -> Deque.create ());
      failure = patomic None;
      ctxs = Array.make num_workers None;
    }

  let completed_count pool = B.get pool.log_next
  let peak_inflight pool = B.get pool.peak_inflight

  let gave_up pool = B.get pool.gave_up

  (** Completion order so far; call after the run for the full log. *)
  let completion_log pool = Array.sub pool.log 0 (B.get pool.log_next)

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
    (* Every pull goes through [pop_batch]; [pop] only builds its default,
       the Pq_intf loop, for queues without a bulk path. *)
    let pop_batch =
      Option.value pop_batch ~default:(Klsm_core.Pq_intf.pop_up_to pop)
    in
    let c =
      {
        pool;
        tid;
        sub;
        pop_batch;
        batch;
        w = metrics;
        obs;
        deque = pool.deques.(tid);
        steal_rng = Xoshiro.create ~seed;
        hooks = hooks_of pool;
        retry_root = false;
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
      let task =
        Task.make ~id ~priority ~now:(B.time ()) ~lease:ctx.pool.rc.lease body
      in
      B.set ctx.pool.tasks.(id) (Some task);
      Submitter.push ctx.sub ~priority ~id;
      `Ok
    end

  (* Give back one in-flight slot.  A slot freed below capacity re-arms
     this worker's retry of a refused root ({!run}); a release by another
     worker does not, so a waiting root never rereads the counter that
     every admit, spawn and release rewrites. *)
  let release ctx = if Submitter.release ctx.sub then ctx.retry_root <- true

  let shed ctx =
    release ctx;
    ctx.w.shed <- ctx.w.shed + 1;
    Obs.incr ctx.obs c_overflow

  (** Root submission through admission control.  [`Backpressure] = at
      capacity, the caller should keep serving and retry once
      [retry_root] is set; [`Overflow] = the task table itself is full,
      the task was shed (a permanent refusal the arrival source must
      absorb). *)
  let try_submit_root ctx ~priority body =
    ctx.retry_root <- false;
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
    if Task.try_complete att.task then begin
      let slot = B.fetch_and_add ctx.pool.log_next 1 in
      ctx.pool.log.(slot) <- att.task.Task.id;
      release ctx;
      ctx.w.executed <- ctx.w.executed + 1;
      Obs.incr ctx.obs c_execute
    end
    else begin
      (* The supervisor sealed this task's fate (re-leased elsewhere or
         declared [Dead]) while the attempt ran: the work is done but must
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

  let claim_race (c : ctx) =
    c.w.double_claims <- c.w.double_claims + 1;
    Obs.incr c.obs c_claim_race

  (* Lease popped id [id] for the executing worker [c]: [Some (task,
     attempt)] iff this delivery won the task.  A lost delivery (a queue
     race or a supervisor re-enqueue) is counted and runs nothing; so is
     an empty table slot, unreachable with a conserving queue because ids
     are enqueued only after table publication. *)
  let lease (c : ctx) id =
    match B.get c.pool.tasks.(id) with
    | None ->
        claim_race c;
        None
    | Some task -> (
        match Task.try_lease task ~now:(B.time ()) with
        | Task.Leased attempt -> Some (task, attempt)
        | Task.Lost ->
            claim_race c;
            None)

  (* Begin attempt [attempt] of a task [c] just leased: record its
     queueing delay and dequeue slack, count a retry, and build the
     attempt its root fiber runs under. *)
  let begin_attempt (c : ctx) task ~attempt =
    Metrics.push c.w.delays (Task.queueing_delay task);
    let prev = B.exchange c.pool.last_started task.Task.priority in
    Metrics.push c.w.slacks (float_of_int (max 0 (prev - task.Task.priority)));
    if attempt > 1 then begin
      c.w.retries <- c.w.retries + 1;
      Obs.incr c.obs c_retry
    end;
    B.fault_point "sched.execute.post_lease";
    { task; live = patomic 1; pool = c.pool }

  (* The root fiber's thunk: the task body under the attempt accounting. *)
  let root_thunk att = wrap att (fun () -> Task.run att.task (api_of att))

  (* Lease and start the head of a pull on this worker, inline: its root
     fiber runs now and parks itself in the deque whenever it blocks. *)
  let start_one (ctx : ctx) id =
    match lease ctx id with
    | None -> ()
    | Some (task, attempt) ->
        let att = begin_attempt ctx task ~attempt in
        ctx.w.Metrics.fibers <- ctx.w.Metrics.fibers + 1;
        Obs.incr ctx.obs Fiber.c_spawn;
        Fiber.run ctx.hooks (Fiber.Work (Fiber.create (root_thunk att)))

  (* Park a pulled tail task in the deque as a steal-ready fiber.  The
     LEASE happens when the fiber runs, not when it is deferred: the
     lease clock must not start ticking on a task that may sit in the
     deque behind a long head, and a worker killed with deferred tasks
     still on its deque leaves them [Pending] — never leased — so the
     supervisor's rescue sweep re-enqueues them exactly like ids stranded
     in a crashed worker's submission buffer.  All accounting resolves
     the executing worker through {!cur} because a thief, not the
     deferrer, may run the fiber.  The fiber is counted as spawned here;
     when its lease wins it becomes the attempt's root, and when it loses
     it counts itself completed, keeping the per-fiber exactly-once audit
     balanced. *)
  let defer_task (ctx : ctx) (_priority, id) =
    let pool = ctx.pool in
    ctx.w.Metrics.fibers <- ctx.w.Metrics.fibers + 1;
    Obs.incr ctx.obs Fiber.c_spawn;
    let fib =
      Fiber.create (fun () ->
          let c = cur pool in
          match lease c id with
          | Some (task, attempt) ->
              root_thunk (begin_attempt c task ~attempt) ()
          | None ->
              c.w.Metrics.fibers_completed <- c.w.Metrics.fibers_completed + 1)
    in
    Deque.push ctx.deque (Fiber.Work fib)

  (** Pull up to [ctx.batch] tasks from the shared queue in one round
      trip ({!ctx.pop_batch}; one publish CAS per claimed run on the
      k-LSMs) and start them;
      [false] when the queue looked empty.  The most urgent starts inline
      and the rest are deferred into the deque as immediately steal-ready
      fibers.  The tail is pushed most-urgent-last so this worker's LIFO
      pop resumes the batch in priority order, while a thief's FIFO steal
      takes the batch's {e least} urgent task — the one the owner would
      reach last.  The pull is sorted here first: a queue returns a batch
      in deletion order, which under concurrency need not be key order
      ({!Klsm_core.Pq_intf.S.try_delete_min_batch}).  A task id delivered
      twice (queue race or supervisor re-enqueue) loses the lease race and
      is counted, never re-executed. *)
  let try_execute_one ctx =
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
              (* This sweep owns the terminal transition, so the task is
                 resolved here, exactly once: its [Dead] status is the
                 dead-letter record. *)
              ctx.w.timeouts <- ctx.w.timeouts + 1;
              Obs.incr ctx.obs c_timeout;
              release ctx;
              Obs.incr ctx.obs c_dead_letter
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

  (* The give-up test of a dry round, only for a pool with a finite
     [run_deadline] (the one configuration that sets [gave_up]): one load
     of the flag, and the first worker to see the deadline pass sets it
     for the others. *)
  let out_of_time pool =
    B.get pool.gave_up
    || (B.time () -. pool.created_at > pool.rc.run_deadline
       && (B.set pool.gave_up true;
           true))

  (** The full worker loop.  [arrivals ()] drives this thread's workload:
      - [`Submit (priority, body)]: a root task wants in now;
      - [`Wait]: nothing due yet (open-loop pacing) — keep serving;
      - [`Done]: this worker's arrival stream is exhausted (final) — the
        only way admission stops. *)
  let run ?jitter (ctx : ctx) ~arrivals =
    let pool = ctx.pool in
    let rc = pool.rc in
    let pending = ref None in
    let sources_done = ref false in
    let idle = ref 0 in
    let bo = Backoff.create ?jitter ~max:256 () in
    let rec loop () =
      (match B.get pool.failure with Some e -> raise e | None -> ());
      if pool.supervised then B.set pool.beats.(ctx.tid) (B.time ());
      (* 1. Admit the next due arrival, honouring backpressure: a refused
         root waits until this worker freed a slot or ran dry. *)
      (match !pending with
      | Some (priority, body) ->
          if ctx.retry_root then begin
            match try_submit_root ctx ~priority body with
            | `Admitted | `Overflow -> pending := None
            | `Backpressure -> ()
          end
      | None ->
          if not !sources_done then begin
            match arrivals () with
            | `Submit (priority, body) -> (
                match try_submit_root ctx ~priority body with
                | `Admitted | `Overflow -> ()
                | `Backpressure -> pending := Some (priority, body))
            | `Wait -> ()
            | `Done ->
                sources_done := true;
                ignore (mark_source_done pool ctx.tid);
                (* Nothing will flow through the submit path anymore; make
                   any stragglers visible to the other workers. *)
                Submitter.flush ctx.sub
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
        else if rc.run_deadline < infinity && out_of_time pool then ()
        else begin
          incr idle;
          ctx.retry_root <- true;
          if pool.supervised then
            supervise ctx ~rescue:(!idle >= 8 && !idle land 3 = 0);
          Backoff.once bo ~relax:B.relax_n;
          B.yield ();
          loop ()
        end
      end
    in
    loop ()
end
