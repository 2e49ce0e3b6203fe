(** Tasks for the scheduling runtime (lib/sched).

    The k-LSM was designed as the scheduling backbone of Wimmer's
    task-parallel runtime; this module is the unit of work that backbone
    moves around.  A task carries a priority (smaller = more urgent — the
    queue's key), a payload closure, the timestamp at which it entered the
    system (for queueing-delay metrics), an optional start-by deadline, and
    an execution-lifecycle cell.

    {2 Lifecycle}

    The {!status} cell is the single source of truth for what may happen
    to a task, and every transition is a CAS, so concurrent workers (or a
    worker racing the supervisor that declared it dead) always agree:

    {v
      Pending a --try_lease--> Running (a+1) --try_complete--> Completed
          |                        |
          | (deadline passed)      | (lease expired; attempts left)
          v                        v
        Dead  <--(attempts out)-- Parked a --unpark (backoff due)--> Pending a
    v}

    [Completed] and [Dead] are sticky: once either is reached no retry,
    re-delivery or late finisher can resurrect the task — this is what
    preserves the exactly-once guarantee under retries.  A queue that
    (incorrectly or because the supervisor re-enqueued a recovered id)
    delivers the same task twice loses the [try_lease] race and executes
    nothing.

    Tasks may spawn tasks (the Pheet pattern): a body receives an {!api}
    record wired by the executing worker, so children inherit the
    batching/backpressure machinery of whichever thread runs the parent.

    {2 Fibers}

    A task body runs as the {e root fiber} of its lease attempt
    ({!Fiber}): besides [spawn] (a new task, through the queue) the {!api}
    offers [fork] (a child {e fiber}, pushed to the executing worker's
    own deque — never through the shared queue), [await] (block this
    fiber until a forked fiber finishes; {!Worker} resumes it exactly
    once) and [yield] (cooperative reschedule, the shape a fiber blocked
    on a spilled-block fetch uses).  A task completes when {e all} fibers
    of its attempt have finished — exactly-once accounting is asserted
    per-fiber, not just per-body. *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Fiber = Fiber.Make (B)

  (** A task body.  The wrapper type breaks the recursion between "a body"
      and "the spawn callback that accepts bodies". *)
  type body = Body of (api -> unit)

  (** The capabilities a body receives from its executing worker. *)
  and api = {
    spawn : priority:int -> body -> unit;
        (** a new {e task}, through admission + the shared queue *)
    fork : 'a. (unit -> 'a) -> 'a Fiber.t;
        (** a child {e fiber} of this task's attempt, pushed to the
            current worker's deque (stealable by idle peers) *)
    await : 'a. 'a Fiber.t -> 'a;
        (** park this fiber until that one finishes; re-raises its
            exception *)
    yield : unit -> unit;  (** cooperative reschedule point *)
  }

  (** Execution state; the [int] is the number of lease attempts so far. *)
  type status =
    | Pending of int  (** queued (or re-queued); ready to be leased *)
    | Running of int * float  (** leased; the float is the lease expiry *)
    | Parked of int * float
        (** timed out; retry no earlier than the float (backoff) *)
    | Completed  (** body ran to completion exactly once; sticky *)
    | Dead  (** deadline missed or retries exhausted; sticky *)

  type t = {
    id : int;  (** dense index into the run's task table *)
    priority : int;  (** queue key; smaller is more urgent *)
    body : body;
    enqueued_at : float;  (** backend time at submission *)
    deadline : float;  (** absolute start-by deadline; [infinity] = none *)
    lease : float;  (** per-attempt execution budget; [infinity] = none *)
    status : status B.atomic;
    claims : int B.atomic;  (** delivery/lease attempts, for diagnostics *)
    mutable started_at : float;  (** owner-written by the leasing worker *)
  }

  let make ~id ~priority ~now ?(deadline = infinity) ?(lease = infinity) body =
    if priority < 0 then invalid_arg "Task.make: negative priority";
    {
      id;
      priority;
      body;
      enqueued_at = now;
      deadline;
      lease;
      status = B.make (Pending 0);
      claims = B.make 0;
      started_at = nan;
    }

  (** Lift a plain closure into a non-spawning, non-forking body. *)
  let fn f = Body (fun _ -> f ())

  let noop = Body (fun _ -> ())

  let status t = B.get t.status

  (** Number of delivery/lease attempts so far; > 1 means the task was
      delivered more than once — benign double deliveries (supervisor
      re-enqueues, queue races) that the lifecycle CAS stopped from
      becoming double executions. *)
  let claim_count t = B.get t.claims

  (** [claim t] is true for exactly one caller per task — the legacy
      counter-based guard, kept for direct users that need no
      timeout/retry machinery ({!try_lease} is the lifecycle-aware
      path). *)
  let claim t = B.fetch_and_add t.claims 1 = 0

  type lease_outcome =
    | Leased of int  (** run the body; the int is the attempt number *)
    | Lost  (** someone else holds/held it: drop this delivery *)
    | Deadline_expired  (** sat in the queue past its deadline: dead *)

  (** Try to take execution ownership at time [now].  At most one caller
      per (attempt) cycle receives [Leased]; a task whose deadline passed
      while queued transitions to [Dead] instead (exactly one caller gets
      [Deadline_expired] and owes the dead-letter bookkeeping). *)
  let try_lease t ~now =
    ignore (B.fetch_and_add t.claims 1);
    let s = B.get t.status in
    match s with
    | Pending a ->
        if now > t.deadline then
          if B.compare_and_set t.status s Dead then Deadline_expired else Lost
        else if B.compare_and_set t.status s (Running (a + 1, now +. t.lease))
        then begin
          t.started_at <- now;
          Leased (a + 1)
        end
        else Lost
    | Running _ | Parked _ | Completed | Dead -> Lost

  (** Mark the body's completion; [false] iff the task already reached a
      terminal state (a supervisor gave up on this attempt and the task
      completed — or died — elsewhere): the caller must then treat its own
      finish as late and not account a completion. *)
  let rec try_complete t =
    let s = B.get t.status in
    match s with
    | Running _ | Parked _ | Pending _ ->
        B.compare_and_set t.status s Completed || try_complete t
    | Completed | Dead -> false

  type expiry =
    | Expired_parked of float  (** retry scheduled for the given time *)
    | Expired_dead  (** attempts exhausted; caller owes dead-lettering *)
    | Not_expired

  (** Supervisor step: if the current lease ran out, either park the task
      for a retry (exponential backoff: [retry_delay * 2^(attempt-1)]) or,
      when [max_attempts] is spent, declare it dead.  CAS-guarded, so a
      worker completing at the same instant wins cleanly. *)
  let expire t ~now ~max_attempts ~retry_delay =
    let s = B.get t.status in
    match s with
    | Running (a, until) when now > until ->
        if a >= max_attempts then
          if B.compare_and_set t.status s Dead then Expired_dead
          else Not_expired
        else begin
          let due = now +. (retry_delay *. float_of_int (1 lsl (a - 1))) in
          if B.compare_and_set t.status s (Parked (a, due)) then
            Expired_parked due
          else Not_expired
        end
    | _ -> Not_expired

  (** Supervisor step: release a parked task whose backoff elapsed back to
      [Pending]; [true] iff this caller performed the transition (and so
      owes the re-enqueue). *)
  let unpark t ~now =
    let s = B.get t.status in
    match s with
    | Parked (a, due) when now >= due -> B.compare_and_set t.status s (Pending a)
    | _ -> false

  let start t ~now = t.started_at <- now

  (** Unconditional completion (legacy path for {!claim} users). *)
  let finish t = B.set t.status Completed

  let is_completed t = B.get t.status = Completed

  let status_name t =
    match B.get t.status with
    | Pending _ -> "pending"
    | Running _ -> "running"
    | Parked _ -> "parked"
    | Completed -> "completed"
    | Dead -> "dead"

  (** Seconds between submission and the start of execution. *)
  let queueing_delay t = t.started_at -. t.enqueued_at

  let run t api =
    let (Body f) = t.body in
    f api
end
