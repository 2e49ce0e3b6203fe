(** The batched, sharded submission path of the scheduler.

    Every worker thread owns one submitter.  Instead of paying one queue
    insert per task, tasks accumulate in a thread-local buffer that is
    flushed through the queue's bulk path ({!Klsm_core.Pq_intf.S.insert_batch})
    — on the k-LSM a whole flush becomes a single sorted block inserted
    with one CAS, making shared-component updates [batch] times rarer
    (the same batching the DistLSM performs below the queue, §4.1/§4.3,
    repeated one layer up where "Engineering MultiQueues" [arXiv
    2504.11652] shows it dominates end-to-end throughput).

    Two safeguards keep batching from hurting the schedule:

    - {b priority-inversion flush}: buffered tasks are invisible to other
      workers, so holding an {e urgent} task back would manufacture
      priority inversion.  An incoming task that undercuts the buffered
      minimum by more than [urgency_margin] forces an immediate flush of
      the whole buffer (itself included).
    - {b bounded admission}: a shared in-flight counter implements a
      bounded queue.  [try_admit] refuses new roots beyond [capacity], the
      backpressure signal: a refusal only reads the counter, an admission
      is one fetch-and-add (undone when it lands above [capacity]).  The
      worker keeps serving and retries a refused root only after its own
      {!release} reported a slot freed below [capacity], or after a serve
      round found nothing to run ({!Worker.run}), so a waiting root does
      not reread the counter on every serve step.  Spawned children are
      forced in ({!admit_spawn}), and termination still tests the same
      counter (DESIGN.md §8).

    The drain side has a symmetric knob: {!Worker.make_ctx}'s
    [~batch]/[~pop_batch] pulls a run of task ids per shared-queue round
    trip ([try_delete_min_batch]; one claiming CAS per run on the k-LSMs,
    at every stripe count), so a flush published here as one block can be
    consumed as one batch there ([Closed_loop.config.pull] /
    [sched --pull]). *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  type config = {
    batch : int;  (** flush when this many tasks are buffered; >= 1 *)
    urgency_margin : int;
        (** flush immediately when an incoming priority undercuts the
            buffered minimum by more than this *)
    capacity : int;  (** admission bound on in-flight tasks *)
  }

  let default_config = { batch = 16; urgency_margin = 512; capacity = max_int }

  type t = {
    cfg : config;
    enqueue_batch : (int * int) array -> unit;  (** (priority, task id) *)
    inflight : int B.atomic;  (** shared by all submitters of one pool *)
    buf : (int * int) array;
    mutable len : int;
    mutable buf_min : int;  (** min priority currently buffered *)
    mutable flushes : int;
    mutable urgent_flushes : int;
  }

  let create ?(cfg = default_config) ~inflight ~enqueue_batch () =
    if cfg.batch < 1 then invalid_arg "Submitter.create: batch < 1";
    if cfg.capacity < 1 then invalid_arg "Submitter.create: capacity < 1";
    {
      cfg;
      enqueue_batch;
      inflight;
      buf = Array.make cfg.batch (0, 0);
      len = 0;
      buf_min = max_int;
      flushes = 0;
      urgent_flushes = 0;
    }

  let inflight t = B.get t.inflight

  (** Publish the buffered tasks to the queue as one batch.  A full buffer
      — the steady-state flush — is passed to [enqueue_batch] directly
      instead of being copied: {!Klsm_core.Pq_intf.S.insert_batch} borrows
      the array only for the duration of the call, and this thread (the
      buffer's single owner) does not refill it until the call returns. *)
  let flush t =
    if t.len > 0 then begin
      let pairs =
        if t.len = Array.length t.buf then t.buf else Array.sub t.buf 0 t.len
      in
      t.len <- 0;
      t.buf_min <- max_int;
      t.flushes <- t.flushes + 1;
      t.enqueue_batch pairs
    end

  (** Buffer one (already admitted, already published-in-the-table) task.
      Flushes on batch overflow, and immediately when the incoming task is
      urgent enough that buffering it would cause priority inversion. *)
  let push t ~priority ~id =
    let urgent = t.len > 0 && priority + t.cfg.urgency_margin < t.buf_min in
    t.buf.(t.len) <- (priority, id);
    t.len <- t.len + 1;
    if priority < t.buf_min then t.buf_min <- priority;
    if urgent then begin
      t.urgent_flushes <- t.urgent_flushes + 1;
      flush t
    end
    else if t.len >= t.cfg.batch then flush t

  (** Immediate, buffer-bypassing enqueue — the recovery/retry path.  A
      task being re-enqueued after a timeout or a worker death must become
      visible to every worker {e now}: parking it in this thread's private
      buffer would recreate exactly the invisibility the retry is
      repairing if this thread stalls in turn.  Counted as a flush. *)
  let push_now t ~priority ~id =
    t.flushes <- t.flushes + 1;
    t.enqueue_batch [| (priority, id) |]

  (** Admission control for root tasks: returns [Some inflight_now] (the
      counter after this admission, for peak tracking) or [None] when the
      pool is at capacity.  The counter is read first, so a refusal at
      capacity writes nothing to the shared line.  Below capacity the
      increment decides: a root is admitted only when its own increment
      lands at or below [capacity], else it is undone, so the bound is
      exact even when several admissions pass the read at once. *)
  let try_admit t =
    if B.get t.inflight >= t.cfg.capacity then None
    else
      let now = B.fetch_and_add t.inflight 1 + 1 in
      if now <= t.cfg.capacity then Some now
      else begin
        ignore (B.fetch_and_add t.inflight (-1));
        None
      end

  (** Forced admission for spawned children: a task already inside the
      system spawning work must not block on the admission bound (all
      workers could be executing spawning bodies simultaneously — waiting
      here would deadlock the pool).  The in-flight counter still grows so
      liveness tracking stays exact; capacity is a bound on {e external}
      arrivals only. *)
  let admit_spawn t = ignore (B.fetch_and_add t.inflight 1)

  (** A resolved task leaves the system: [true] iff the count it leaves
      behind is below [capacity], so a refused root could now be admitted.
      The fetch-and-add returns the old count, so the answer costs no
      access. *)
  let release t = B.fetch_and_add t.inflight (-1) <= t.cfg.capacity
end
