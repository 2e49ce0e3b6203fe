(** Truncated exponential backoff for contended retry loops.

    Retry loops that wait — on a lock holder, on work to appear, or on a
    transient fault to clear — back off through one of these: the
    spinlock behind the lock-based baselines (including Multi-Queue lock
    acquisition), the SSSP and branch-and-bound termination polls, the
    scheduler's idle and admission waits, and the store's recovery
    retries.  The shared k-LSM's snapshot push does not: a failed CAS
    there means another thread made progress, so it retries at once
    (paper Listing 3).  The wait is expressed as a number of [relax]
    calls, which the backend maps either to [Domain.cpu_relax] (real
    execution) or to virtual-clock ticks (simulation). *)

type t

val create : ?min:int -> ?max:int -> ?jitter:Xoshiro.t -> unit -> t
(** [create ?min ?max ()] starts at [min] (default 1) relax-steps and doubles
    up to [max] (default 512) on every {!once}.

    With [?jitter] (a seeded {!Xoshiro} stream), growth switches to
    decorrelated jitter: the next wait is uniform in [min, 3 * previous]
    (truncated to [max]), so threads that lost the same race don't retry in
    lockstep.  Without it the deterministic doubling path is unchanged —
    the form simulator-based tests rely on for byte-identical replays. *)

val once : t -> relax:(int -> unit) -> unit
(** [once t ~relax] calls [relax n] once with the current step count [n],
    then doubles it (truncated) — or draws the next count from the jitter
    stream when one was supplied to {!create}.  Passing the count in one
    call lets the simulator backend charge the whole wait as a single event
    instead of interpreting every pause instruction. *)

val reset : t -> unit
(** Return to the minimum step count after a success. *)

val current : t -> int
(** Current step count; exposed for tests. *)
