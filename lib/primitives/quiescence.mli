(** Termination detection without a shared counter, for worker pools that
    take entries from a shared queue and create new entries while they
    process them (the SSSP and branch-and-bound solvers).  The pool is
    done when no entry is queued and none is being processed; an empty
    delete-min alone cannot tell, because another thread may be about to
    insert.

    Each thread [i] owns two monotone counters on their own cache lines,
    written only by [i]:
    - [created_i] counts the entries [i] {!announce}d.  An entry is
      announced {e before} it becomes visible to any other thread, that
      is before its insert.
    - [finished_i] counts the entries [i] {!retire}d: entries it fully
      processed, after the successors they create were announced and
      inserted, and entries the queue dropped on [i] through lazy
      deletion.

    {!quiescent} first collects every [finished_i], then every
    [created_i], and reports quiescence iff the two sums are equal.

    {b Proof.}  Let [F] be the first sum, [C] the second, and [τ] an
    instant after the last [finished] read and before the first [created]
    read; write [finished(τ)] and [created(τ)] for the true totals at [τ].
    Both totals only grow, so [F ≤ finished(τ)] (every [finished] read was
    taken before [τ]) and [created(τ) ≤ C] (every [created] read was taken
    after [τ]).  Every entry is created before it can be finished, so
    [finished(τ) ≤ created(τ)].  Hence [F ≤ finished(τ) ≤ created(τ) ≤ C],
    and [F = C] forces [finished(τ) = created(τ)]: at [τ] no entry was
    queued or being processed.  Only processing an entry creates entries,
    so nothing can be created after [τ], and the pool is done.

    One collect of [Σ (created_i − finished_i)] is {e not} sound.  It can
    read one thread's pair before that thread announces a child and
    another thread's pair after it retires that child, so the child
    counts as finished but never as created, while its sibling is still
    in flight.

    Against one shared in-flight counter, the hot path does owner-only
    stores instead of two contended read-modify-writes per entry; an idle
    thread pays [2 T] reads per poll. *)

module type ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
end

module Make (_ : ATOMIC) : sig
  type t

  val create : num_threads:int -> t
  (** Every counter of threads [0 .. num_threads - 1] starts at 0. *)

  val announce : t -> int -> int -> unit
  (** [announce t tid n]: thread [tid] is about to make [n] new entries
      visible.  Call it before the insert; an entry that exists before the
      workers start (a source, a root) is announced for its owner before
      they do. *)

  val retire : t -> int -> unit
  (** [retire t tid]: thread [tid] is done with one entry, and any entry
      it creates has been announced.

      Both [announce] and [retire] raise [Invalid_argument] when [tid] is
      not a thread of [t], for example the [-1] that [Backend_intf.S.self]
      returns outside a parallel run.  Counting such an entry nowhere
      would leave the sums unequal, and every idle thread would wait
      forever. *)

  val quiescent : t -> bool
  (** Any thread: the double collect above.  [true] means every announced
      entry has been retired and none can be announced again. *)
end
