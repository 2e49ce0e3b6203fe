(** The execution substrate every concurrent structure is a functor over.

    The paper's evaluation ran on an 80-core Xeon; this container has one
    core.  To reproduce the scalability experiments we abstract "atomic
    memory + threads + time" behind this signature and provide two
    implementations:

    - {!Real}: [Stdlib.Atomic] cells and [Domain]-based threads, real
      monotonic time.  This is the deployment backend, and the one
      correctness tests run against (OS preemption on one core still
      produces genuine races).
    - {!Sim}: a deterministic discrete-event simulator.  Virtual threads are
      effect-handler fibers; every atomic access is a preemption point and
      advances the accessing thread's virtual clock by a MESI-style
      cache-coherence cost.  Simulated time reproduces the contention
      behaviour (serialized cache-line transfers, CAS retry storms) that the
      paper's figures are about.

    Data-structure code must route {e every} cross-thread memory access
    through [atomic] cells and may report sequential work (array merges,
    heap sift, list hops) via {!val:tick} so the simulator can charge it. *)

module type S = sig
  val name : string
  (** ["real"] or ["sim"]; used in reports. *)

  type 'a atomic
  (** A shared atomic cell, the only legal cross-thread communication. *)

  val make : 'a -> 'a atomic
  val get : 'a atomic -> 'a
  val set : 'a atomic -> 'a -> unit

  val compare_and_set : 'a atomic -> 'a -> 'a -> bool
  (** Physical-equality CAS, like [Stdlib.Atomic.compare_and_set]. *)

  val exchange : 'a atomic -> 'a -> 'a

  val fetch_and_add : int atomic -> int -> int
  (** Returns the previous value. *)

  val tick : int -> unit
  (** [tick n] reports [n] units of thread-local sequential work (e.g. items
      moved by a merge).  No-op on {!Real}; advances the virtual clock on
      {!Sim} so that algorithmic work is visible in simulated time. *)

  val cpu_relax : unit -> unit
  (** Backoff hint inside spin loops. *)

  val relax_n : int -> unit
  (** [relax_n n] = n backoff pauses, charged in one step (spin waits would
      otherwise dominate simulator time). *)

  val yield : unit -> unit
  (** Voluntary reschedule point (no cost). *)

  val fault_point : string -> unit
  (** [fault_point site] marks a named sensitive step of a multi-step
      protocol (a publication order, a CAS dance) for fault injection.
      No-op on {!Real} and on {!Sim} unless a fault plan is installed
      ({!Klsm_chaos.Chaos}), in which case the plan may delay the calling
      thread here, force its next CAS to fail spuriously, or kill it
      outright.  Site names are catalogued in [docs/CHAOS.md]. *)

  val parallel_run : num_threads:int -> (int -> unit) -> unit
  (** [parallel_run ~num_threads body] runs [body 0 .. body (n-1)]
      concurrently to completion.  Exceptions in any thread abort the run
      and are re-raised. *)

  val self : unit -> int
  (** Index of the executing thread inside [parallel_run] ([-1] outside).
      This is the {e dynamic} identity — on {!Sim} all virtual threads
      share one domain, so thread-local state keyed by anything coarser
      (e.g. [Domain.DLS]) is shared across them and must not be used for
      per-thread ownership. *)

  val time : unit -> float
  (** Seconds.  On {!Real}, [CLOCK_MONOTONIC].  On {!Sim}, the calling
      thread's virtual clock inside [parallel_run]; outside, a global clock
      that advances by each run's makespan.  Throughput = ops / (t1 - t0)
      works identically for both. *)
end
