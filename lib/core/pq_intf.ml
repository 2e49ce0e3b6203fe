(** The common signature every concurrent priority queue in this repository
    implements — the paper's external interface (§4): [insert] always
    succeeds; [try_delete_min] returns a minimal key under the queue's
    ordering semantics, may fail spuriously, and is guaranteed to
    eventually return a key if one is present.

    Queues are handle-based: each queue's own constructor takes the number
    of threads it serves; a thread calls [register] once with its dense
    thread id in [0, num_threads) and then operates through its handle
    (thread-local state — snapshots, RNG streams, local LSMs — lives
    there).  Handles are single-owner: do not share one across threads.
    Keys are native ints; smaller keys have higher priority. *)

module type S = sig
  type 'v t
  type 'v handle

  val register : 'v t -> int -> 'v handle
  (** [register t tid] claims thread slot [tid] (0-based, < num_threads). *)

  val insert : 'v handle -> int -> 'v -> unit
  (** [insert h key v] inserts; always succeeds.  [key >= 0].  The paper's
      Listing 5 [insert]: local LSM first, spilling to the shared
      component per §4.3 (for the k-LSM; baselines use their own paths). *)

  val try_delete_min : 'v handle -> (int * 'v) option
  (** Delete and return a minimal key (under the queue's relaxation).
      [None] when the queue looks empty — possibly spuriously; callers that
      know the queue is non-empty simply retry. *)

  val try_delete_min_batch : 'v handle -> int -> (int * 'v) list
  (** [try_delete_min_batch h n] deletes and returns up to [n] items, in
      the order they were deleted.  That order is ascending for a run
      claimed with one CAS and, on the k-LSMs, for one thread alone
      (local ordering).  Otherwise a batch built by repeated deletes need
      not be in key order — under concurrency, or on a queue relaxed even
      for one thread — so a caller that needs key order sorts.  Semantics
      are those of repeated {!try_delete_min}: each returned item was a
      minimal key under the queue's relaxation at its own deletion point,
      and a short (even empty) batch is the analogue of a spurious
      [None] — callers that know items remain simply call again.  Queues
      without a bulk path run exactly that loop ({!pop_up_to}); the k-LSMs
      specialize it so a whole run of items is claimed from one stripe of
      the shared component with a single publish CAS, at every stripe
      count, each key of the run capped so it is one [try_delete_min]
      could have returned (DESIGN.md §12, §17).  That is how delete-side batching amortizes the shared hot
      spot the way {!insert_batch} does for inserts. *)

  val insert_batch : 'v handle -> (int * 'v) array -> unit
  (** [insert_batch h pairs] inserts every [(key, value)] pair.  Semantics
      are the same as repeated {!insert}; implementations are free to (and
      the k-LSM does) linearize the whole batch as one shared-component
      update, which is how batching layers above the queue (the submitter
      in [lib/sched]) amortize the shared hot spot.  Queues without a bulk
      path fall back to an element-by-element loop.

      [pairs] is {e borrowed} for the duration of the call: implementations
      must not retain a reference to it after returning (they may read it
      freely while the call runs).  This lets callers flush a reusable
      thread-local buffer without copying it per batch. *)

  val approximate_size : 'v t -> int
  (** The number of items the queue holds, as one pass over its parts
      reads it: it may count logically deleted items and is not
      linearizable (the paper lets [size] be off by rho). *)

  val stats : 'v t -> Klsm_obs.Obs.snapshot
  (** Type-erased snapshot of the queue's internal event counters and span
      timers ([lib/obs]): per-thread CAS retries, consolidations, spy
      traffic, ... — the internal quantities the paper's §5 discussion
      explains Figures 3-4 with.  Empty unless observability was enabled
      ({!Klsm_obs.Obs.set_enabled}) {e before} the queue was created; see
      [docs/METRICS.md] for what each emitted name means. *)
end

(** [pop_up_to pop n] calls [pop] until it has [n] items or [pop] returns
    [None], and returns the items in the order popped: the portable
    {!S.try_delete_min_batch}. *)
let pop_up_to pop n =
  let rec go acc got =
    if got >= n then List.rev acc
    else
      match pop () with
      | Some kv -> go (kv :: acc) (got + 1)
      | None -> List.rev acc
  in
  go [] 0
