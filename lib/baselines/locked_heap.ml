(** "Heap + Lock": a sequential binary heap behind one spinlock — the
    classic non-scalable baseline of Figure 3.  Its throughput per thread
    decays roughly as 1/T, which the figure uses to anchor the bottom of
    the plot.

    With §4.5's lazy-deletion pair ([create_with ?should_delete
    ?on_lazy_delete]) the same heap is Figure 4's "Centralized k": Wimmer
    et al.'s centralized k-priority queue is welded into the Pheet task
    scheduler, so we stand in one global spin-locked heap with the
    lazy-deletion hook the SSSP benchmark applies to every queue.  Like
    the original, its behaviour does not depend on k (the paper: "no
    visible difference between different values for k"), and it degrades
    with thread count because every operation serializes on the lock.
    The substitution is recorded in DESIGN.md §4. *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Heap = Seq_heap.Make (B)
  module Lock = Spinlock.Make (B)
  module Obs = Klsm_obs.Obs

  (* Observability (lib/obs; docs/METRICS.md): how often the one lock is
     contended — the serialization Figure 3 blames for the 1/T decay — and
     the condemned items dropped on their way out. *)
  let c_contended = Obs.counter "heap.lock_contended"
  let c_lazy_drop = Obs.counter "heap.lazy_drop"

  type 'v t = {
    lock : Lock.t;
    heap : 'v Heap.t;
    should_delete : int -> 'v -> bool;
    on_lazy_delete : int -> 'v -> unit;
    obs : Obs.sheet;
  }

  type 'v handle = { t : 'v t; obs : Obs.handle }

  let create_with ?(should_delete = fun _ _ -> false)
      ?(on_lazy_delete = fun _ _ -> ()) ~num_threads () =
    {
      lock = Lock.create ();
      heap = Heap.create ();
      should_delete;
      on_lazy_delete;
      obs = Obs.create_sheet ~now:B.time ~num_threads ();
    }

  let create ?seed:_ ~num_threads () = create_with ~num_threads ()

  (** Internal-counter snapshot (see {!Pq_intf.S.stats}). *)
  let stats (t : _ t) = Obs.snapshot t.obs

  let register t tid = { t; obs = Obs.handle t.obs ~tid }

  let locked h f =
    Lock.with_lock
      ~on_contend:(fun () -> Obs.incr h.obs c_contended)
      h.t.lock f

  let insert h key value =
    if key < 0 then invalid_arg "Locked_heap.insert: negative key";
    locked h (fun () -> Heap.insert h.t.heap key value)

  (* Batched insert (Pq_intf): one lock acquisition covers the batch. *)
  let insert_batch h pairs =
    if Array.length pairs > 0 then begin
      Array.iter
        (fun (key, _) ->
          if key < 0 then invalid_arg "Locked_heap.insert_batch: negative key")
        pairs;
      locked h (fun () ->
          Array.iter (fun (key, value) -> Heap.insert h.t.heap key value) pairs)
    end

  (* Under the lock: the heap minimum, dropping condemned items on the
     way out. *)
  let rec pop h =
    match Heap.pop_min h.t.heap with
    | Some (key, v) when h.t.should_delete key v ->
        Obs.incr h.obs c_lazy_drop;
        h.t.on_lazy_delete key v;
        pop h
    | r -> r

  let try_delete_min h = locked h (fun () -> pop h)

  (* Batched delete (Pq_intf): one lock acquisition for the whole batch. *)
  let try_delete_min_batch h n =
    if n <= 0 then []
    else locked h (fun () -> Klsm_core.Pq_intf.pop_up_to (fun () -> pop h) n)

  let approximate_size t = Lock.with_lock t.lock (fun () -> Heap.size t.heap)
end

module Default = Make (Klsm_backend.Real)
module _ : Klsm_core.Pq_intf.S = Default
