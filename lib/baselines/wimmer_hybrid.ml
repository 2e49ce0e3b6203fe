(** Standalone reimplementation of the {e hybrid k-priority queue} of
    Wimmer et al. (PPoPP'14) — "Hybrid k" in Figure 4.

    Like the centralized variant this is a behavioural reimplementation
    (the original lives inside the Pheet scheduler; DESIGN.md §4).  The
    published idea: each thread buffers up to [k] items in a private
    sequential heap and spills them to a central (locked) queue when the
    bound is reached, giving rho = T*k relaxation; delete-min prefers the
    private heap when its minimum beats the central queue's cached minimum,
    so larger [k] means fewer lock acquisitions — until the relaxation
    makes the application (e.g. SSSP) perform enough extra work to cancel
    the gain, producing the U-shaped curve of Figure 4 (right). *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Heap = Seq_heap.Make (B)
  module Lock = Spinlock.Make (B)
  module Obs = Klsm_obs.Obs

  (* Observability (lib/obs; docs/METRICS.md): spills of the private heap
     into the central queue (rarer as k grows — the whole point of the
     hybrid), central-lock contention, and lazy-deletion drops. *)
  let c_flush = Obs.counter "hybrid.flush"
  let c_flush_items = Obs.counter "hybrid.flush_items"
  let c_contended = Obs.counter "hybrid.lock_contended"
  let c_lazy_drop = Obs.counter "hybrid.lazy_drop"

  type 'v t = {
    lock : Lock.t;
    global : 'v Heap.t;
    global_min : int B.atomic;  (** cached; [max_int] when empty *)
    k : int B.atomic;
    should_delete : (int -> 'v -> bool) option;
    on_lazy_delete : int -> 'v -> unit;
    obs : Obs.sheet;
  }

  type 'v handle = { t : 'v t; local : 'v Heap.t; obs : Obs.handle }

  let create_with ?seed:_ ?(k = 256) ?should_delete ?on_lazy_delete
      ~num_threads () =
    if k < 0 then invalid_arg "Wimmer_hybrid.create: k < 0";
    {
      lock = Lock.create ();
      global = Heap.create ();
      global_min = B.make max_int;
      k = B.make k;
      should_delete;
      on_lazy_delete =
        (match on_lazy_delete with Some f -> f | None -> fun _ _ -> ());
      obs = Obs.create_sheet ~now:B.time ~num_threads ();
    }

  (** Internal-counter snapshot (see {!Pq_intf.S.stats}). *)
  let stats (t : _ t) = Obs.snapshot t.obs

  let register t tid =
    { t; local = Heap.create (); obs = Obs.handle t.obs ~tid }

  let set_k (t : _ t) k = B.set t.k k

  let locked h f =
    Lock.with_lock
      ~on_contend:(fun () -> Obs.incr h.obs c_contended)
      h.t.lock f

  let refresh_min t = B.set t.global_min (Heap.peek_key t.global)

  let condemned h key v =
    match h.t.should_delete with Some p -> p key v | None -> false

  (* Spill the whole private buffer under one lock acquisition — the
     batching that makes the hybrid cheaper than the centralized queue. *)
  let flush_local h =
    if not (Heap.is_empty h.local) then begin
      Obs.incr h.obs c_flush;
      Obs.add h.obs c_flush_items (Heap.size h.local);
      locked h (fun () ->
          let rec move () =
            match Heap.pop_min h.local with
            | None -> ()
            | Some (key, v) ->
                if condemned h key v then begin
                  Obs.incr h.obs c_lazy_drop;
                  h.t.on_lazy_delete key v
                end
                else Heap.insert h.t.global key v;
                move ()
          in
          move ();
          refresh_min h.t)
    end

  let insert h key value =
    if key < 0 then invalid_arg "Wimmer_hybrid.insert: negative key";
    Heap.insert h.local key value;
    if Heap.size h.local > B.get h.t.k then flush_local h

  (* Batched insert (Pq_intf): items land in the local heap first anyway, so
     the loop only flushes to the global heap when the batch overflows k. *)
  let insert_batch h pairs =
    Array.iter (fun (key, value) -> insert h key value) pairs

  let pop_global h =
    locked h (fun () ->
        let rec pop () =
          match Heap.pop_min h.t.global with
          | None -> None
          | Some (key, v) ->
              if condemned h key v then begin
                Obs.incr h.obs c_lazy_drop;
                h.t.on_lazy_delete key v;
                pop ()
              end
              else Some (key, v)
        in
        let r = pop () in
        refresh_min h.t;
        r)

  let rec pop_local h =
    match Heap.pop_min h.local with
    | None -> None
    | Some (key, v) ->
        if condemned h key v then begin
          Obs.incr h.obs c_lazy_drop;
          h.t.on_lazy_delete key v;
          pop_local h
        end
        else Some (key, v)

  let try_delete_min h =
    let local_min = Heap.peek_key h.local in
    let global_min = B.get h.t.global_min in
    if local_min = max_int && global_min = max_int then None
    else if local_min <= global_min then begin
      match pop_local h with None -> pop_global h | some -> some
    end
    else begin
      match pop_global h with None -> pop_local h | some -> some
    end

  (* Batched delete (Pq_intf): plain loop (the local/global split already
     keeps the common case lock-free). *)
  let try_delete_min_batch h n =
    Klsm_core.Pq_intf.pop_up_to (fun () -> try_delete_min h) n

  let approximate_size (t : _ t) =
    Lock.with_lock t.lock (fun () -> Heap.size t.global)
end

module Default = Make (Klsm_backend.Real)
module _ : Klsm_core.Pq_intf.S = Default
