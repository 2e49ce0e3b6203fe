(** Multi-Queues (Rihani, Sanders, Dementiev, 2014) — "MultiQ" in
    Figure 3: [c * T] spin-locked sequential binary heaps.

    Insert pushes into a random queue (retrying elsewhere on lock
    contention).  Delete-min samples two distinct random queues, compares
    their cached minima and pops from the smaller — the power-of-two-
    choices load balancing that gives Multi-Queues their expected (but, as
    the paper stresses, not worst-case) rank-error quality, roughly
    comparable to k-LSM at k = 4 according to its inventors (§6.1).

    Each heap caches its minimal key in an atomic so the two-choices
    comparison is lock-free; the cache is refreshed by the lock holder
    after every mutation. *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Heap = Seq_heap.Make (B)
  module Lock = Spinlock.Make (B)
  module Xoshiro = Klsm_primitives.Xoshiro
  module Obs = Klsm_obs.Obs

  (* Observability (lib/obs; docs/METRICS.md): how often the random choices
     collide (locked queue on insert, raced pop on delete) and how often the
     probabilistic sampling gives up into the deterministic sweep. *)
  let c_insert_retry = Obs.counter "multiq.insert_retry"
  let c_delete_retry = Obs.counter "multiq.delete_retry"
  let c_scan_all = Obs.counter "multiq.scan_all"

  type 'v queue = {
    lock : Lock.t;
    heap : 'v Heap.t;
    cached_min : int B.atomic;  (** [max_int] when empty *)
  }

  type 'v t = { queues : 'v queue array; seed : int; obs : Obs.sheet }
  type 'v handle = { t : 'v t; rng : Xoshiro.t; obs : Obs.handle }

  let create_with ?(seed = 1) ?(c = 2) ~num_threads () =
    if num_threads < 1 then invalid_arg "Multiq.create: num_threads < 1";
    let n = max 2 (c * num_threads) in
    {
      queues =
        Array.init n (fun _ ->
            {
              lock = Lock.create ();
              heap = Heap.create ();
              cached_min = B.make max_int;
            });
      seed;
      obs = Obs.create_sheet ~now:B.time ~num_threads ();
    }

  (** Internal-counter snapshot (see {!Pq_intf.S.stats}). *)
  let stats (t : _ t) = Obs.snapshot t.obs

  let register t tid =
    {
      t;
      rng = Xoshiro.create ~seed:(t.seed + (1000003 * (tid + 1)));
      obs = Obs.handle t.obs ~tid;
    }

  let refresh_min q = B.set q.cached_min (Heap.peek_key q.heap)

  let insert h key value =
    if key < 0 then invalid_arg "Multiq.insert: negative key";
    let n = Array.length h.t.queues in
    let rec attempt () =
      let q = h.t.queues.(Xoshiro.int h.rng n) in
      if Lock.try_acquire q.lock then begin
        Heap.insert q.heap key value;
        refresh_min q;
        Lock.release q.lock
      end
      else begin
        (* Contended: pick another random queue. *)
        Obs.incr h.obs c_insert_retry;
        attempt ()
      end
    in
    attempt ()

  (* Batched insert (Pq_intf): one lock acquisition covers the whole batch
     on a single random queue — the batching/stickiness pattern of
     "Engineering MultiQueues" (arXiv 2504.11652).  Load balance across
     queues is preserved because each batch lands on a fresh random
     queue. *)
  let insert_batch h pairs =
    if Array.length pairs > 0 then begin
      Array.iter
        (fun (key, _) ->
          if key < 0 then invalid_arg "Multiq.insert_batch: negative key")
        pairs;
      let n = Array.length h.t.queues in
      let rec attempt () =
        let q = h.t.queues.(Xoshiro.int h.rng n) in
        if Lock.try_acquire q.lock then begin
          Array.iter (fun (key, value) -> Heap.insert q.heap key value) pairs;
          refresh_min q;
          Lock.release q.lock
        end
        else begin
          Obs.incr h.obs c_insert_retry;
          attempt ()
        end
      in
      attempt ()
    end

  (* Pop from one specific queue; [None] if it is empty (or its min moved). *)
  let pop_from q =
    Lock.acquire q.lock;
    let r = Heap.pop_min q.heap in
    refresh_min q;
    Lock.release q.lock;
    r

  let try_delete_min h =
    let n = Array.length h.t.queues in
    let rec attempt tries =
      if tries > 2 * n then begin
        Obs.incr h.obs c_scan_all;
        scan_all 0
      end
      else begin
        let i = Xoshiro.int h.rng n in
        let j =
          let r = Xoshiro.int h.rng (n - 1) in
          if r >= i then r + 1 else r
        in
        let qi = h.t.queues.(i) and qj = h.t.queues.(j) in
        let mi = B.get qi.cached_min and mj = B.get qj.cached_min in
        if mi = max_int && mj = max_int then attempt (tries + 1)
        else begin
          let q = if mi <= mj then qi else qj in
          match pop_from q with
          | Some kv -> Some kv
          | None ->
              (* Raced with another deleter. *)
              Obs.incr h.obs c_delete_retry;
              attempt (tries + 1)
        end
      end
    (* All sampled queues looked empty: one deterministic sweep before
       reporting empty, so emptiness is not purely probabilistic. *)
    and scan_all i =
      if i >= n then None
      else begin
        match pop_from h.t.queues.(i) with
        | Some kv -> Some kv
        | None -> scan_all (i + 1)
      end
    in
    attempt 0

  (* Batched delete (Pq_intf): re-sampling per item is the MultiQueue's
     quality mechanism, so no bulk shortcut; plain loop. *)
  let try_delete_min_batch h n =
    Klsm_core.Pq_intf.pop_up_to (fun () -> try_delete_min h) n

  let approximate_size t =
    Array.fold_left (fun acc q -> acc + Heap.size q.heap) 0 t.queues
end

module Default = Make (Klsm_backend.Real)
module _ : Klsm_core.Pq_intf.S = Default
