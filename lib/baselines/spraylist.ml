(** The SprayList (Alistarh, Kopinsky, Li, Shavit, PPoPP'15) — the paper's
    main relaxed lock-free competitor (Figure 3).

    Inserts are plain skiplist inserts.  Delete-min performs a "spray": a
    random walk that starts [O(log T)] levels up, takes a uniform number of
    horizontal steps on each level and descends one level at a time; the
    landed-on node is claimed with a test-and-set.  The walk spreads
    deleters over the O(T log^3 T) smallest items, removing the contention
    hot-spot at the list head at the cost of relaxation without a
    worst-case bound (the paper's §6 discussion).  With probability 1/T a
    deleter becomes a cleaner instead, walking linearly from the head like
    Lindén & Jonsson and physically unlinking the dead prefix — the
    SprayList's own garbage-collection scheme. *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Sk = Skiplist.Make (B)
  module Xoshiro = Klsm_primitives.Xoshiro
  module Bits = Klsm_primitives.Bits
  module Obs = Klsm_obs.Obs

  let name = "spraylist"
  let cleaner_prefix_bound = 32

  (* Observability (lib/obs; docs/METRICS.md): how delete-min attempts
     split between sprays, cleaner duty and the exact-walk fallback — the
     contention-spreading machinery §6 compares against the k-LSM. *)
  let c_spray = Obs.counter "spray.spray"
  let c_collision = Obs.counter "spray.collision"
  let c_linear_fallback = Obs.counter "spray.linear_fallback"
  let c_cleaner = Obs.counter "spray.cleaner"
  let c_restructure = Obs.counter "spray.restructure"

  type 'v t = { sk : 'v Sk.t; num_threads : int; seed : int; obs : Obs.sheet }
  type 'v handle = { t : 'v t; rng : Xoshiro.t; obs : Obs.handle }

  let create_with ?(seed = 1) ~dummy ~num_threads () =
    if num_threads < 1 then invalid_arg "Spraylist.create: num_threads < 1";
    {
      sk = Sk.create ~dummy ();
      num_threads;
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

  let insert h key value =
    if key < 0 then invalid_arg "Spraylist.insert: negative key";
    ignore (Sk.insert h.t.sk ~rng:h.rng key value)

  (* Batched insert (Pq_intf): no bulk path in a skiplist; plain loop. *)
  let insert_batch h pairs =
    Array.iter (fun (key, value) -> insert h key value) pairs

  (* Spray parameters from the SprayList paper: start height H = log T + 1,
     per-level jump length uniform in [0, M * log T + 1], descend D = 1. *)
  let spray_height t = min (Sk.max_height - 1) (Bits.ceil_log2 (t.num_threads + 1) + 1)
  let spray_jump t = (2 * Bits.ceil_log2 (t.num_threads + 1)) + 1

  (* One spray descent; lands on a candidate node (or None if the structure
     looks empty from here). *)
  let spray h =
    let t = h.t in
    let sk = t.sk in
    let jump_bound = spray_jump t in
    (* Walk within the head's towers first. *)
    let current = ref sk.Sk.head in
    for level = spray_height t downto 0 do
      let steps = Xoshiro.int h.rng (jump_bound + 1) in
      let remaining = ref steps in
      let continue_walk = ref true in
      while !continue_walk && !remaining > 0 do
        let cur = !current in
        if level < cur.Sk.height then begin
          match Sk.follow (B.get cur.Sk.next.(level)) with
          | Some n ->
              B.tick 20;
              current := n;
              decr remaining
          | None -> continue_walk := false
        end
        else continue_walk := false
      done
    done;
    if !current == sk.Sk.head then None else Some !current

  (* Linden-style linear walk from the head: used by cleaners and as the
     fallback that guarantees progress / detects emptiness. *)
  let linear_delete_min h =
    let sk = h.t.sk in
    let rec walk prefix link =
      match Sk.follow link with
      | None -> None
      | Some n ->
          if Sk.try_take n then begin
            Sk.mark_node n;
            if prefix >= cleaner_prefix_bound then begin
              Obs.incr h.obs c_restructure;
              ignore (Sk.search sk (Sk.node_key n + 1))
            end;
            Some (Sk.node_key n, Sk.node_value n)
          end
          else begin
            B.tick 20;
            walk (prefix + 1) (Sk.next_bottom n)
          end
    in
    walk 0 (Sk.bottom_head sk)

  let max_spray_attempts = 8

  let try_delete_min h =
    (* With probability 1/T, act as a cleaner. *)
    if Xoshiro.int h.rng h.t.num_threads = 0 then begin
      Obs.incr h.obs c_cleaner;
      linear_delete_min h
    end
    else begin
      let rec attempt n =
        if n >= max_spray_attempts then begin
          (* Too many collisions/dead landings: fall back to the exact walk
             so the operation cannot fail spuriously on a non-empty list. *)
          Obs.incr h.obs c_linear_fallback;
          linear_delete_min h
        end
        else begin
          Obs.incr h.obs c_spray;
          match spray h with
          | None ->
              Obs.incr h.obs c_linear_fallback;
              linear_delete_min h
          | Some node ->
              if Sk.try_take node then begin
                Sk.mark_node node;
                Some (Sk.node_key node, Sk.node_value node)
              end
              else begin
                Obs.incr h.obs c_collision;
                attempt (n + 1)
              end
        end
      in
      attempt 0
    end

  (* Batched delete (Pq_intf shape): each spray re-randomizes per item —
     that is the quality mechanism — so no bulk shortcut; loop. *)
  let try_delete_min_batch h n =
    Klsm_core.Pq_intf.pop_up_to (fun () -> try_delete_min h) n

  let approximate_size t = List.length (Sk.to_alive_list t.sk)
end

module Default = Make (Klsm_backend.Real)
