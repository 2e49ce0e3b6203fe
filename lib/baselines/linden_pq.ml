(** Skiplist-based priority queue in the style of Lindén & Jonsson
    (OPODIS'13) — the paper's representative exact (non-relaxed) lock-free
    priority queue (Figure 3).

    Delete-min walks the bottom level from the head and claims the first
    node whose [taken] flag it wins — one CAS on an uncontended-in-
    expectation cache line, instead of the remove-and-restructure of
    Lotan-Shavit.  Claimed nodes accumulate as a logically-deleted prefix
    that is physically unlinked in batches, only once it grows beyond
    [prefix_bound], so the expensive multi-level restructuring cost is
    amortized — the key idea of Lindén & Jonsson's "minimal memory
    contention" design. *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Sk = Skiplist.Make (B)
  module Xoshiro = Klsm_primitives.Xoshiro
  module Obs = Klsm_obs.Obs

  let prefix_bound = 32

  (* Observability (lib/obs; docs/METRICS.md): lost take races on the
     deleted prefix and the amortized physical restructures. *)
  let c_take_fail = Obs.counter "linden.take_fail"
  let c_restructure = Obs.counter "linden.restructure"

  type 'v t = { sk : 'v Sk.t; seed : int; obs : Obs.sheet }
  type 'v handle = { t : 'v t; rng : Xoshiro.t; obs : Obs.handle }

  let create_with ?(seed = 1) ~dummy ~num_threads () =
    {
      sk = Sk.create ~dummy ();
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
    if key < 0 then invalid_arg "Linden_pq.insert: negative key";
    ignore (Sk.insert h.t.sk ~rng:h.rng key value)

  (* Batched insert (Pq_intf): no bulk path in a skiplist; plain loop. *)
  let insert_batch h pairs =
    Array.iter (fun (key, value) -> insert h key value) pairs

  let try_delete_min h =
    let sk = h.t.sk in
    let rec walk prefix link =
      match Sk.follow link with
      | None -> None
      | Some n ->
          if Sk.try_take n then begin
            Sk.mark_node n;
            (* Batch the physical unlinking: restructure only when the dead
               prefix is long enough to amortize the multi-level repair. *)
            if prefix >= prefix_bound then begin
              Obs.incr h.obs c_restructure;
              ignore (Sk.search sk (Sk.node_key n + 1))
            end;
            Some (Sk.node_key n, Sk.node_value n)
          end
          else begin
            Obs.incr h.obs c_take_fail;
            B.tick 20;
            walk (prefix + 1) (Sk.next_bottom n)
          end
    in
    walk 0 (Sk.bottom_head sk)

  (* Batched delete (Pq_intf shape): no bulk path in a skiplist; loop. *)
  let try_delete_min_batch h n =
    Klsm_core.Pq_intf.pop_up_to (fun () -> try_delete_min h) n

  (** Alive length; O(n), for tests. *)
  let approximate_size t = List.length (Sk.to_alive_list t.sk)
end

module Default = Make (Klsm_backend.Real)
module _ : Klsm_core.Pq_intf.S = Default
