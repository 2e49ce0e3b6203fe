(** Decrease-key on top of the k-LSM, productizing the paper's §4.5
    workaround: "deleting a key and reinserting it with its new value",
    driven by the lazy-deletion hook so stale entries evaporate during
    block maintenance instead of requiring random deletion.

    Each logical element carries its current priority and a claim flag in
    one atomic state.  [decrease_key] CAS-lowers the priority, which also
    clears the claim, and reinserts, which condemns every older queue
    entry for the element (the queue's [should_delete] sees [entry
    priority > current priority]).  [try_delete_min] claims the element by
    a CAS that expects the entry's own priority unclaimed, so it is
    delivered exactly once per lowering — exactly the protocol the
    parallel SSSP uses with its distance array, generalized to arbitrary
    payloads.  With the two in one atomic, a lowering and a claim cannot
    interleave: whichever lands second sees the other, so a claim of a
    superseded entry fails and a lowering after a claim queues the element
    again. *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Klsm = Klsm.Make (B)

  type state = {
    prio : int;  (** current priority; [max_int] = not queued *)
    claimed : bool;  (** set when delivered by [try_delete_min] *)
  }

  type 'v element = { value : 'v; state : state B.atomic }

  type 'v t = {
    q : 'v element Klsm.t;
    consumed : int -> 'v element -> unit;
  }

  type 'v handle = { h : 'v element Klsm.handle; t : 'v t }

  (** A fresh, unqueued element wrapping [value]. *)
  let element value =
    { value; state = B.make { prio = max_int; claimed = false } }

  let value el = el.value
  let priority el = (B.get el.state).prio
  let is_claimed el = (B.get el.state).claimed

  (** [on_entry_consumed] fires once for every queue entry that is consumed
      {e without} being delivered — lazily dropped during block maintenance
      or skipped as stale inside {!try_delete_min}.  Together with one
      "consumption" per delivered element, every successful {!insert} is
      balanced, which lets applications (e.g. SSSP) run exact in-flight
      counters for termination detection. *)
  let create ?seed ?(k = 256) ?on_entry_consumed ~num_threads () =
    let consumed =
      match on_entry_consumed with Some f -> f | None -> fun _ _ -> ()
    in
    let q =
      Klsm.create_with ?seed ~k
        ~should_delete:(fun entry_prio el ->
          (* An entry is stale once the element was re-prioritized below it
             or already delivered. *)
          let st = B.get el.state in
          st.claimed || entry_prio > st.prio)
        ~on_lazy_delete:(fun entry_prio el -> consumed entry_prio el)
        ~num_threads ()
    in
    { q; consumed }

  let register t tid = { h = Klsm.register t.q tid; t }

  (* CAS-min on the priority, clearing the claim; true iff we lowered
     it. *)
  let rec lower el prio =
    let cur = B.get el.state in
    if prio >= cur.prio then false
    else if B.compare_and_set el.state cur { prio; claimed = false } then true
    else lower el prio

  (* Claim the element for an entry of priority [prio]: only while that is
     still its priority and nobody claimed it. *)
  let rec claim el prio =
    let cur = B.get el.state in
    if cur.claimed || cur.prio <> prio then false
    else if B.compare_and_set el.state cur { prio; claimed = true } then true
    else claim el prio

  (** [insert h el prio] (re-)queues [el] at [prio] if that improves on its
      current priority.  Returns [true] if the element was (re)inserted.
      Re-inserting an already-claimed element below the priority it was
      delivered at un-claims it and queues it again (re-activation). *)
  let insert handle el prio =
    if prio < 0 then invalid_arg "Keyed.insert: negative priority";
    if lower el prio then begin
      Klsm.insert handle.h prio el;
      true
    end
    else false

  (** Alias with the conventional name; equivalent to {!insert}. *)
  let decrease_key = insert

  (** Deliver the minimal-priority unclaimed element, claiming it.  Entries
      whose priority is stale are skipped (and lazily dropped by the queue);
      [None] may be spurious under concurrency, as for the plain k-LSM. *)
  let rec try_delete_min handle =
    match Klsm.try_delete_min handle.h with
    | None -> None
    | Some (entry_prio, el) ->
        if claim el entry_prio then Some (el, entry_prio)
        else begin
          (* Stale entry (superseded or already claimed): account for its
             consumption and keep looking. *)
          handle.t.consumed entry_prio el;
          try_delete_min handle
        end
end

module Default = Make (Klsm_backend.Real)
