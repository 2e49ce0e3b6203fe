(** The distributed LSM priority queue (paper §4.2 and Listing 4).

    One instance per thread; only the owning thread mutates it, other
    threads read it non-destructively through [spy].  Consequently the block
    slots and [size] are atomics written in the publication order of
    Listing 4: a merged block is written into its slot {e before} [size]
    shrinks, so every item stays reachable to spies throughout (items may
    be observed twice during a merge, which is harmless because deletion is
    a test-and-set on the item itself).

    The [max_level] bound implements §4.3's spill rule: a merged block whose
    level would exceed [max_level] leaves the distributed LSM and is bulk-
    inserted into the shared k-LSM by the [spill] callback.  With
    [max_level = floor(log2 k) - 1], the total capacity of a thread-local
    LSM is [2^(max_level+1) - 1 <= k] items, the bound Lemma 2's
    rho = T*k relies on, while spilled blocks carry ~k/2..k items each —
    the batching that removes the shared bottleneck (§4.1). *)

(** Test-only teeth check for the chaos suite (shared by every functor
    instance): when set, {!Make.insert} publishes in the {e wrong} order —
    [size] before the merged block — recreating the bug Listing 4's
    ordering exists to prevent.  A crash injected between the two writes
    then permanently loses the items of the consumed blocks, which the
    conservation oracle of [bin/chaos.exe --teeth] must catch.  Never set
    outside tests. *)
let test_only_flip_publication_order = ref false

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Item = Item.Make (B)
  module Block = Block.Make (B)
  module Bloom = Klsm_primitives.Bloom
  module Xoshiro = Klsm_primitives.Xoshiro
  module Obs = Klsm_obs.Obs

  (* Observability (lib/obs; docs/METRICS.md).  The handle is the owning
     thread's, so every event lands in that thread's shard. *)
  let c_merge = Obs.counter "dist.merge"
  let c_spill = Obs.counter "dist.spill"
  let c_spill_items = Obs.counter "dist.spill_items"
  let c_consolidate = Obs.counter "dist.consolidate"
  let c_spy_blocks = Obs.counter "dist.spy_blocks"
  let c_spy_items = Obs.counter "dist.spy_items"
  let s_consolidate = Obs.span "dist.consolidate"

  (* 2^40 items per thread-local LSM is beyond any conceivable run. *)
  let max_levels = 40

  type 'v t = {
    blocks : 'v Block.t option B.atomic array;
    size : int B.atomic;
    tid : int;
    filter : Bloom.t;  (** singleton filter stamped on created blocks *)
    alive : 'v Item.t -> bool;
    obs : Obs.handle;  (** the owning thread's observability shard *)
    pool : 'v Block.Pool.t;
        (** the owning thread's block pool (§4.4 reuse); may be shared with
            the same thread's other components ({!Klsm.register}) *)
  }

  let create ?(obs = Obs.null_handle) ?pool ~tid ~hasher ~alive () =
    let pool =
      match pool with Some p -> p | None -> Block.Pool.create ~obs ()
    in
    {
      blocks = Array.init max_levels (fun _ -> B.make None);
      size = B.make 0;
      tid;
      filter = Bloom.singleton ~hasher tid;
      alive;
      obs;
      pool;
    }

  let tid t = t.tid
  let size t = B.get t.size

  let block_at t i = B.get t.blocks.(i)

  (** Spill threshold for relaxation parameter [k]: the largest level a
      local block may have.  [-1] means "nothing stays local" (k = 0 or 1:
      every insert goes straight to the shared component). *)
  let max_level_for_k k =
    if k <= 1 then -1 else Klsm_primitives.Bits.floor_log2 k - 1

  (** Total number of logically-held items (may count deleted ones). *)
  let total_filled t =
    let n = B.get t.size in
    let acc = ref 0 in
    for i = 0 to n - 1 do
      match B.get t.blocks.(i) with
      | Some b -> acc := !acc + Block.filled b
      | None -> ()
    done;
    !acc

  (** Listing 4's [insert], extended with the spill rule of §4.3.  The merge
      loop walks from the back (smallest levels); old blocks stay reachable
      until the merged block replaces them. *)
  let insert t item ~max_level ~spill =
    let alive = t.alive in
    let pool = t.pool in
    let b = ref (Block.singleton ~pool ~filter:t.filter item) in
    let i = ref (B.get t.size) in
    let continue_merge = ref true in
    while !continue_merge && !i > 0 do
      match B.get t.blocks.(!i - 1) with
      | None -> continue_merge := false
      | Some prev ->
          if Block.level prev <= Block.level !b then begin
            Obs.incr t.obs c_merge;
            (* [merge] retires the private cascade intermediate [!b] into
               the pool; [prev] is published and stays untouched. *)
            b := Block.shrink ~pool ~alive (Block.merge ~pool ~alive prev !b);
            decr i
          end
          else continue_merge := false
    done;
    if Block.is_empty !b then begin
      (* Everything merged away (all items dead): just drop the blocks we
         consumed.  The never-published merge result goes back to the
         pool. *)
      Block.retire ~pool !b;
      B.set t.size !i
    end
    else if Block.level !b > max_level then begin
      (* Spill: hand the merged block to the shared component FIRST so its
         items never become unreachable, then forget the consumed blocks. *)
      Obs.incr t.obs c_spill;
      Obs.add t.obs c_spill_items (Block.filled !b);
      Block.publish !b;
      spill !b;
      B.fault_point "dist.insert.spill";
      B.set t.size !i
    end
    else if !test_only_flip_publication_order then begin
      (* Deliberately wrong order (teeth check, see the flag above): a crash
         at the fault point strands the consumed blocks' items in slots the
         shrunken [size] no longer covers. *)
      Block.publish !b;
      B.set t.size (!i + 1);
      B.fault_point "dist.insert.pre_size";
      B.set t.blocks.(!i) (Some !b)
    end
    else begin
      (* Publish the merged block, then shrink [size]: redundant old blocks
         only become unreachable after the replacement is visible. *)
      Block.publish !b;
      B.set t.blocks.(!i) (Some !b);
      B.fault_point "dist.insert.pre_size";
      B.set t.size (!i + 1)
    end

  (** Minimal alive item across the thread-local blocks, cleaning dead
      tails opportunistically (the owner may decrement [filled] in place;
      spies tolerate stale values).  [None] iff no alive item remains. *)
  let find_min t =
    let alive = t.alive in
    let n = B.get t.size in
    (* Track the running best's key as a raw int: the loop never compares
       options structurally (polymorphic compare was the old hot-loop
       cost). *)
    let best = ref None in
    let best_key = ref max_int in
    for i = 0 to n - 1 do
      match B.get t.blocks.(i) with
      | None -> ()
      | Some b -> (
          match Block.peek_min ~alive b with
          | None -> ()
          | Some it ->
              let key = Item.key it in
              if Option.is_none !best || key < !best_key then begin
                best := Some it;
                best_key := key
              end)
    done;
    !best

  (** Rebuild the LSM without dead items, merging underflowing blocks.  The
      rebuilt blocks are published slot-by-slot before [size] shrinks, so
      spies never lose reachability (§4.2: consolidate "will only remove
      references to blocks being consolidated after the consolidated blocks
      are made available"). *)
  let consolidate t =
    Obs.incr t.obs c_consolidate;
    let t0 = Obs.span_begin t.obs in
    let alive = t.alive in
    let pool = t.pool in
    let n = B.get t.size in
    let survivors = ref [] in
    for i = n - 1 downto 0 do
      match B.get t.blocks.(i) with
      | None -> ()
      | Some b -> survivors := b :: !survivors
    done;
    (* [survivors] is largest level first; fold with a stack whose head is
       the smallest level so far, merging level collisions upward.  All
       stack blocks are private rebuilt copies, so the cascade's merges
       recycle their inputs through the pool. *)
    let rec go stack b =
      if Block.is_empty b then begin
        Block.retire ~pool b;
        stack
      end
      else
        match stack with
        | top :: rest when Block.level top <= Block.level b ->
            go rest (Block.shrink ~pool ~alive (Block.merge ~pool ~alive top b))
        | _ -> b :: stack
    in
    let stack =
      List.fold_left
        (fun stack b ->
          (* Copy first: unlike [shrink], a copy filters dead items out of
             the middle of the block too, so consolidate is a full
             cleanup.  The published original is never recycled. *)
          let b =
            Block.shrink ~pool ~alive
              (Block.copy ~pool ~alive b (Block.level b))
          in
          go stack b)
        [] !survivors
    in
    let arr = Array.of_list (List.rev stack) in
    let m = Array.length arr in
    for i = 0 to m - 1 do
      Block.publish arr.(i);
      B.set t.blocks.(i) (Some arr.(i))
    done;
    B.fault_point "dist.consolidate.pre_size";
    B.set t.size m;
    Obs.span_end t.obs s_consolidate t0


  (** Listing 4's non-destructive [spy]: copy the victim's blocks (alive
      items only) into [t], keeping only blocks that preserve the strictly-
      decreasing level invariant — the victim may mutate concurrently, and
      skipping a block is always safe because spy gives no guarantees about
      other threads' items.  Returns [true] if anything was copied.
      Precondition: [t] is empty (only called then, per §4.2). *)
  let spy t ~victim =
    let alive = t.alive in
    let vn = B.get victim.size in
    let n = ref (B.get t.size) in
    let copied = ref 0 in
    for i = 0 to min vn max_levels - 1 do
      B.fault_point "dist.spy.block";
      match B.get victim.blocks.(i) with
      | None -> ()
      | Some b ->
          let lvl = Block.level b in
          let ok =
            !n = 0
            ||
            match B.get t.blocks.(!n - 1) with
            | Some last -> lvl < Block.level last
            | None -> false
          in
          if ok then begin
            (* Copies draw from the spying thread's own pool ([t] is ours;
               [victim] is only read). *)
            let copy = Block.copy ~pool:t.pool ~alive b lvl in
            let copy = Block.shrink ~pool:t.pool ~alive copy in
            if Block.is_empty copy then Block.retire ~pool:t.pool copy
            else begin
              Block.publish copy;
              B.set t.blocks.(!n) (Some copy);
              incr n;
              B.set t.size !n;
              Obs.incr t.obs c_spy_blocks;
              copied := !copied + Block.filled copy
            end
          end
    done;
    Obs.add t.obs c_spy_items !copied;
    (* Report whether any *alive* item was actually acquired: returning true
       on a merely non-empty (dead) local LSM would let a caller's
       spy-and-retry loop spin forever on an exhausted queue. *)
    !copied > 0

  (** Detach and return this LSM's blocks, leaving it empty.  Requires
      exclusive access (no concurrent owner operations); see
      {!Klsm.meld}. *)
  let steal_all t =
    let n = B.get t.size in
    let acc = ref [] in
    B.set t.size 0;
    for i = n - 1 downto 0 do
      (match B.get t.blocks.(i) with
      | Some b -> acc := b :: !acc
      | None -> ());
      B.set t.blocks.(i) None
    done;
    !acc

  (** Iterate over all (possibly deleted) items; tests only. *)
  let iter_items t ~f =
    let n = B.get t.size in
    for i = 0 to n - 1 do
      match B.get t.blocks.(i) with
      | Some b -> Block.iter ~f b
      | None -> ()
    done

  (** Invariants for tests: strictly decreasing levels among live slots. *)
  let check_invariants t =
    let n = B.get t.size in
    let last_level = ref max_int in
    for i = 0 to n - 1 do
      match B.get t.blocks.(i) with
      | None -> failwith "Dist_lsm: null block within size"
      | Some b ->
          Block.check_invariants b;
          if Block.level b >= !last_level then
            failwith "Dist_lsm: levels not strictly decreasing";
          last_level := Block.level b
    done
end
