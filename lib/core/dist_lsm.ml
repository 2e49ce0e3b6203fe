(** The distributed LSM priority queue (paper §4.2 and Listing 4).

    One instance per thread; only the owning thread mutates it, other
    threads read it non-destructively through [spy].  Consequently the block
    slots and [size] are atomics written in the publication order of
    Listing 4: a merged block is written into its slot {e before} [size]
    shrinks, so every item stays reachable to spies throughout (items may
    be observed twice during a merge, which is harmless because deletion is
    a test-and-set on the item itself).  Listing 4's merge loop runs as one
    pass ({!Block.carry}): an insert builds one block, the one it
    publishes, however many slots it consumes.

    Those atomics are the owner's {e publication to spies}, not its working
    state.  The owner keeps a private view of what it published — the slot
    count and the slot blocks, each copy written right after its atomic, so
    the two agree at every fault point — plus, per slot, its own count of
    the block's entries, a lower bound on the block's smallest alive key,
    and the two slots whose bounds are smallest.  The count is the one the
    build reported, lowered by the owner's peeks past dead items, so an
    insert, a find-min or a local delete never reads or writes a slot
    block's atomic [filled]: that cell keeps the count the block was built
    with, which spies read and which overstates only by dead items they
    filter.  [find_min] answers from that view with a peek of one block
    instead of a walk over every level (see {!find_min}).

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
  let c_bound_scan = Obs.counter "dist.bound_scan"
  let c_stale_repeek = Obs.counter "dist.stale_repeek"
  let s_consolidate = Obs.span "dist.consolidate"

  (* 2^40 items per thread-local LSM is beyond any conceivable run. *)
  let max_levels = 40

  type 'v t = {
    blocks : 'v Block.t option B.atomic array;
        (** the slots as published to spies (Listing 4) *)
    size : int B.atomic;  (** the slot count as published to spies *)
    slots : 'v Block.t option array;
        (** the owner's copy of [blocks]: each entry is the very value the
            owner last stored into the matching atomic *)
    mutable len : int;  (** the owner's copy of [size] *)
    fills : int array;
        (** per slot, the owner's count of the block's entries: the count
            its build reported, lowered by every peek past dead items; at
            most the block's [filled], and no untaken item sits at or past
            it *)
    bounds : int array;
        (** per slot, a lower bound on the block's smallest alive key:
            exact when the block is built, raised by every peek (to
            [max_int] once a peek finds the block dead) *)
    mutable cached : bool;  (** [best] and [runner] are current *)
    mutable best : int;
        (** the slot with the smallest [(bound, slot)] pair; [-1]: no slot
            holds an alive item *)
    mutable runner : int;
        (** the slot with the next smallest pair; [-1]: no slot but [best]
            holds an alive item *)
    tid : int;
    filter : Bloom.t;  (** singleton filter stamped on created blocks *)
    alive : 'v Item.t -> bool;
    obs : Obs.handle;  (** the owning thread's observability shard *)
    pool : 'v Block.Pool.t;
        (** the owning thread's block pool (§4.4 reuse); may be shared with
            the same thread's other components ({!Klsm.register}) *)
    carry : Block.Carry.t;
        (** {!Block.carry}'s scratch: one source per slot and one for the
            new item *)
  }

  let create ?(obs = Obs.null_handle) ?pool ~tid ~hasher ~alive () =
    let pool =
      match pool with Some p -> p | None -> Block.Pool.create ~obs ()
    in
    {
      blocks = Array.init max_levels (fun _ -> B.make None);
      size = B.make 0;
      slots = Array.make max_levels None;
      len = 0;
      fills = Array.make max_levels 0;
      bounds = Array.make max_levels max_int;
      cached = false;
      best = -1;
      runner = -1;
      tid;
      filter = Bloom.singleton ~hasher tid;
      alive;
      obs;
      pool;
      carry = Block.Carry.create (max_levels + 1);
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

  (* The publication writes, each followed at once by the owner's copy.
     [b] is non-empty with [f] items, so its smallest key is its exact
     bound. *)
  let publish_slot t i b f =
    let slot = Some b in
    B.set t.blocks.(i) slot;
    t.slots.(i) <- slot;
    t.fills.(i) <- f;
    t.bounds.(i) <- b.Block.keys.(f - 1)

  let publish_size t n =
    B.set t.size n;
    t.len <- n

  (* Does slot [i] come before slot [j] in the find-min order: smaller
     bound, ties to the lower slot (the order of a full scan)? *)
  let precedes t i j =
    let bi = t.bounds.(i) and bj = t.bounds.(j) in
    bi < bj || (bi = bj && i < j)

  (* Let slot [i] take its place among the best and runner-up slots. *)
  let consider t i =
    if t.best < 0 || precedes t i t.best then begin
      t.runner <- t.best;
      t.best <- i
    end
    else if t.runner < 0 || precedes t i t.runner then t.runner <- i

  (** Listing 4's [insert], extended with the spill rule of §4.3.  The
      carry chain is the run of trailing slots that Listing 4's loop of
      two-way merges would consume (it merges while the next slot's level
      is at most the merged block's), found from the slots' levels and the
      owner's fill counts; {!Block.carry} merges it with the new item in
      one pass, and with no chain the new item is a singleton.  Fill
      counts can include dead items, so a chain can run longer than the
      loop's filtering merges would; the block still lands below the slot
      that stopped it.  The new block's count is the one the build
      reports, so the insert's only writes are the slot and [size].
      Old blocks stay reachable until the merged block replaces them.  A
      chain that consumes the cached best or runner-up slot drops the
      find-min cache; otherwise the new slot's bound takes its place among
      the two. *)
  let insert t item ~max_level ~spill =
    let alive = t.alive in
    let pool = t.pool in
    let c = t.carry in
    let i = ref t.len and lvl = ref 0 and total = ref 1 in
    let continue_chain = ref true in
    while !continue_chain && !i > 0 do
      match t.slots.(!i - 1) with
      | Some prev when Block.level prev <= !lvl ->
          decr i;
          let f = t.fills.(!i) in
          c.Block.Carry.fill.(!i) <- f;
          total := !total + f;
          while Block.capacity_of_level !lvl < !total do
            incr lvl
          done
      | _ -> continue_chain := false
    done;
    let i = !i in
    let b =
      if i = t.len then Block.singleton ~pool ~filter:t.filter item
      else begin
        Obs.add t.obs c_merge (t.len - i);
        Block.carry ~pool ~alive ~filter:t.filter c t.slots ~first:i
          ~last:t.len item
      end
    in
    if t.best >= i || t.runner >= i then t.cached <- false;
    let f = if i = t.len then 1 else c.Block.Carry.count in
    if f = 0 then begin
      (* Everything merged away (all items dead): just drop the blocks we
         consumed.  The never-published output goes back to the pool. *)
      Block.retire ~pool b;
      publish_size t i
    end
    else if Block.level b > max_level then begin
      (* Spill: hand the merged block to the shared component FIRST so its
         items never become unreachable, then forget the consumed blocks. *)
      Obs.incr t.obs c_spill;
      Obs.add t.obs c_spill_items f;
      Block.publish b;
      spill b;
      B.fault_point "dist.insert.spill";
      publish_size t i
    end
    else begin
      Block.publish b;
      if !test_only_flip_publication_order then begin
        (* Deliberately wrong order (teeth check, see the flag above): a
           crash at the fault point strands the consumed blocks' items in
           slots the shrunken [size] no longer covers. *)
        publish_size t (i + 1);
        B.fault_point "dist.insert.pre_size";
        publish_slot t i b f
      end
      else begin
        (* Publish the merged block, then shrink [size]: redundant old
           blocks only become unreachable after the replacement is
           visible. *)
        publish_slot t i b f;
        B.fault_point "dist.insert.pre_size";
        publish_size t (i + 1)
      end;
      if t.cached then consider t i
    end

  (* Recompute the best and runner-up slots from the bounds: plain ints,
     charged as work. *)
  let scan_bounds t =
    Obs.incr t.obs c_bound_scan;
    B.tick t.len;
    t.best <- -1;
    t.runner <- -1;
    for i = 0 to t.len - 1 do
      consider t i
    done;
    t.cached <- true

  (* Peek slot [i]'s block: skip its dead tail, lower the owner's fill
     count past it, and raise the slot's bound to what the peek found. *)
  let peek t i =
    match t.slots.(i) with
    | None -> None
    | Some b ->
        let f = Block.alive_end ~alive:t.alive b t.fills.(i) in
        t.fills.(i) <- f;
        if f = 0 then begin
          t.bounds.(i) <- max_int;
          None
        end
        else begin
          t.bounds.(i) <- b.Block.keys.(f - 1);
          Some (Block.items b).(f - 1)
        end

  (** Minimal alive item across the thread-local blocks, ties to the lower
      slot — the item a walk peeking every block would return — or [None]
      iff no alive item remains.  It peeks the cached best slot only: the
      answer stands when its key still precedes the runner-up's bound,
      which lower-bounds every other slot.  When it does not (a spy, the
      owner or lazy deletion killed the items the bound was set from), the
      bounds are scanned again and the new best is peeked.  A bound of
      [max_int] cannot tell a dead block from one holding only [max_int]
      keys, so when the smallest bound is [max_int] the blocks are peeked
      in slot order.  A block found dead stays dead (items are never
      revived and fill counts only shrink), so once every block is found
      dead the answer is [None] without a peek until the slots change. *)
  let find_min t =
    let rec go () =
      if not t.cached then scan_bounds t;
      let i = t.best and j = t.runner in
      if i < 0 then None
      else if t.bounds.(i) = max_int then walk 0
      else
        match peek t i with
        | Some _ as found when j < 0 || precedes t i j -> found
        | None when j < 0 ->
            t.best <- -1;
            None
        | _ ->
            Obs.incr t.obs c_stale_repeek;
            t.cached <- false;
            go ()
    and walk i =
      if i >= t.len then begin
        t.best <- -1;
        t.runner <- -1;
        None
      end
      else match peek t i with Some _ as found -> found | None -> walk (i + 1)
    in
    go ()

  (** Rebuild the LSM without dead items, merging underflowing blocks.  The
      rebuilt blocks are published slot-by-slot before [size] shrinks, so
      spies never lose reachability (§4.2: consolidate "will only remove
      references to blocks being consolidated after the consolidated blocks
      are made available").  An LSM with no slots has nothing to rebuild:
      it returns at once, without republishing [size] (a line spies read)
      or dropping the find-min cache. *)
  let consolidate t =
    if t.len > 0 then begin
      Obs.incr t.obs c_consolidate;
      let t0 = Obs.span_begin t.obs in
      let alive = t.alive in
      let pool = t.pool in
      (* Slots below [len] always hold a block; the first one fills the
         stack's unused entries. *)
      let stack = Array.make t.len (Option.get t.slots.(0)) in
      let sp = ref 0 in
      (* Slots are largest level first.  All stack blocks are private
         rebuilt copies, so the cascade's merges recycle their inputs
         through the pool. *)
      for i = 0 to t.len - 1 do
        match t.slots.(i) with
        | None -> ()
        | Some b ->
            (* Copy first: unlike [shrink], a copy filters dead items out
               of the middle of the block too, so consolidate is a full
               cleanup.  The published original is never recycled. *)
            let b =
              Block.shrink ~pool ~alive
                (Block.copy ~pool ~alive b (Block.level b))
            in
            ignore (Block.cascade ~pool ~alive stack sp b)
      done;
      let m = !sp in
      t.cached <- false;
      for i = 0 to m - 1 do
        Block.publish stack.(i);
        publish_slot t i stack.(i) (Block.filled stack.(i))
      done;
      B.fault_point "dist.consolidate.pre_size";
      publish_size t m;
      Obs.span_end t.obs s_consolidate t0
    end

  (** Listing 4's non-destructive [spy]: copy the victim's blocks (alive
      items only) into [t], keeping only blocks that preserve the strictly-
      decreasing level invariant — the victim may mutate concurrently, and
      skipping a block is always safe because spy gives no guarantees about
      other threads' items.  Returns [true] if anything was copied.
      Precondition: [t] is empty (only called then, per §4.2).  The copies
      are appended after [t]'s {e published} size, from which the owner's
      view is re-derived: an LSM whose published state was cleared by hand
      (benchmark/kernels.ml's spy kernel resets its thief that way) is
      spied into from slot 0. *)
  let spy t ~victim =
    let alive = t.alive in
    let vn = B.get victim.size in
    let n = ref (B.get t.size) in
    t.len <- !n;
    t.cached <- false;
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
            match t.slots.(!n - 1) with
            | Some last -> lvl < Block.level last
            | None -> false
          in
          if ok then begin
            (* Copies draw from the spying thread's own pool ([t] is ours;
               [victim] is only read). *)
            let copy = Block.copy ~pool:t.pool ~alive b lvl in
            let copy = Block.shrink ~pool:t.pool ~alive copy in
            let f = Block.filled copy in
            if f = 0 then Block.retire ~pool:t.pool copy
            else begin
              Block.publish copy;
              publish_slot t !n copy f;
              incr n;
              publish_size t !n;
              Obs.incr t.obs c_spy_blocks;
              copied := !copied + f
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
    publish_size t 0;
    t.cached <- false;
    for i = n - 1 downto 0 do
      (match B.get t.blocks.(i) with
      | Some b -> acc := b :: !acc
      | None -> ());
      B.set t.blocks.(i) None;
      t.slots.(i) <- None
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

  (** Invariants for tests and the chaos oracles: strictly decreasing
      levels among live slots; the owner's view equals what it published;
      every slot's fill count is at most its block's [filled], with no
      untaken item at or past it (a peek lowers the count only past items
      [alive] rejects, and it rejects only taken ones: lazy deletion takes
      what it condemns); and every slot's bound is at most the
      key of every item of its block not yet taken — which includes every
      alive one, and holds because a bound is set from the alive items a
      merge or copy kept or from a peek that stopped at the block's
      smallest alive item. *)
  let check_invariants t =
    let n = B.get t.size in
    if t.len <> n then failwith "Dist_lsm: owner's length differs from size";
    let last_level = ref max_int in
    for i = 0 to n - 1 do
      let slot = B.get t.blocks.(i) in
      if slot != t.slots.(i) then
        failwith "Dist_lsm: owner's slot differs from the published one";
      match slot with
      | None -> failwith "Dist_lsm: null block within size"
      | Some b ->
          Block.check_invariants b;
          if Block.level b >= !last_level then
            failwith "Dist_lsm: levels not strictly decreasing";
          last_level := Block.level b;
          let fill = t.fills.(i) in
          if fill < 0 || fill > Block.filled b then
            failwith "Dist_lsm: owner's fill count above filled";
          let its = Block.items b in
          for j = 0 to Block.filled b - 1 do
            let it = its.(j) in
            if not (Item.is_taken it) then begin
              if j >= fill then
                failwith "Dist_lsm: untaken item past the owner's fill count";
              if Item.key it < t.bounds.(i) then
                failwith "Dist_lsm: bound above an alive key"
            end
          done
    done
end
