(** Blocks: sorted arrays of item pointers (paper §3 and Listing 1).

    A block of level [l] physically holds [2^l] slots and logically holds
    [filled <= 2^l] items sorted in {e decreasing} key order, so the minimal
    key sits at index [filled - 1] and is readable in O(1).  Blocks are
    written only by the thread that creates them and become immutable upon
    publication, with the single exception of [filled].

    {b Who writes [filled]}: a builder ({!singleton}, {!of_sorted_array},
    {!copy}, {!copy_prefix}, {!merge}) fills its private arrays with plain
    stores under a local counter and stores [filled] once, at the end.  On
    a published block only two paths ever write it, and only downwards
    past dead items: consolidation's {!shrink}, and the DistLSM owner's
    {!peek_min} on its own thread-local blocks.  The paper lets any reader
    shrink [filled] as a benign race (§4.1); here the shared k-LSM's
    find-min never writes it — a reader records a dead tail it found in its
    private snapshot instead ({!Block_array}), so the [filled] lines of
    shared blocks stay clean in every other core's cache.  A stale, larger
    [filled] merely makes a reader inspect items that are already
    logically deleted.

    {b Structure of arrays}: alongside the boxed [items], every block keeps
    a contiguous unboxed [keys] array with [keys.(i) = Item.key items.(i)]
    for all [i < filled].  The merge/pivot/find-min kernels — the paper's
    memory-bandwidth-bound hot paths (§5) — compare raw ints streamed from
    [keys] and touch the boxed item only on final selection.  [keys] slots
    below [filled] are written before publication and never after, so they
    are safe to read without synchronization even while [filled] shrinks.

    {b Memory reuse} (paper §4.4, adapted to OCaml): a block is [Private]
    while under construction, [Published] once any other thread may reach
    it (a DistLSM slot, a shared snapshot, a CAS attempt), and [Retired]
    once its owner has handed its arrays back to its thread-local {!Pool}.
    Only [Private] blocks are ever retired — a published block's arrays can
    be pinned by spies and snapshot readers indefinitely, and for those we
    keep relying on the GC exactly as §4.4's remark permits.  Merge-cascade
    intermediates, which dominate allocation on the insert path, never get
    published and are recycled at once.

    Every mutating operation filters out items that are no longer [alive]
    (logically deleted, or condemned by the application's lazy-deletion
    predicate of §4.5).

    The [filter] is the Bloom filter of contributing thread ids used for
    local ordering semantics (§4.1); it is only ever updated before a block
    is published, so it needs no synchronization.

    {b Payload residency} (lib/store; docs/STORAGE.md): a block's boxed
    items are either [Resident] (an in-RAM array, the default) or [Spilled]
    (on disk in the content-addressed store, rehydrated on first selection
    and memoized).  The [keys] mirror is {e always} resident, which is what
    lets every decision path — pivots, min hints, merge ordering — run
    identically on spilled blocks; see {!items}. *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Item = Item.Make (B)
  module Bloom = Klsm_primitives.Bloom
  module Obs = Klsm_obs.Obs

  (* Observability of the block pool (lib/obs; docs/METRICS.md). *)
  let c_pool_hit = Obs.counter "pool.hit"
  let c_pool_miss = Obs.counter "pool.miss"
  let c_pool_bytes = Obs.counter "pool.bytes_avoided"

  type state =
    | Private  (** under construction; reachable only by its creator *)
    | Published  (** possibly reachable by other threads; never recycled *)
    | Retired  (** arrays handed back to the owner's pool; must be dead *)

  (** Where a block's boxed items live (lib/store; docs/STORAGE.md).  A
      [Resident] block is the classic in-RAM block.  A [Spilled] block's
      items sit in the content-addressed store under [ident]; only the
      [keys] mirror stays resident, so every find-min/pivot/merge {e
      decision} runs without touching the payload, and only item {e
      selection} faults it back in through {!items}.  [memo] caches the
      rehydrated array forever after (a block never flips back to
      [Resident]: an atomic [memo] read is the publication fence that makes
      cross-thread rehydration safe, and it is only paid on spilled
      blocks). *)
  type 'v cold = {
    fetch : unit -> 'v Item.t array;
        (** load + verify + journal; provided by the store layer *)
    note_memo : unit -> unit;  (** observability hook for memo hits *)
    claim : bool B.atomic;  (** rehydration mutual exclusion *)
    memo : 'v Item.t array option B.atomic;
    ident : string;  (** content digest, for tests and GC *)
  }

  and 'v payload = Resident of 'v Item.t array | Spilled of 'v cold

  type 'v t = {
    level : int;
    payload : 'v payload;
        (** [Resident]: capacity [2^level], descending keys.  [Spilled]:
            items on disk; [keys] holds exactly the serialized keys. *)
    keys : int array;  (** [keys.(i) = Item.key items.(i)] for [i < filled] *)
    filled : int B.atomic;
    mutable filter : Bloom.t;
    mutable state : state;
  }

  let capacity_of_level level = 1 lsl level

  let level t = t.level
  let filled t = B.get t.filled

  let capacity t =
    match t.payload with
    | Resident items -> Array.length items
    | Spilled _ -> Array.length t.keys

  let filter t = t.filter
  let state t = t.state
  let is_empty t = filled t = 0

  (** Is any part of this block's payload on disk (even if memoized back)? *)
  let is_spilled t =
    match t.payload with Resident _ -> false | Spilled _ -> true

  (** Is the payload {e only} on disk?  Cold blocks hold no dead items (the
      spiller claims items before serializing, so everything serialized is
      alive, and taking an item requires its in-RAM pointer): [shrink]
      exploits this to stay off the disk.  One atomic read on spilled
      blocks; a plain pattern match on resident ones. *)
  let is_cold t =
    match t.payload with
    | Resident _ -> false
    | Spilled c -> Option.is_none (B.get c.memo)

  (** Content digest of a spilled block ([None] for resident ones). *)
  let ident t =
    match t.payload with Resident _ -> None | Spilled c -> Some c.ident

  (** The boxed items without waiting.  Resident blocks: one pattern
      match, no atomics — the hot paths are unperturbed.  Spilled blocks:
      first access wins the [claim] CAS and runs [fetch] (disk read,
      digest verification, journal append); while that fetch is in flight
      every other caller gets [None] — selection paths treat such a block
      as transiently unavailable and pick elsewhere (the same transient
      the spill window itself already imposes, and well inside the
      relaxed semantics).  The memo is never demoted, so every item
      pointer ever handed out aliases the single canonical array —
      [Item.take] visibility works exactly as for resident blocks.  If
      [fetch] dies (corruption, chaos kill) the claim is released so
      another thread can retry. *)
  let try_items t =
    match t.payload with
    | Resident a -> Some a
    | Spilled c -> (
        match B.get c.memo with
        | Some a ->
            c.note_memo ();
            Some a
        | None ->
            if B.compare_and_set c.claim false true then begin
              match c.fetch () with
              | a ->
                  B.set c.memo (Some a);
                  Some a
              | exception e ->
                  B.set c.claim false;
                  raise e
            end
            else None)

  (** The boxed items, waiting out a concurrent fetch if there is one.
      For paths that cannot pick elsewhere (merges materialize the union
      whatever it costs). *)
  let rec items t =
    match try_items t with
    | Some a -> a
    | None ->
        (* A genuine yield, not cpu_relax: the claim holder is doing
           milliseconds of disk + digest work, and on oversubscribed
           cores a pause-loop waiter would starve it for timeslices. *)
        B.yield ();
        items t

  (* Writes under construction only ever target resident blocks. *)
  let resident_exn t =
    match t.payload with
    | Resident a -> a
    | Spilled _ -> invalid_arg "Block: write into a spilled block"

  (** Per-thread freelist of retired blocks, binned by level (paper §4.4's
      reuse scheme).  Strictly single-owner: only the owning thread ever
      acquires from or retires into its pool, so no synchronization is
      needed and the Sim backend schedule is unperturbed. *)
  module Pool = struct
    type 'v block = 'v t

    type 'v t = {
      slots : 'v block list array;  (** freelist per level *)
      counts : int array;
      obs : Obs.handle;
    }

    (* Levels above [max_level] are never pooled (a level-21 pair is
       ~32 MiB); [max_per_level] bounds retention of stale item pointers
       the recycled arrays keep alive until overwritten. *)
    let max_level = 21
    let max_per_level = 4

    let create ?(obs = Obs.null_handle) () =
      {
        slots = Array.make (max_level + 1) [];
        counts = Array.make (max_level + 1) 0;
        obs;
      }
  end

  (* Bytes a pool hit avoids allocating: one unboxed int array plus one
     pointer array, [2^level] words each. *)
  let bytes_per_slot = 2 * (Sys.word_size / 8)

  let pool_acquire (p : 'v Pool.t) lvl : 'v t option =
    if lvl <= Pool.max_level then begin
      match p.Pool.slots.(lvl) with
      | b :: rest ->
          p.Pool.slots.(lvl) <- rest;
          p.Pool.counts.(lvl) <- p.Pool.counts.(lvl) - 1;
          Obs.incr p.Pool.obs c_pool_hit;
          Obs.add p.Pool.obs c_pool_bytes (Array.length b.keys * bytes_per_slot);
          b.state <- Private;
          B.set b.filled 0;
          b.filter <- Bloom.empty;
          Some b
      | [] ->
          Obs.incr p.Pool.obs c_pool_miss;
          None
    end
    else begin
      Obs.incr p.Pool.obs c_pool_miss;
      None
    end

  (** Hand a block's arrays back to the owning thread's pool.  A no-op on
      [Published] blocks (spies/snapshots may still hold them — §4.4's GC
      fallback) and without a pool; callers therefore never need to track
      ownership at the call site.  Spilled blocks are marked dead but never
      pooled: their [keys] array has payload length, not [2^level], and
      their payload state must not leak into a recycled block. *)
  let retire ?pool t =
    match pool with
    | None -> ()
    | Some p -> (
        match t.state with
        | Published | Retired -> ()
        | Private -> (
            t.state <- Retired;
            match t.payload with
            | Spilled _ -> ()
            | Resident _ ->
                let l = t.level in
                if
                  l <= Pool.max_level
                  && p.Pool.counts.(l) < Pool.max_per_level
                then begin
                  p.Pool.slots.(l) <- t :: p.Pool.slots.(l);
                  p.Pool.counts.(l) <- p.Pool.counts.(l) + 1
                end))

  (** Mark a block reachable by other threads.  Must run before the
      publishing write (slot store / snapshot CAS): from then on the block
      must never be recycled.  Idempotent; a [Retired] block resurfacing
      here is a pooling bug and fails loudly. *)
  let publish t =
    match t.state with
    | Private -> t.state <- Published
    | Published -> ()
    | Retired -> failwith "Block.publish: retired block resurfaced"

  (* Blocks are always created from at least one source item, which doubles
     as the array filler for the unfilled tail (never read: readers stop at
     [filled]).  A pooled block keeps its previous tail contents instead —
     equally unread. *)
  let create_with_exemplar ?pool level exemplar =
    let fresh () =
      let cap = capacity_of_level level in
      {
        level;
        payload = Resident (Array.make cap exemplar);
        keys = Array.make cap 0;
        filled = B.make 0;
        filter = Bloom.empty;
        state = Private;
      }
    in
    match pool with
    | None -> fresh ()
    | Some p -> ( match pool_acquire p level with Some b -> b | None -> fresh ())

  (** [spilled ~level ~keys ~ident ...] is a cold block over a store object:
      [keys] (descending, exactly the serialized keys) is the resident
      mirror, [fetch] loads the items on first selection.  Built by the
      spill policy and by recovery (lib/store), never by the queue
      itself. *)
  let spilled ~level ~keys ~ident ~note_memo ~fetch =
    {
      level;
      payload =
        Spilled { fetch; note_memo; claim = B.make false; memo = B.make None; ident };
      keys;
      filled = B.make (Array.length keys);
      (* Cold blocks opt out of local-ordering peeks: an empty filter keeps
         find_min's Bloom loop from faulting the payload in. *)
      filter = Bloom.empty;
      state = Private;
    }

  (** [singleton ~filter item] is the level-0 block of one item. *)
  let singleton ?pool ~filter item =
    let b = create_with_exemplar ?pool 0 item in
    (resident_exn b).(0) <- item;
    b.keys.(0) <- Item.key item;
    B.set b.filled 1;
    b.filter <- filter;
    b

  (** [of_sorted_array ?alive ~filter items] is a block holding [items] —
      or, given [alive], those of them that are alive — whose keys must
      already be descending (checked); the level is the smallest whose
      capacity fits [items].  This is the bulk constructor for batch
      inserts, tests, benchmarks, and recovery planting — folding {!merge}
      over singletons is not equivalent: each merge allocates at
      [1 + max level], so an n-item fold transiently demands a
      [2^n]-capacity block. *)
  let of_sorted_array ?pool ?alive ~filter items =
    let n = Array.length items in
    if n = 0 then invalid_arg "Block.of_sorted_array: empty";
    let lvl = ref 0 in
    while capacity_of_level !lvl < n do
      incr lvl
    done;
    let b = create_with_exemplar ?pool !lvl items.(0) in
    let dst = resident_exn b and dk = b.keys in
    let prev = ref max_int and o = ref 0 in
    for i = 0 to n - 1 do
      let it = items.(i) in
      let k = Item.key it in
      if k > !prev then
        invalid_arg "Block.of_sorted_array: keys not descending";
      prev := k;
      if (match alive with None -> true | Some alive -> alive it) then begin
        dst.(!o) <- it;
        dk.(!o) <- k;
        incr o
      end
    done;
    B.set b.filled !o;
    b.filter <- filter;
    b

  (** Minimal key of the block in O(1): the last logically-held item.
      May be a deleted item; callers handle that (find-min falls back and
      retries after consolidation). *)
  let last_item t =
    let f = filled t in
    if f = 0 then None else Some (items t).(f - 1)

  (** First alive item scanning from the minimum upward; [None] if the whole
      block is dead.  DistLSM-only: the owner of a thread-local block
      publishes the shortened [filled] so the dead tail is skipped only
      once — the same benign race as [shrink], since writes only ever
      shrink past items that are already dead and a stale larger value
      merely re-exposes dead items (paper §4.1), and spies are the only
      other readers.  The shared k-LSM's find-min does not call this: it
      keeps the dead tails it finds in its own snapshot
      ({!Block_array.find_min}). *)
  let peek_min ~alive t =
    let f = filled t in
    let its = if f = 0 then [||] else items t in
    let rec scan i =
      if i < 0 then begin
        if f > 0 then B.set t.filled 0;
        None
      end
      else begin
        B.tick 1;
        let it = its.(i) in
        if alive it then begin
          if i < f - 1 then B.set t.filled (i + 1);
          Some it
        end
        else scan (i - 1)
      end
    in
    scan (f - 1)

  let iter ~f t =
    let fl = filled t in
    if fl > 0 then begin
      let its = items t in
      for i = 0 to fl - 1 do
        f its.(i)
      done
    end

  let to_list t =
    let fl = filled t in
    if fl = 0 then []
    else begin
      let its = items t in
      let acc = ref [] in
      for i = 0 to fl - 1 do
        acc := its.(i) :: !acc
      done;
      List.rev !acc
    end

  (** [copy ~alive t lvl] copies the alive items of [t] into a fresh block
      of level [lvl] (capacity must suffice, which callers guarantee since
      filtering only shrinks).  Like every builder, it fills the private
      arrays with plain stores and writes [filled] once, at the end. *)
  let copy ?pool ~alive t lvl =
    let f = filled t in
    let its = items t in
    let nb =
      create_with_exemplar ?pool lvl its.(if f = 0 then 0 else f - 1)
    in
    nb.filter <- t.filter;
    let dst = resident_exn nb and dk = nb.keys and sk = t.keys in
    let o = ref 0 in
    for i = 0 to f - 1 do
      let it = its.(i) in
      if alive it then begin
        dst.(!o) <- it;
        dk.(!o) <- sk.(i);
        incr o
      end
    done;
    B.set nb.filled !o;
    B.tick f;
    nb

  (** [copy_prefix ~alive t ~keep] copies the first [keep] entries of [t]
      (its {e largest} keys — entries [keep..filled-1] are the small tail a
      batch claim consumed) into a fresh block of the same level, filtering
      dead items on the way.  The Bloom filter is preserved: it already
      over-approximates the surviving subset, which is all local ordering
      needs.  The level is kept rather than shrunk so a rebuilt array keeps
      its strictly-decreasing-levels invariant without re-normalizing. *)
  let copy_prefix ?pool ~alive t ~keep =
    let its = items t in
    let nb = create_with_exemplar ?pool t.level its.(0) in
    nb.filter <- t.filter;
    let dst = resident_exn nb and dk = nb.keys and sk = t.keys in
    let o = ref 0 in
    for i = 0 to keep - 1 do
      let it = its.(i) in
      if alive it then begin
        dst.(!o) <- it;
        dk.(!o) <- sk.(i);
        incr o
      end
    done;
    B.set nb.filled !o;
    B.tick keep;
    nb

  (** [prefix_view t ~keep] is the O(1) form of {!copy_prefix} for a
      [Published] input: a fresh block {e record} sharing [t]'s arrays
      (and, when spilled, its cold payload and rehydration memo) with only
      the first [keep] entries visible.  No copying, no allocation beyond
      the record — the whole point of the batched claim's rebuild
      (DESIGN.md §17) is that removing a block's small tail must not cost
      a copy of its large prefix.  Safe because published arrays are
      immutable-shared and never pool-recycled (§4.4: the GC reclaims
      them; builders only ever write [Private] blocks), and the new record
      carries its own [filled] cell, so {!shrink}'s trims stay
      per-record.  Dead entries inside the kept
      prefix survive the view (unlike {!copy_prefix}'s alive filter);
      consolidation purges them exactly as it does in any snapshot.  The
      Bloom filter over-approximates the subset, as in {!copy_prefix}. *)
  let prefix_view t ~keep =
    B.tick 1;
    {
      level = t.level;
      payload = t.payload;
      keys = t.keys;
      filled = B.make keep;
      filter = t.filter;
      state = Published;
    }

  (** Two-way merge of [b1] and [b2] into a fresh block whose level always
      has room for both inputs; alive filtering happens on the way.  The
      Bloom filters are united — the only point where filters change.
      When a [pool] is given, [Private] inputs are retired after their
      contents are copied out: a private input to a pooled merge is by
      construction a dead cascade intermediate (published inputs are left
      untouched). *)
  let merge ?pool ~alive b1 b2 =
    let f1 = filled b1 and f2 = filled b2 in
    (* A spilled input rehydrates here: merging materializes the union, so
       the cold payload is needed in RAM anyway (its journal entry retires
       on fetch; the merged output is an ordinary resident block). *)
    let i1 = if f1 > 0 then items b1 else [||] in
    let i2 = if f2 > 0 then items b2 else [||] in
    let lvl = 1 + Int.max b1.level b2.level in
    let exemplar =
      if f1 > 0 then i1.(0)
      else if f2 > 0 then i2.(0)
      else invalid_arg "Block.merge: both blocks empty"
    in
    let nb = create_with_exemplar ?pool lvl exemplar in
    nb.filter <- Bloom.union b1.filter b2.filter;
    (* Inputs are descending; emit descending.  Compares stream the flat
       key arrays; the boxed item is only read to copy it over. *)
    let dst = resident_exn nb and dk = nb.keys in
    let k1 = b1.keys and k2 = b2.keys in
    let i = ref 0 and j = ref 0 and o = ref 0 in
    while !i < f1 && !j < f2 do
      let x = k1.(!i) and y = k2.(!j) in
      if x >= y then begin
        let it = i1.(!i) in
        if alive it then begin
          dst.(!o) <- it;
          dk.(!o) <- x;
          incr o
        end;
        incr i
      end
      else begin
        let it = i2.(!j) in
        if alive it then begin
          dst.(!o) <- it;
          dk.(!o) <- y;
          incr o
        end;
        incr j
      end
    done;
    while !i < f1 do
      let it = i1.(!i) in
      if alive it then begin
        dst.(!o) <- it;
        dk.(!o) <- k1.(!i);
        incr o
      end;
      incr i
    done;
    while !j < f2 do
      let it = i2.(!j) in
      if alive it then begin
        dst.(!o) <- it;
        dk.(!o) <- k2.(!j);
        incr o
      end;
      incr j
    done;
    B.set nb.filled !o;
    B.tick (f1 + f2);
    retire ?pool b1;
    retire ?pool b2;
    nb

  (** Listing 1's [shrink]: drop the dead tail, and if the block now fits a
      strictly smaller level, copy it down (recursively, because the copy
      filters dead items out of the middle too).  A [Private] input that is
      copied down is retired into [pool]. *)
  let rec shrink ?pool ~alive t =
    if is_cold t then t
      (* Cold blocks carry no dead items and no unfilled tail — there is
         nothing to shrink, and staying out of [items] is what keeps routine
         consolidations from faulting the whole cold tier back in. *)
    else begin
    let its = items t in
    let f = ref (filled t) in
    while !f > 0 && not (alive its.(!f - 1)) do
      B.tick 1;
      decr f
    done;
    let l = ref t.level in
    while !l > 0 && !f <= capacity_of_level (!l - 1) do
      decr l
    done;
    if !l < t.level then begin
      let c = copy ?pool ~alive t !l in
      retire ?pool t;
      shrink ?pool ~alive c
    end
    else begin
      (* Benign racy write: only ever decreases towards the true value. *)
      if !f < B.get t.filled then B.set t.filled !f;
      t
    end
    end

  (** Validate the block invariants (tests and chaos oracles): descending
      keys, filled within capacity, the SoA mirror
      [keys.(i) = Item.key items.(i)], and — the pool-safety oracle — that
      no [Retired] block is reachable from a live structure.  On cold
      blocks the mirror check is skipped (checking it would fault the
      payload in; the store layer verifies the digest and the key mirror on
      every rehydration instead). *)
  let check_invariants t =
    let f = filled t in
    if f < 0 || f > capacity t then failwith "Block: filled out of range";
    (match t.payload with
    | Resident items ->
        if Array.length t.keys <> Array.length items then
          failwith "Block: keys/items capacity mismatch"
    | Spilled c -> (
        match B.get c.memo with
        | None -> ()
        | Some items ->
            if Array.length t.keys <> Array.length items then
              failwith "Block: keys/items capacity mismatch"));
    (match t.state with
    | Retired -> failwith "Block: retired block reachable"
    | Private | Published -> ());
    for i = 0 to f - 2 do
      if t.keys.(i) < t.keys.(i + 1) then failwith "Block: keys not descending"
    done;
    if not (is_cold t) then begin
      let its = items t in
      for i = 0 to f - 1 do
        if t.keys.(i) <> Item.key its.(i) then
          failwith "Block: keys mirror out of sync"
      done
    end
end
