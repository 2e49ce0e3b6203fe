(** Blocks: sorted arrays of item pointers (paper §3 and Listing 1).

    A block of level [l] physically holds [2^l] slots and logically holds
    [filled <= 2^l] items sorted in {e decreasing} key order, so the minimal
    key sits at index [filled - 1] and is readable in O(1).  Blocks are
    written only by the thread that creates them and become immutable upon
    publication, with the single exception of [filled].

    {b Who writes [filled]}: no builder, and on a built block only
    consolidation's {!shrink}, downwards past dead items.  A builder
    ({!singleton}, {!of_sorted_array}, {!copy}, {!merge}, {!carry}) fills
    its arrays with plain stores under a local counter and only then makes
    the record, whose [filled] cell is born holding that count.  The paper
    lets any reader shrink [filled] as a benign race (§4.1); here no reader
    does.  The shared k-LSM's find-min records a dead tail it found in its
    private snapshot instead ({!Block_array}), and the DistLSM owner keeps
    a private fill count per slot that its own peek lowers ({!Dist_lsm},
    through {!alive_end}).  So the [filled] lines stay clean in every other
    core's cache, and a stale, larger [filled] merely makes a reader (a
    spy, a snapshot reader) inspect items that are already logically
    deleted.

    {b Structure of arrays}: alongside the boxed [items], every block keeps
    a contiguous unboxed [keys] array with [keys.(i) = Item.key items.(i)]
    for all [i < filled].  The merge/pivot/find-min kernels — the paper's
    memory-bandwidth-bound hot paths (§5) — compare raw ints streamed from
    [keys] and touch the boxed item only on final selection.  [keys] slots
    below [filled] are written before publication and never after, so they
    are safe to read without synchronization even while [filled] shrinks.

    {b Memory reuse} (paper §4.4, adapted to OCaml): a block is [Private]
    while only the thread that built it can reach it, [Published] once any
    other thread may reach it (a DistLSM slot, a shared snapshot, a CAS
    attempt), and [Retired] once its owner has handed its arrays back to
    its thread-local {!Pool}, which keeps arrays, not blocks: a builder
    takes an [(items, keys)] pair from it and makes a fresh record around
    it.  Only [Private] blocks are ever retired — a published block's
    arrays can be pinned by spies and snapshot readers indefinitely, and
    for those we keep relying on the GC exactly as §4.4's remark permits.
    What gets recycled is the intermediates of consolidation and
    shrinking, which are never published; the thread-local insert builds
    none ({!carry} merges its whole chain into the one block it
    publishes).

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
    lets every decision path — pivots, min bounds, merge ordering — run
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

  (* The least level whose capacity is at least [n]. *)
  let level_for n =
    let l = ref 0 in
    while capacity_of_level !l < n do
      incr l
    done;
    !l

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

  (** Per-thread freelist of the arrays of retired blocks, binned by level
      (paper §4.4's reuse scheme): each entry is an [(items, keys)] pair
      of capacity [2^level].  Strictly single-owner: only the owning thread
      ever acquires from or retires into its pool, so no synchronization is
      needed and the Sim backend schedule is unperturbed. *)
  module Pool = struct
    type 'v t = {
      slots : ('v Item.t array * int array) list array;
          (** freelist per level *)
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

  (* Hand a level-[l] array pair to [p], if it has room for one more. *)
  let recycle (p : 'v Pool.t) l pair =
    if l <= Pool.max_level && p.Pool.counts.(l) < Pool.max_per_level then begin
      p.Pool.slots.(l) <- pair :: p.Pool.slots.(l);
      p.Pool.counts.(l) <- p.Pool.counts.(l) + 1
    end

  (** Hand a block's arrays back to the owning thread's pool.  A no-op on
      [Published] blocks (spies/snapshots may still hold them — §4.4's GC
      fallback) and without a pool; callers therefore never need to track
      ownership at the call site.  Spilled blocks are marked dead but never
      pooled: their [keys] array has payload length, not [2^level]. *)
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
            | Resident items -> recycle p t.level (items, t.keys)))

  (** Mark a block reachable by other threads.  Must run before the
      publishing write (slot store / snapshot CAS): from then on the block
      must never be recycled.  Idempotent; a [Retired] block resurfacing
      here is a pooling bug and fails loudly. *)
  let publish t =
    match t.state with
    | Private -> t.state <- Published
    | Published -> ()
    | Retired -> failwith "Block.publish: retired block resurfaced"

  (* The arrays a builder of a level-[level] block fills: a pair from the
     pool, or fresh ones.  Blocks are always built from at least one
     source item, which doubles as the filler of a fresh array's unfilled
     tail (never read: readers stop at [filled]); a pooled pair keeps its
     previous tail contents instead — equally unread. *)
  let arrays ?pool level exemplar =
    let fresh () =
      let cap = capacity_of_level level in
      (Array.make cap exemplar, Array.make cap 0)
    in
    match pool with
    | None -> fresh ()
    | Some (p : 'v Pool.t) -> (
        match if level <= Pool.max_level then p.Pool.slots.(level) else [] with
        | ((_, keys) as pair) :: rest ->
            p.Pool.slots.(level) <- rest;
            p.Pool.counts.(level) <- p.Pool.counts.(level) - 1;
            Obs.incr p.Pool.obs c_pool_hit;
            Obs.add p.Pool.obs c_pool_bytes
              (Array.length keys * bytes_per_slot);
            pair
        | [] ->
            Obs.incr p.Pool.obs c_pool_miss;
            fresh ())

  (* The record a builder makes once its arrays hold [n] items: its
     [filled] cell is born holding [n], so the build stores no [filled]. *)
  let built level items keys n filter =
    {
      level;
      payload = Resident items;
      keys;
      filled = B.make n;
      filter;
      state = Private;
    }

  (** [spilled ~level ~keys ~filter ~ident ...] is a cold block over a
      store object: [keys] (descending, exactly the serialized keys) is the
      resident mirror, [fetch] loads the items on first selection.
      [filter] is the spilled block's, so local ordering keeps seeing its
      contributors' items.  Built by the spill policy and by recovery
      (lib/store), never by the queue itself. *)
  let spilled ~level ~keys ~filter ~ident ~note_memo ~fetch =
    {
      level;
      payload =
        Spilled { fetch; note_memo; claim = B.make false; memo = B.make None; ident };
      keys;
      filled = B.make (Array.length keys);
      filter;
      state = Private;
    }

  (** [singleton ~filter item] is the level-0 block of one item. *)
  let singleton ?pool ~filter item =
    let dst, dk = arrays ?pool 0 item in
    dst.(0) <- item;
    dk.(0) <- Item.key item;
    built 0 dst dk 1 filter

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
    let lvl = level_for n in
    let dst, dk = arrays ?pool lvl items.(0) in
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
    built lvl dst dk !o filter

  (** Minimal key of the block in O(1): the last logically-held item.
      May be a deleted item; callers handle that (find-min falls back and
      retries after consolidation). *)
  let last_item t =
    let f = filled t in
    if f = 0 then None else Some (items t).(f - 1)

  (** [alive_end ~alive t f] is where the alive part of [t]'s first [f]
      entries ends: [i + 1] for the alive entry [i < f] nearest the
      minimum, or [0] when all [f] are dead.  It scans from the minimum
      upward and writes nothing.  DistLSM-only: the owner of a thread-local
      block keeps the result as its private fill count of the block, so
      each dead tail is scanned once, and [filled] stays what the build
      made it; spies, its only other readers, filter the dead items it
      still covers.  The shared k-LSM's find-min does not call this: it
      keeps the dead tails it finds in its own snapshot
      ({!Block_array.find_min}). *)
  let alive_end ~alive t f =
    if f = 0 then 0
    else begin
      let its = items t in
      let rec scan i =
        if i < 0 then 0
        else begin
          B.tick 1;
          if alive its.(i) then i + 1 else scan (i - 1)
        end
      in
      scan (f - 1)
    end

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
      filtering only shrinks).  Like every builder, it fills its arrays
      with plain stores and makes the record last. *)
  let copy ?pool ~alive t lvl =
    let f = filled t in
    let its = items t in
    let dst, dk = arrays ?pool lvl its.(if f = 0 then 0 else f - 1) in
    let sk = t.keys in
    let o = ref 0 in
    for i = 0 to f - 1 do
      let it = its.(i) in
      if alive it then begin
        dst.(!o) <- it;
        dk.(!o) <- sk.(i);
        incr o
      end
    done;
    B.tick f;
    built lvl dst dk !o t.filter

  (** [prefix_view t ~keep] is a view of the first [keep] entries of a
      [Published] block [t] (its {e largest} keys — entries
      [keep..filled-1] are the small tail a batch claim consumed): a fresh
      block {e record} of the same level sharing [t]'s arrays (and, when
      spilled, its cold payload and rehydration memo).  No copying, no
      allocation beyond the record — the whole point of the batched
      claim's rebuild (DESIGN.md §17) is that removing a block's small tail
      must not cost a copy of its large prefix.  Safe because published
      arrays are immutable-shared and never pool-recycled (§4.4: the GC
      reclaims them; builders only ever write [Private] blocks), and the
      new record carries its own [filled] cell, so {!shrink}'s trims stay
      per-record.  The level is kept, so a rebuilt array keeps its
      strictly-decreasing-levels invariant without re-normalizing.  Dead
      entries inside the kept prefix survive the view; consolidation
      purges them exactly as it does in any snapshot.  The Bloom filter is
      [t]'s, which over-approximates the subset — all local ordering
      needs. *)
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
    let dst, dk = arrays ?pool lvl exemplar in
    (* Inputs are descending; emit descending.  Compares stream the flat
       key arrays; the boxed item is only read to copy it over. *)
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
    B.tick (f1 + f2);
    let nb = built lvl dst dk !o (Bloom.union b1.filter b2.filter) in
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

  (** Owner-private scratch of {!carry}, indexed by source: each source's
      fill count (the caller's count of its entries), read position and
      head key, and per suffix of the sources the one the pass emits from
      next; and the count of the block the last pass built.  Ints only, so
      it pins no item between passes. *)
  module Carry = struct
    type t = {
      fill : int array;
      pos : int array;
      head : int array;
      win : int array;
          (** one entry longer than the others: the entry past the last
              source is [-1] and ends every suffix *)
      mutable count : int;  (** the built block's item count *)
    }

    let create n =
      {
        fill = Array.make n 0;
        pos = Array.make n 0;
        head = Array.make n 0;
        win = Array.make (n + 1) (-1);
        count = 0;
      }
  end

  let source srcs s =
    match srcs.(s) with
    | Some b -> b
    | None -> invalid_arg "Block.carry: no block in a source slot"

  (* The boxed items of a source without the option [items] returns. *)
  let loaded b = match b.payload with Resident a -> a | Spilled _ -> items b

  (** [carry ~alive ~filter c srcs ~first ~last item] is Listing 4's
      insert cascade in one pass.  The sources are the blocks
      [srcs.(first) .. srcs.(last - 1)] (each [Some], levels decreasing,
      [c.fill.(s)] holding the caller's count of each one's entries: the
      DistLSM owner's private fill counts, which cover every alive item)
      and [item] as source [last].  The result is the block that merging
      [item] with [srcs.(last - 1)], that with [srcs.(last - 2)], and so on
      with {!merge} and {!shrink} would give, ties included, but no block
      is built per level: the pass writes each alive item once into arrays
      of the least level that fits every source item, reading each item's
      liveness once, and when it dropped one moves them down to the least
      level that fits what it kept.  An item pays one key comparison per
      merge the cascade would have passed it through; every comparison and
      item move is charged to [B.tick].  The filter is the union of the
      sources' and [filter].  The block's count is left in [c.count], so
      the caller need not read [filled]. *)
  let carry ?pool ~alive ~filter (c : Carry.t) srcs ~first ~last item =
    let fill = c.fill and pos = c.pos and head = c.head and win = c.win in
    let total = ref 1 and fl = ref filter in
    for s = first to last - 1 do
      let b = source srcs s in
      total := !total + fill.(s);
      fl := Bloom.union !fl b.filter;
      pos.(s) <- 0;
      if fill.(s) > 0 then head.(s) <- b.keys.(0)
    done;
    fill.(last) <- 1;
    pos.(last) <- 0;
    head.(last) <- Item.key item;
    win.(last + 1) <- -1;
    let lvl = level_for !total in
    (* The filler is the largest block's first item rather than [item]:
       a fresh array too large for the minor heap made with a young filler
       forces a minor collection. *)
    let dst, dk = arrays ?pool lvl (loaded (source srcs first)).(0) in
    let work = ref 0 and o = ref 0 in
    (* [win.(d)] is the source among [d .. last] whose head comes next —
       the largest key, ties to the lower source, as each two-way merge
       takes its older (lower-slot) input first on a tie — or [-1] once
       they are all exhausted.  Emitting from [s] changes it only for
       [d <= s]. *)
    let from = ref last and go = ref true in
    while !go do
      for d = !from downto first do
        let below = win.(d + 1) in
        if pos.(d) >= fill.(d) then win.(d) <- below
        else if below < 0 then win.(d) <- d
        else begin
          incr work;
          win.(d) <- (if head.(d) >= head.(below) then d else below)
        end
      done;
      let s = win.(first) in
      if s < 0 then go := false
      else begin
        let k = head.(s) and p = pos.(s) in
        pos.(s) <- p + 1;
        let it =
          if s = last then item
          else begin
            let b = source srcs s in
            if p + 1 < fill.(s) then head.(s) <- b.keys.(p + 1);
            (loaded b).(p)
          end
        in
        if alive it then begin
          dst.(!o) <- it;
          dk.(!o) <- k;
          incr o
        end;
        incr work;
        from := s
      end
    done;
    B.tick !work;
    let o = !o in
    c.count <- o;
    let fit = level_for o in
    if fit = lvl then built lvl dst dk o !fl
    else begin
      (* Where {!shrink} would copy the block down, the kept items move to
         the least level that fits them; an item taken since the pass read
         it stays, a dead item like those any block may hold. *)
      let fd, fk = arrays ?pool fit dst.(0) in
      Array.blit dst 0 fd 0 o;
      Array.blit dk 0 fk 0 o;
      B.tick o;
      Option.iter (fun p -> recycle p lvl (dst, dk)) pool;
      built fit fd fk o !fl
    end

  (** §3's merge cascade, one block at a time: push [b] onto
      [stack.(0 .. !sp - 1)], which holds strictly decreasing levels from
      the bottom up.  While the top's level is at most [b]'s, the two are
      merged (one level up) and the result is shrunk and checked against
      the new top; a block that ends up empty (every input item was dead)
      is retired instead of pushed.  The caller prepares [b] ({!shrink},
      or {!copy} then {!shrink}) and sizes [stack] for every block it
      pushes.  Returns whether any block was merged or dropped. *)
  let cascade ?pool ~alive stack sp b =
    let rec go b cascaded =
      if is_empty b then begin
        retire ?pool b;
        true
      end
      else if !sp > 0 && stack.(!sp - 1).level <= b.level then begin
        decr sp;
        go (shrink ?pool ~alive (merge ?pool ~alive stack.(!sp) b)) true
      end
      else begin
        stack.(!sp) <- b;
        incr sp;
        cascaded
      end
    in
    go b false

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
