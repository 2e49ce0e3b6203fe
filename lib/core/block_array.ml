(** The shared k-LSM's block array (paper §4.1 and Listing 2).

    A [t] is published to all threads through a single atomic pointer in
    {!Shared_klsm}; once published it is never mutated (copy-on-write), with
    the benign exception of the [filled] counters inside blocks, which only
    consolidation's {!Block.shrink} lowers.  All mutating methods
    ([insert], [consolidate], [calculate_pivots], and [find_min], which
    records dead tails in [ends]) may only be called on a private snapshot.

    [ends.(i)] is this snapshot's own bound on block [i]'s live prefix:
    every item at an index [>= ends.(i)] is dead, and [max_int] means "use
    [filled]".  The paper lets a reader that finds a dead tail shrink the
    shared block's [filled] (§4.1); here a reader keeps what it learned to
    itself, so find-min never writes a published block and the other
    cores' copies of its [filled] line stay valid.  Deadness is permanent,
    so a recorded bound stays true for as long as the block exists:
    {!carry_ends} hands it on to the next snapshot that still shares the
    block, and [normalize]/[replace_blocks] reset it after consolidation's
    {!Block.shrink} has trimmed [filled] itself.

    [pivots.(i)] is the index inside block [i] of the first key less than or
    equal to the pivot key — the pivot key being chosen so that the union of
    all pivot ranges contains at most [k + 1] items, all guaranteed to be
    among the [k + 1] smallest keys of the array.  [find_min] picks one of
    them uniformly at random (Listing 2) and additionally honours local
    ordering semantics through the per-block Bloom filters.

    The hot kernels stream the blocks' flat [keys] arrays (see {!Block}),
    and the mutating methods are allocation-free in steady state: a
    {!Scratch} buffer owned by the calling thread replaces the old
    sort-then-fold list pipeline, and [t.blocks] / [t.pivots] are reused in
    place whenever the block count is unchanged (always safe — [t] is a
    private snapshot whose arrays were freshly copied). *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Item = Item.Make (B)
  module Block = Block.Make (B)
  module Bloom = Klsm_primitives.Bloom
  module Xoshiro = Klsm_primitives.Xoshiro

  type 'v t = {
    mutable blocks : 'v Block.t array;  (** dense, strictly decreasing levels *)
    mutable pivots : int array;  (** same length as [blocks] *)
    mutable ends : int array;
        (** same length as [blocks]: this snapshot's dead-tail bounds, plain
            ints written by [find_min]; [max_int] = use [filled] *)
  }

  (** Reusable per-thread buffers for [normalize]/[calculate_pivots].
      Single-owner (live in a {!Shared_klsm.handle}); grown on demand and
      never shrunk.  The [stack] may pin a few stale block pointers between
      calls — bounded by its own length and cleared to live blocks on every
      use, so nothing accumulates. *)
  module Scratch = struct
    type 'v block = 'v Block.t

    type 'v t = {
      mutable stack : 'v block array;  (** merge-cascade stack *)
      mutable cursor : int array;  (** tail-walk cursors ({!walk_tails}) *)
    }

    let create () = { stack = [||]; cursor = [||] }
  end

  let empty () = { blocks = [||]; pivots = [||]; ends = [||] }
  let size t = Array.length t.blocks
  let is_empty t = Array.length t.blocks = 0
  let blocks t = t.blocks

  (** Block [i]'s live prefix as this snapshot knows it: the smaller of
      its recorded dead-tail bound and the block's [filled]. *)
  let end_of t i =
    let f = Block.filled t.blocks.(i) and e = t.ends.(i) in
    if e < f then e else f

  (** Total number of logically-held items, block extents as {!end_of}
      gives them (counts items not yet cleaned out; the public [size] of
      the queue is allowed to be off by rho). *)
  let total_filled t =
    let acc = ref 0 in
    for i = 0 to size t - 1 do
      acc := !acc + end_of t i
    done;
    !acc

  (** Shallow copy: the snapshot shares the (immutable) blocks. *)
  let copy t =
    {
      blocks = Array.copy t.blocks;
      pivots = Array.copy t.pivots;
      ends = Array.copy t.ends;
    }

  (** [carry_ends ~from t] hands the dead-tail bounds [from] recorded on to
      [t], for every block the two still share physically.  Both arrays
      hold strictly decreasing levels, so one walk by level pairs each
      block of [t] with the only block of [from] that can be it. *)
  let carry_ends ~from t =
    let ob = from.blocks and oe = from.ends in
    let on = Array.length ob in
    let j = ref 0 in
    for i = 0 to size t - 1 do
      let b = t.blocks.(i) in
      let l = Block.level b in
      while !j < on && Block.level ob.(!j) > l do
        incr j
      done;
      if !j < on && ob.(!j) == b then begin
        let e = oe.(!j) in
        if e < t.ends.(i) then t.ends.(i) <- e
      end
    done

  (* Size [pivots] and [ends] to the [m] blocks of a rebuilt snapshot and
     reset them: pivots zeroed, no dead tail known. *)
  let reset_ranges t m =
    if Array.length t.pivots <> m then t.pivots <- Array.make m 0
    else Array.fill t.pivots 0 m 0;
    if Array.length t.ends <> m then t.ends <- Array.make m max_int
    else Array.fill t.ends 0 m max_int

  (* Rebuild [t.blocks] from its current blocks plus an optional [extra]
     block, re-establishing strictly decreasing levels by merging collisions
     (exactly the sequential LSM discipline of §3, {!Block.cascade}) and
     dropping empty blocks.  Shared entry point of insert/consolidate.
     Returns whether any block changed: [extra] went in, or a block was
     copied down, merged or dropped.  [ends] is always reset, because
     {!Block.shrink} trims every dead tail it bounded; the pivots are
     zeroed only when a block changed, and otherwise stay as they were
     (deletion only shrinks the candidate ranges).

     [t.blocks] already carries strictly decreasing levels, so no sort is
     needed: blocks are fed largest-level first, with [extra] slotted in
     before the first block of equal or smaller level (the position the old
     stable sort gave it).  The cascade stack lives in [scratch] when
     provided, making steady-state calls allocation-free. *)
  let normalize ?pool ?scratch ~alive ?extra t =
    let n = Array.length t.blocks in
    if n = 0 && Option.is_none extra then false
    else begin
      let filler =
        if n > 0 then t.blocks.(0)
        else match extra with Some e -> e | None -> assert false
      in
      let cap = n + 1 in
      let stack =
        match scratch with
        | Some s ->
            if Array.length s.Scratch.stack < cap then
              s.Scratch.stack <- Array.make (max 8 cap) filler;
            s.Scratch.stack
        | None -> Array.make cap filler
      in
      let changed = ref (Option.is_some extra) in
      let sp = ref 0 in
      let push b =
        let shrunk = Block.shrink ?pool ~alive b in
        let cascaded = Block.cascade ?pool ~alive stack sp shrunk in
        if cascaded || shrunk != b then changed := true
      in
      let extra_level =
        match extra with Some e -> Block.level e | None -> min_int
      in
      let extra_pushed = ref (Option.is_none extra) in
      for idx = 0 to n - 1 do
        let b = t.blocks.(idx) in
        if (not !extra_pushed) && extra_level >= Block.level b then begin
          (match extra with Some e -> push e | None -> ());
          extra_pushed := true
        end;
        push b
      done;
      if not !extra_pushed then (
        match extra with Some e -> push e | None -> ());
      (* The stack is largest-level first — exactly the array layout. *)
      let m = !sp in
      if !changed then begin
        if Array.length t.blocks <> m then t.blocks <- Array.make m filler;
        Array.blit stack 0 t.blocks 0 m;
        reset_ranges t m
      end
      else Array.fill t.ends 0 m max_int;
      (* Point the scratch tail at a live block so it pins nothing dead. *)
      (match scratch with
      | Some s when m > 0 ->
          Array.fill s.Scratch.stack m (Array.length s.Scratch.stack - m)
            stack.(0)
      | _ -> ());
      !changed
    end

  (** Smallest stored key across all blocks, counting logically deleted
      items ([max_int] when structurally empty).  Blocks keep keys in
      decreasing order, so each block contributes [keys.(filled - 1)] in
      O(1).  Because deletion is flag-based, this is a {e lower bound} on
      the smallest alive key — the monotone-under-deletion property the
      k-LSM's per-stripe min hints rely on ({!Klsm}). *)
  let min_key t =
    let n = size t in
    let best = ref max_int in
    for i = 0 to n - 1 do
      let b = t.blocks.(i) in
      let f = Block.filled b in
      if f > 0 && b.Block.keys.(f - 1) < !best then
        best := b.Block.keys.(f - 1)
    done;
    !best

  (** Insert a block, merging as needed to keep levels strictly
      decreasing. *)
  let insert ?pool ?scratch ~alive t block =
    ignore (normalize ?pool ?scratch ~alive ~extra:block t)

  (** Listing 2's [consolidate]: shrink every block and re-establish the
      level invariant.  Returns whether any block changed — copied down,
      merged or dropped.  A consolidation that only trimmed dead tails in
      place changes none and keeps the pivots, so the caller may skip the
      O(k·size) pivot rescan.  One that merged or dropped blocks leaves
      fewer of them: that is the cleanup worth publishing. *)
  let consolidate ?pool ?scratch ~alive t =
    B.fault_point "block_array.consolidate";
    normalize ?pool ?scratch ~alive t

  (** Replace the block set of a {e private} snapshot wholesale — the batch
      claim ({!Shared_klsm.try_pop_batch}) rebuilds the array with consumed
      runs removed and installs the result here.  Levels must already be
      strictly decreasing.  Pivots are zeroed; the caller recomputes them
      before publishing. *)
  let replace_blocks t blocks =
    t.blocks <- blocks;
    reset_ranges t (Array.length blocks)

  (** The bounded multiway walk over block tails (Listing 2's
      [calculate_pivots]), run by {!calculate_pivots} and by
      {!Shared_klsm.try_pop_batch}.  [cursor.(i)] is the next index to
      visit in [blocks.(i)], moving from its minimum upward, and [-1] once
      the block is used up.  Each step charges one pass over the blocks to
      find the cursor holding the smallest key (ties to the lower block
      index), calls [visit] with that block's index and moves the cursor
      up.  The walk stops when [budget] visits have returned [true], when
      every cursor is used up, or before a key above [limit].  The inner
      loop reads only the flat [keys] arrays. *)
  let walk_tails ?(limit = max_int) blocks cursor ~budget ~visit =
    let n = Array.length blocks in
    let left = ref budget and walking = ref true in
    while !walking && !left > 0 do
      let best = ref (-1) and best_key = ref max_int in
      for i = 0 to n - 1 do
        if cursor.(i) >= 0 then begin
          let key = blocks.(i).Block.keys.(cursor.(i)) in
          if !best = -1 || key < !best_key then begin
            best := i;
            best_key := key
          end
        end
      done;
      B.tick n;
      if !best = -1 || !best_key > limit then walking := false
      else begin
        if visit !best then decr left;
        cursor.(!best) <- cursor.(!best) - 1
      end
    done

  (** Recompute [pivots] so the candidate ranges hold the (at most) [k + 1]
      smallest keys below the blocks' extents ({!end_of}): a {!walk_tails}
      from every extent that takes [k + 1] keys.  O((k+1) * size) —
      [size] is logarithmic, and the call is amortized over the ~k items
      of the batched insert that triggered it, or over the deletes that
      emptied the previous candidate set (the re-pivot in
      {!Shared_klsm.find_min}).  Right after [normalize]/[replace_blocks]
      every extent is [filled], so there the pivots are those of the
      blocks themselves; a dead tail recorded in [ends] only tightens the
      set. *)
  let calculate_pivots ?scratch t ~k =
    let n = size t in
    let pivots =
      if Array.length t.pivots = n then t.pivots else Array.make n 0
    in
    let cursor =
      match scratch with
      | Some s ->
          if Array.length s.Scratch.cursor < n then
            s.Scratch.cursor <- Array.make (max 8 n) 0;
          s.Scratch.cursor
      | None -> Array.make (max n 1) 0
    in
    for i = 0 to n - 1 do
      let f = end_of t i in
      cursor.(i) <- f - 1;
      pivots.(i) <- f
    done;
    walk_tails t.blocks cursor ~budget:(k + 1) ~visit:(fun i ->
        pivots.(i) <- cursor.(i);
        true);
    t.pivots <- pivots

  (** Whether deletions emptied the candidate set: no pivot range holds an
      item below its block's extent ({!end_of}).  While {!total_filled} is
      still positive, {!Shared_klsm.find_min} then re-pivots
      ({!calculate_pivots}) before calling {!find_min}. *)
  let dry t =
    let rec from i =
      i >= size t || (end_of t i <= t.pivots.(i) && from (i + 1))
    in
    from 0

  (** Listing 2's [find_min]: select uniformly at random among the candidate
      ranges; on a deleted candidate fall back to the minimal alive item of
      the same range.  [my_tid]/[hasher] implement local ordering
      semantics: the minimum of every block whose Bloom filter may contain
      the calling thread competes with the random choice (§4.1).  Returns
      a (possibly already deleted) item, or [None] if the array holds no
      items at all — exactly the contract {!Shared_klsm.find_min} builds
      its retry loop on.

      [seen] reports how a returned answer was chosen: [true] when the
      selection itself saw it alive (a random candidate, the range scan,
      or a local-ordering peek), so a caller that finds it dead afterwards
      lost it to a concurrent take; [false] for an unchecked block minimum
      or a candidate range found all dead, the answers that only a
      consolidation cures.

      Blocks are only read: a block's extent is {!end_of}, and a dead tail
      found by the local-ordering peeks or the random-choice fallback scan
      is recorded in this snapshot's [ends], never in the shared block's
      [filled] (see the type).  The item returned is the one the paper's
      shrinking reader would return for the same extents. *)
  let find_min ?seen ~alive ~rng ~my_tid ~hasher t =
    let n = size t in
    if n = 0 then None
    else begin
      (* How many candidates can we choose from? *)
      let total = ref 0 in
      for i = 0 to n - 1 do
        let range = end_of t i - t.pivots.(i) in
        if range > 0 then total := !total + range
      done;
      (* Minimal block-tail item across all blocks; the safety net used
         whenever the pivot ranges are stale (concurrent shrinks can empty
         them under us).  May return a logically deleted item — callers
         consolidate and retry — but returns [None] only when every block
         is empty as this snapshot knows it (every extent 0), which
         implies every item was dead, because [filled] and [ends] only
         ever bound dead tails.  Comparisons stream the flat [keys]
         arrays; the boxed item is read once, at the end.

         A block whose payload is mid-fetch on another thread
         ([Block.try_items] = [None]) is skipped on the first pass —
         relaxation lets us answer from elsewhere instead of waiting on
         its disk read.  Only if {e every} candidate is mid-fetch does the
         [~wait] pass block on {!Block.items}: a false "empty" answer is
         not among the liberties the relaxed contract grants. *)
      let rec block_minima_fallback ~wait () =
        let best = ref None in
        let best_key = ref max_int in
        let in_flight = ref false in
        for i = 0 to n - 1 do
          let b = t.blocks.(i) in
          let f = end_of t i in
          if f > 0 then begin
            let key = b.Block.keys.(f - 1) in
            if Option.is_none !best || key < !best_key then begin
              (* [keys.(f-1)] and [items.(f-1)] are read at the same index,
                 so the pair stays consistent even while [filled] shrinks.
                 [Block.items] is the selection point: this is where a
                 spilled block's payload rehydrates. *)
              match
                if wait then Some (Block.items b) else Block.try_items b
              with
              | Some its ->
                  best := Some its.(f - 1);
                  best_key := key
              | None -> in_flight := true
            end
          end
        done;
        match !best with
        | None when !in_flight -> block_minima_fallback ~wait:true ()
        | r -> r
      in
      let block_minima_fallback () = block_minima_fallback ~wait:false () in
      (* Whether the running best was seen alive by the selection. *)
      let best_seen = ref false in
      let random_choice =
        if !total <= 0 then block_minima_fallback ()
        else begin
          let r = ref (Xoshiro.int rng !total) in
          let chosen = ref None in
          let i = ref 0 in
          while Option.is_none !chosen && !i < n do
            let b = t.blocks.(!i) in
            let filled = end_of t !i in
            let range = filled - t.pivots.(!i) in
            if range > 0 && !r < range then begin
              (* Selection reads the boxed items — the one place the random
                 candidate path faults a spilled payload in.  A payload
                 mid-fetch on another thread is skipped (relaxation:
                 answer from the next candidate instead of waiting on a
                 disk read); the fallback below waits only if every block
                 is in that state. *)
              match Block.try_items b with
              | Some its ->
                  let direct =
                    if !r <> range - 1 then its.(t.pivots.(!i) + !r)
                    else its.(filled - 1)
                  in
                  let item =
                    if alive direct then begin
                      best_seen := true;
                      direct
                    end
                    else begin
                      (* Fall back to the minimal {e alive} item within the
                         candidate range, recording the dead tail on the
                         way in [ends] (as the local-ordering peeks below
                         do).  This matters most for rehydrated spilled
                         blocks, whose empty Bloom filter keeps them off
                         that path: without the bound every delete-min
                         against such a block re-selects its taken minimum
                         and pays a full consolidation.  The scan must not
                         leave [pivots.(i)..filled-1]: the pivots bound the
                         candidate set to the globally k-smallest tail, and
                         selecting an item above the cutoff would break the
                         rank guarantee.  A range with no alive item
                         returns the dead item so the caller's
                         consolidation still fires. *)
                      let lo = t.pivots.(!i) in
                      let rec scan j =
                        if j < lo then direct
                        else if alive its.(j) then begin
                          if j < filled - 1 then t.ends.(!i) <- j + 1;
                          best_seen := true;
                          its.(j)
                        end
                        else scan (j - 1)
                      in
                      scan (filled - 1)
                    end
                  in
                  chosen := Some item
              | None ->
                  r := 0;
                  incr i
            end
            else begin
              if range > 0 then r := !r - range;
              incr i
            end
          done;
          (* The ranges observed by the selection loop may have shrunk
             since [total] was computed (concurrent deleters advance
             [filled]); a fruitless walk is NOT emptiness. *)
          match !chosen with Some _ as c -> c | None -> block_minima_fallback ()
        end
      in
      (* Local ordering: consider the minimal alive item of every block
         that may hold one of my own items, scanned up from the block's
         extent; a dead tail on the way is recorded in [ends], so this
         thread skips it from now on.  My filter bits are hashed once, not
         once per block ([Bloom.may_contain] is exactly this test).  The
         running best's key is tracked as a raw int so the loop never
         compares options structurally. *)
      let best = ref random_choice in
      let best_key =
        ref (match random_choice with Some it -> Item.key it | None -> max_int)
      in
      let mine = (Bloom.singleton ~hasher my_tid :> int) in
      for i = 0 to n - 1 do
        let b = t.blocks.(i) in
        let f =
          if (Block.filter b :> int) land mine = mine then end_of t i else 0
        in
        if f > 0 then begin
          let its = Block.items b in
          let j = ref (f - 1) in
          while !j >= 0 && not (alive its.(!j)) do
            decr j
          done;
          B.tick (if !j >= 0 then f - !j else f);
          if !j < f - 1 then t.ends.(i) <- !j + 1;
          if !j >= 0 then begin
            let key = b.Block.keys.(!j) in
            if Option.is_none !best || key < !best_key then begin
              best := Some its.(!j);
              best_key := key;
              best_seen := true
            end
          end
        end
      done;
      Option.iter (fun r -> r := !best_seen) seen;
      !best
    end

  (** Invariant checks for tests: strictly decreasing levels, per-block
      invariants, pivot ranges within bounds, and no item left untaken at
      or past its block's recorded end [ends.(i)].  Cold blocks hold only
      alive items, so none may have an end below [filled]; checking that
      reads no payload. *)
  let check_invariants t =
    let n = size t in
    if Array.length t.pivots <> n then failwith "Block_array: pivots length";
    if Array.length t.ends <> n then failwith "Block_array: ends length";
    for i = 0 to n - 1 do
      let b = t.blocks.(i) in
      Block.check_invariants b;
      if Block.is_empty b then failwith "Block_array: empty block";
      if i > 0 && Block.level t.blocks.(i - 1) <= Block.level b then
        failwith "Block_array: levels not strictly decreasing";
      if t.pivots.(i) < 0 || t.pivots.(i) > Block.filled b then
        failwith "Block_array: pivot out of range";
      let e = t.ends.(i) and f = Block.filled b in
      if e < 0 then failwith "Block_array: end out of range";
      if e < f then begin
        if Block.is_cold b then failwith "Block_array: end on a cold block";
        let its = Block.items b in
        for j = e to f - 1 do
          if not (Item.is_taken its.(j)) then
            failwith "Block_array: untaken item past its end"
        done
      end
    done
end
