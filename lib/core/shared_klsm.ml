(** The shared k-LSM priority queue (paper §4.1 and Listing 3).

    All threads share one atomic pointer [shared] to the current
    {!Block_array}.  Every structural update builds a private copy (the
    {e snapshot}) and installs it with a single compare-and-swap; a failed
    CAS means some other thread made progress, which is what makes both
    [insert] and the consolidations inside [find_min] lock-free (paper §5,
    Lemmas 3-4).

    Thread-local state ([observed]/[snapshot], and the [memo] of the last
    answer) lives in the {!handle} a thread obtains from [register].  With
    a garbage collector the CAS on [shared] is ABA-free: a reachable
    snapshot can never be recycled into a physically-equal new array
    (§4.4's GC remark). *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Item = Item.Make (B)
  module Block = Block.Make (B)
  module Block_array = Block_array.Make (B)
  module Xoshiro = Klsm_primitives.Xoshiro
  module Tabular_hash = Klsm_primitives.Tabular_hash
  module Obs = Klsm_obs.Obs

  (* Observability (lib/obs; docs/METRICS.md).  [Block_array] mutations are
     counted here because every one of them happens through this module's
     private snapshots. *)
  let c_cas = Obs.counter "shared.cas_attempt"
  let c_cas_fail = Obs.counter "shared.cas_fail"
  let c_insert_retry = Obs.counter "shared.insert_retry"
  let c_consolidate = Obs.counter "shared.consolidate"
  let c_pivots = Obs.counter "shared.pivot_recompute"
  let c_reselect = Obs.counter "shared.reselect"
  let c_empty_publish = Obs.counter "shared.empty_publish"
  let c_batch_claim = Obs.counter "shared.batch_claim"

  (* The k-LSM's per-stripe counters: [stripe.cas_fail] is the per-stripe
     name for [shared.cas_fail], counted alongside it (the benchmark's
     per-layer [stripe.cas_fail_ratio] reads it); [stripe.cache_hit] and
     [stripe.cache_miss] split [find_min]s into memo answers and fresh
     selections. *)
  let c_stripe_cas_fail = Obs.counter "stripe.cas_fail"
  let c_cache_hit = Obs.counter "stripe.cache_hit"
  let c_cache_miss = Obs.counter "stripe.cache_miss"

  let s_insert = Obs.span "shared.insert"
  let s_find_min = Obs.span "shared.find_min"

  type 'v t = {
    shared : 'v Block_array.t option B.atomic;
    k : int B.atomic;  (** runtime-configurable relaxation parameter *)
    hasher : Tabular_hash.t;  (** Bloom-filter hash (shared by all blocks) *)
    alive : 'v Item.t -> bool;
    waiting : int B.atomic;
        (** inserts into this array whose publish CAS lost at least once
            and that have not landed yet; kept only with [yield_claims] *)
    yield_claims : bool;
        (** whether inserts announce a lost CAS in [waiting], so batch
            claims can step aside ({!inserts_waiting}) *)
  }

  type 'v handle = {
    q : 'v t;
    tid : int;
    rng : Xoshiro.t;
    obs : Obs.handle;
    pool : 'v Block.Pool.t;
        (** this thread's block pool (§4.4 reuse); recycles the private
            merge intermediates built inside snapshots *)
    scratch : 'v Block_array.Scratch.t;
        (** this thread's normalize/pivot scratch buffers *)
    mutable observed : 'v Block_array.t option;
    mutable snapshot : 'v Block_array.t option;
    mutable memo : 'v Item.t option;
        (** the last alive item [find_min] returned from [snapshot];
            cleared by [refresh_snapshot] *)
  }

  let create ?(k = 256) ?(yield_claims = false) ~hasher ~alive () =
    if k < 0 then invalid_arg "Shared_klsm.create: k < 0";
    (* Every contended atomic sits behind a cache line of its own
       ({!Klsm_primitives.Padded}), so stripe [i]'s publish CAS traffic
       stops evicting stripe [i+1]'s pointer: the atomics of S stripes
       created in one loop are otherwise adjacent minor-heap
       neighbours. *)
    let pad = Klsm_primitives.Padded.copy_as_padded in
    {
      shared = pad (B.make None);
      k = pad (B.make k);
      hasher;
      alive;
      waiting = pad (B.make 0);
      yield_claims;
    }

  let get_k t = B.get t.k

  (** The relaxation can be reconfigured at any time; it takes effect on the
      next pivot recomputation (§1: "can be configured at run-time"). *)
  let set_k t k =
    if k < 0 then invalid_arg "Shared_klsm.set_k: k < 0";
    B.set t.k k

  let register ?(obs = Obs.null_handle) ?pool q ~tid ~rng =
    let pool =
      match pool with Some p -> p | None -> Block.Pool.create ~obs ()
    in
    {
      q;
      tid;
      rng;
      obs;
      pool;
      scratch = Block_array.Scratch.create ();
      observed = None;
      snapshot = None;
      memo = None;
    }

  (** The lower bound a value of [shared] carries on every key it stores:
      the array's [least], or [max_int] when nothing is published. *)
  let bound = function None -> max_int | Some arr -> arr.Block_array.least

  (** The current bound: one read of [shared]. *)
  let min_hint t = bound (B.get t.shared)

  (** Whether an insert into [t] lost its publish CAS and has not landed
      yet ([false] without [yield_claims]).  A batch claim published now
      would fail that insert's next CAS too: a run claim
      ({!Klsm.claim_runs}) takes the race's item alone instead.  An
      insert whose thread dies while waiting leaves the count raised, so
      claims on [t] take single items from then on: slower, never
      wrong. *)
  let inserts_waiting t = t.yield_claims && B.get t.waiting > 0

  (* Take a fresh snapshot of [observed], a value just read from
     [shared], carrying over the dead-tail bounds the previous snapshot
     recorded for every block the two still share
     ({!Block_array.carry_ends}): find-min keeps them in the snapshot
     rather than in the shared blocks, so without the carry-over every
     refresh would rescan each dead tail.  The memo goes with the old
     snapshot. *)
  let refresh_snapshot h observed =
    h.observed <- observed;
    h.memo <- None;
    let next = Option.map Block_array.copy observed in
    (match (h.snapshot, next) with
    | Some from, Some t -> Block_array.carry_ends ~from t
    | _ -> ());
    h.snapshot <- next

  (* Install the (modified) snapshot; fails iff [shared] moved since the
     snapshot was taken — i.e. iff someone else made progress.  The
     candidate is settled BEFORE the CAS: the moment it may succeed,
     another thread can reach it, so its blocks must already be barred
     from recycling, and its [least] must already bound its keys.  On
     failure the blocks stay published — a missed recycle, never an
     aliased one. *)
  let push_snapshot h next =
    (match next with
    | Some arr ->
        Array.iter Block.publish (Block_array.blocks arr);
        arr.Block_array.least <- Block_array.min_key arr
    | None -> ());
    Obs.incr h.obs c_cas;
    B.fault_point "shared.push_snapshot.before";
    let ok = B.compare_and_set h.q.shared h.observed next in
    B.fault_point "shared.push_snapshot.after";
    if not ok then begin
      Obs.incr h.obs c_cas_fail;
      Obs.incr h.obs c_stripe_cas_fail
    end;
    ok

  (* Publish the empty array: every emptiness publication goes through
     here.  [true] iff the CAS won. *)
  let publish_empty h =
    Obs.incr h.obs c_empty_publish;
    push_snapshot h None

  (* Recompute the private snapshot's pivots under the current [k]. *)
  let repivot h snap =
    Obs.incr h.obs c_pivots;
    Block_array.calculate_pivots ~scratch:h.scratch snap ~k:(B.get h.q.k)

  (** Insert a whole sorted block (the spill path of the distributed LSM and
      the only way items enter the shared component).  Lock-free: retries
      only when another thread's CAS succeeded. *)
  let insert h block =
    let alive = h.q.alive in
    let t0 = Obs.span_begin h.obs in
    (* Pin the incoming block: the retry loop feeds it into [normalize]
       once per attempt, so it must survive every attempt — publishing it
       up front bars the merge cascade from retiring it. *)
    Block.publish block;
    (* A lost CAS means the array moved under this insert's copy, merge
       and re-pivot; batch claims publish often enough to make it lose
       again and again, so announce the wait until the insert lands. *)
    let waiting = ref false in
    let rec attempt retry =
      if retry then begin
        Obs.incr h.obs c_insert_retry;
        if h.q.yield_claims && not !waiting then begin
          waiting := true;
          ignore (B.fetch_and_add h.q.waiting 1)
        end
      end;
      refresh_snapshot h (B.get h.q.shared);
      let snap =
        match h.snapshot with
        | Some s -> s
        | None -> Block_array.empty ()
      in
      Block_array.insert ~pool:h.pool ~scratch:h.scratch ~alive snap block;
      repivot h snap;
      (* On success [observed] is left stale on purpose: the pushed array is
         now shared and immutable, so the next operation must take a fresh
         private copy (the [shared != observed] check forces it). *)
      if not (push_snapshot h (Some snap)) then attempt true
    in
    attempt false;
    if !waiting then ignore (B.fetch_and_add h.q.waiting (-1));
    Obs.span_end h.obs s_insert t0

  (* Listing 3's selection on the handle's snapshot: return an item that
     was alive in it, or [None] if the queue (as observed) is empty.  A
     candidate set that deletions emptied while the snapshot's blocks still
     hold items is re-pivoted from their extents first, so it costs a pivot
     pass, not a consolidation.  An answer the selection saw alive but that
     is dead at the re-check here was taken by another thread since:
     select again, without consolidating.  Only an unchecked dead answer (a
     block minimum, or a candidate range found all dead) triggers a
     consolidation; if that consolidation merged or dropped blocks, an
     installation attempt publishes the cleanup for everyone. *)
  let select h =
    let alive = h.q.alive in
    let seen = ref false in
    let rec loop () =
      match h.snapshot with
      | None -> None
      | Some snap -> (
          if Block_array.dry snap && Block_array.total_filled snap > 0 then
            repivot h snap;
          match
            Block_array.find_min ~seen ~alive ~rng:h.rng ~my_tid:h.tid
              ~hasher:h.q.hasher snap
          with
          | None ->
              (* [find_min] answers [None] only when every extent is 0, and
                 extents only shrink ([filled] under [shrink], [ends] under
                 [find_min]), so this re-read must find the snapshot empty
                 too. *)
              if Option.is_some h.observed then begin
                if Block_array.total_filled snap <> 0 then
                  failwith "Shared_klsm.select: an extent grew after find-min";
                ignore (publish_empty h);
                refresh_snapshot h (B.get h.q.shared)
              end;
              if Option.is_none h.snapshot then None else retry ()
          | Some item ->
              if alive item then Some item
              else if !seen then begin
                (* Lost to a concurrent take: another thread made
                   progress, and this snapshot still has its candidates. *)
                Obs.incr h.obs c_reselect;
                retry ()
              end
              else begin
                (* Deleted minimum: clean up, publish if we restructured.
                   A consolidation that changed no block (the common shape
                   of a delete retry whose CAS raced but whose view is
                   otherwise current) keeps its pivots and skips the
                   rescan. *)
                Obs.incr h.obs c_consolidate;
                let before = Block_array.size snap in
                if
                  Block_array.consolidate ~pool:h.pool ~scratch:h.scratch
                    ~alive snap
                then begin
                  if Block_array.is_empty snap then begin
                    (* Whether or not our CAS wins, someone published a
                       newer state; re-snapshot either way. *)
                    ignore (publish_empty h);
                    refresh_snapshot h (B.get h.q.shared)
                  end
                  else begin
                    repivot h snap;
                    if Block_array.size snap < before then begin
                      (* As in [insert]: a successfully pushed snapshot is
                         shared from now on, so leave [observed] stale and
                         let the next iteration re-copy. *)
                      ignore (push_snapshot h (Some snap));
                      refresh_snapshot h (B.get h.q.shared)
                    end
                  end
                end;
                retry ()
              end)
    and retry () =
      let current = B.get h.q.shared in
      if current != h.observed then refresh_snapshot h current;
      loop ()
    in
    loop ()

  (** Listing 3's [find_min] on [current], a value the caller just read
      from [shared] ({!Klsm.race} hands in the array it tested): return an
      item that was alive in the calling thread's consistent snapshot, or
      [None] if the queue (as observed) is empty.  While [current] still
      equals [observed] — Listing 3's own test for a snapshot that is still
      current — and the item the last call returned is still alive, that
      item is the answer again ([stripe.cache_hit]): with no publish since,
      the stripe holds no item it did not hold then, and deletions only
      shrink the set of keys below it, so it is still within the
      relaxation and still beats every block of the caller's own.
      Otherwise the snapshot is refreshed if it moved and an answer
      selected afresh ([stripe.cache_miss]).  The returned item may have
      been taken concurrently — the delete-min loop handles that. *)
  let find_min_in h current =
    let t0 = Obs.span_begin h.obs in
    if current != h.observed then refresh_snapshot h current;
    let r =
      match h.memo with
      | Some it when h.q.alive it ->
          Obs.incr h.obs c_cache_hit;
          h.memo
      | _ ->
          Obs.incr h.obs c_cache_miss;
          let r = select h in
          h.memo <- r;
          r
    in
    Obs.span_end h.obs s_find_min t0;
    r

  (** {!find_min_in} on the value [shared] holds now. *)
  let find_min h = find_min_in h (B.get h.q.shared)

  (** Batched delete (DESIGN.md §17): claim up to [n] smallest alive items
      of the shared array with a {e single} publish CAS.  The bounded
      multiway walk over the block tails ({!Block_array.walk_tails}, which
      also places the pivots), claiming alive items only, selects the run;
      the snapshot is then rebuilt with the run removed — untouched blocks
      stay shared, a partially-consumed block is replaced by an O(1)
      same-level {!Block.prefix_view} over its own arrays, a
      fully-consumed one is dropped — pivots are recomputed and the result
      installed.  Only
      items with key [<= limit] are claimed, which is how the caller keeps
      the run within its relaxed budget: the k-LSM's pull
      ({!Klsm.claim_runs}) caps the run at min(local key, the race's
      cross-stripe cap).

      The winning CAS is the linearization point of the whole run: from
      then on no other thread can reach the claimed items structurally, and
      the follow-up [Item.take] per item only arbitrates against threads
      holding older snapshots — a lost take means that thread consumed the
      item first, and it is silently dropped from the result.

      Returns the claimed [(key, value)] run in ascending key order; [[]]
      when nothing was claimable or the CAS lost twice (callers fall back
      to the single-pop path). *)
  let try_pop_batch ?(limit = max_int) h n =
    let alive = h.q.alive in
    if n <= 0 then []
    else begin
      let rec attempt tries =
        refresh_snapshot h (B.get h.q.shared);
        match h.snapshot with
        | None -> []
        | Some snap ->
            let blocks = Block_array.blocks snap in
            let nb = Array.length blocks in
            if nb = 0 then []
            else begin
              (* Walk up from each block's minimum ([filled - 1]),
                 claiming the alive items: the ascending run.  The walk
                 streams the resident key mirrors; a block's boxed items
                 are fetched lazily on its first claim, so blocks whose
                 tail never wins the walk — and in particular spilled
                 blocks, whose [items] is a disk fault — are never
                 touched. *)
              let cursor = Array.map (fun b -> Block.filled b - 1) blocks in
              let items = Array.make nb [||] in
              let items_of i =
                if Array.length items.(i) = 0 then
                  items.(i) <- Block.items blocks.(i);
                items.(i)
              in
              let claimed = ref [] (* descending *) in
              Block_array.walk_tails ~limit blocks cursor ~budget:n
                ~visit:(fun i ->
                  let it = (items_of i).(cursor.(i)) in
                  let claim = alive it in
                  if claim then claimed := it :: !claimed;
                  claim);
              match !claimed with
              | [] -> []
              | claimed ->
                (* Rebuild without the consumed tails.  [cursor.(i)] is the
                   last unexamined index, so entries [0 .. cursor] remain: a
                   partially-consumed block is replaced by an O(1)
                   [prefix_view] over the same (published, never-recycled)
                   arrays — the rebuild must not pay a copy of the large
                   prefix to drop the small tail. *)
                let kept = ref [] in
                for i = nb - 1 downto 0 do
                  let b = blocks.(i) in
                  let keep = cursor.(i) + 1 in
                  if keep >= Block.filled b then kept := b :: !kept
                  else if keep > 0 then
                    kept := Block.prefix_view b ~keep :: !kept
                done;
                let run = List.rev claimed in
                let arr = Array.of_list !kept in
                let won =
                  if Array.length arr = 0 then publish_empty h
                  else begin
                    Block_array.replace_blocks snap arr;
                    repivot h snap;
                    push_snapshot h (Some snap)
                  end
                in
                if won then begin
                  B.fault_point "shared.batch.claimed";
                  Obs.incr h.obs c_batch_claim;
                  (* Takes arbitrate against older-snapshot readers: a take
                     that fails with the flag set was consumed by them and
                     drops out of the run.  A failure with the flag still
                     clear is spurious (the chaos engine injects these) and
                     must be retried — the item is already pruned from the
                     published array, so silently dropping it here would
                     lose the payload. *)
                  let rec take_claimed it =
                    if Item.take it then true
                    else if Item.is_taken it then false
                    else take_claimed it
                  in
                  List.filter_map
                    (fun it ->
                      if take_claimed it then
                        Some (Item.key it, Item.value it)
                      else None)
                    run
                end
                else if tries > 0 then attempt (tries - 1)
                else []
            end
      in
      attempt 1
    end

  (** Item count as observed in the current shared array (may include
      logically deleted items; the paper allows [size] to be off by rho). *)
  let approximate_size t =
    match B.get t.shared with
    | None -> 0
    | Some arr -> Block_array.total_filled arr

  let peek_shared t = B.get t.shared

  (** Detach and return every block of the shared array, leaving it (and
      so its bound) empty.  NOT linearizable — callers must have exclusive
      access to [t] (used by {!Klsm.meld}, which the paper's §4.5 leaves
      non-linearizable). *)
  let steal_all t =
    match B.exchange t.shared None with
    | None -> []
    | Some arr -> Array.to_list (Block_array.blocks arr)
end
