(** The k-LSM relaxed priority queue — the paper's headline data structure
    (§4.3, Listing 5): one distributed LSM per thread for batching and
    local work, plus a shared k-LSM for global (relaxed) ordering, plus a
    victim array for spying.

    The shared component may be split into [S] independent {!Shared_klsm}
    {e stripes} ([~shards], default 1; DESIGN.md §12).  With [S = 1] this
    is exactly the paper's queue; with [S > 1] it removes the CAS convoy
    on the single [shared] pointer (§4.1, Listing 3) that caps throughput
    at high thread counts (Gruber/Träff/Wimmer, arXiv:1603.05047), the way
    MultiQueue-style designs do (arXiv:1509.07053), but inside the k-LSM's
    bounded-relaxation contract:

    - the global budget [k] is partitioned as [ceil(k / S)] per stripe, so
      each stripe is an ordinary shared k-LSM with a smaller relaxation;
    - every thread has a fixed {e home} stripe, [tid mod S], its spills go
      to (preserving the per-stripe publication ordering Listing 4 relies
      on); a lost publish CAS is retried on it at once, as in Listing 3;
    - [find_min] races the owner's thread-local DistLSM minimum against
      the stripes, walked from home: a stripe is consulted only while its
      published array's bound ({!Shared_klsm.bound}) undercuts the best
      key, so when every bound sits at or above the owner's minimum S
      atomic loads serve the common local-delete path;
    - a consulted stripe answers from its handle's memo while it has not
      moved ({!Shared_klsm.find_min}): Listing 3's [observed] test, which
      amortizes snapshot refreshes, amortizes the selection across
      consecutive delete-mins too.

    Guarantees (paper §5): [insert] and [try_delete_min] are lock-free and
    linearizable with structural rho-relaxation — a delete-min never skips
    more than {!rank_bound} keys, [(T - 1 + S) * ceil(k / S)], which is the
    paper's [T * k] at [S = 1] — while items inserted and deleted by the
    same thread obey exact priority-queue semantics (local ordering).
    Delete-side batching is {!Make.try_delete_min_batch}: a stripe win
    claims a whole run with one publish CAS, within the same bound
    (DESIGN.md §17).  Every stripe's contended atomics are cache-line
    padded ({!Klsm_primitives.Padded}).

    [k] is runtime-configurable through {!set_k}.  The optional
    [should_delete] predicate implements §4.5's lazy deletion: condemned
    items are filtered out whenever blocks are copied, merged or shrunk —
    the mechanism the SSSP benchmark uses in place of decrease-key. *)

(** Per-stripe relaxation: the global budget split evenly, rounded up so
    S stripes never under-spend the contract ([S * ceil(k/S) >= k]). *)
let stripe_k ~k ~shards = (k + shards - 1) / shards

(** The structural rank bound rho (DESIGN.md §12): a delete-min by one of
    [threads] threads skips at most [ceil(k/S)] keys in each of the other
    [T - 1] thread-local LSMs (the deleter's own is exact) and in each of
    the [S] stripes.  At [S = 1] this is the paper's [T * k]. *)
let rank_bound ?(shards = 1) ~threads ~k () =
  (threads - 1 + shards) * stripe_k ~k ~shards

(** Why a configuration cannot be built, or [None]: the budget checks
    {!Make.create_with} and {!Make.set_k} enforce, shared with the
    Registry's spec parser.
    Each of the S stripes needs a budget of at least 1 — except that k = 0,
    the paper's exact-shared configuration (every insert spills), runs on
    one stripe. *)
let config_error ~k ~shards =
  let err fmt = Printf.ksprintf Option.some fmt in
  if k < 0 then err "relaxation k = %d < 0" k
  else if shards < 1 then
    err "shard count %d < 1 (need at least one stripe)" shards
  else if shards > max 1 k then
    err
      "shard count %d exceeds the relaxation k = %d (every stripe needs a \
       budget of at least 1)"
      shards k
  else None

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Item = Item.Make (B)
  module Block = Block.Make (B)
  module Block_array = Block_array.Make (B)
  module Shared_klsm = Shared_klsm.Make (B)
  module Dist_lsm = Dist_lsm.Make (B)
  module Xoshiro = Klsm_primitives.Xoshiro
  module Tabular_hash = Klsm_primitives.Tabular_hash
  module Obs = Klsm_obs.Obs

  (* Observability (lib/obs; docs/METRICS.md): the klsm.* family counts
     the Listing 5 composition (claim races and the two fallback paths of
     delete-min); the stripe.* family counts the striped race
     ([stripe.cas_fail] and the memo's [stripe.cache_*] are counted by
     {!Shared_klsm}). *)
  let c_take_race = Obs.counter "klsm.take_race"
  let c_delete_local = Obs.counter "klsm.delete_local"
  let c_delete_shared = Obs.counter "klsm.delete_shared"
  let c_delete_empty = Obs.counter "klsm.delete_empty"
  let c_spy_attempt = Obs.counter "klsm.spy_attempt"
  let c_spy_success = Obs.counter "klsm.spy_success"
  let c_claim_yield = Obs.counter "klsm.claim_yield"
  let c_hint_consult = Obs.counter "stripe.hint_consult"
  let c_hint_skip = Obs.counter "stripe.hint_skip"

  (** A durability hook (lib/store): applied to every block headed for the
      shared component; may replace it with a cold, store-backed twin
      ([Spill.policy]).  [alive] lets the policy skip condemned items;
      [tid] routes its journal appends to the calling thread's log. *)
  type 'v spill_policy =
    alive:('v Item.t -> bool) -> tid:int -> 'v Block.t -> 'v Block.t

  type 'v t = {
    stripes : 'v Shared_klsm.t array;
    dists : 'v Dist_lsm.t option B.atomic array;  (** victims, §4.3 *)
    num_threads : int;
    num_stripes : int;
    k : int B.atomic;  (** global relaxation budget *)
    seed : int;
    hasher : Tabular_hash.t;
    alive : 'v Item.t -> bool;
    spill_max_level : int option;
        (** override of the §4.3 spill threshold: [-1] (every insert
            spills) in the test of §4.1's batching claim, and [max_int]
            for the standalone DLSM (§4.2), which is this queue with
            nothing ever spilled *)
    spill_policy : 'v spill_policy option;
    obs : Obs.sheet;  (** per-thread internal event counters (lib/obs) *)
  }

  type 'v handle = {
    t : 'v t;
    tid : int;
    dist : 'v Dist_lsm.t;
    spill_tx : 'v Block.t -> 'v Block.t;
        (** the spill policy pre-applied to this thread ([Fun.id] when the
            queue has no durability tier) *)
    stripe_hs : 'v Shared_klsm.handle array;  (** one handle per stripe *)
    home : int;  (** home stripe, [tid mod S]: every spill goes here *)
    mutable won_stripe : int;
        (** stripe whose answer the last race returned (the stripe a run
            is claimed from); read only after a race that returned one *)
    mutable won_cap : int;
        (** the last race's cross-stripe cap: the smallest bound it saw on
            the stripes it did not pick ({!race}) *)
    rng : Xoshiro.t;
    obs : Obs.handle;
    pool : 'v Block.Pool.t;
        (** this thread's block pool, shared by [dist] and the stripe
            handles so blocks retired on either path feed both (§4.4
            reuse) *)
  }

  let create_with ?(seed = 1) ?(k = 256) ?(shards = 1) ?should_delete ?on_lazy_delete ?spill_max_level ?spill_policy
      ~num_threads () =
    if num_threads < 1 then invalid_arg "Klsm.create: num_threads < 1";
    Option.iter
      (fun e -> invalid_arg ("Klsm.create: " ^ e))
      (config_error ~k ~shards);
    let kp = stripe_k ~k ~shards in
    let hasher = Tabular_hash.create ~seed:(seed lxor 0x5eed) in
    let alive =
      match should_delete with
      | None -> fun it -> not (Item.is_taken it)
      | Some p ->
          (* A condemned item is claimed through its [taken] flag before the
             hook runs, so [on_lazy_delete] fires exactly once per item even
             though liveness is re-checked on every copy/merge/peek (and the
             item may appear in several blocks via spying). *)
          let hook =
            match on_lazy_delete with Some f -> f | None -> fun _ _ -> ()
          in
          fun it ->
            if Item.is_taken it then false
            else if p (Item.key it) (Item.value it) then begin
              if Item.take it then hook (Item.key it) (Item.value it);
              false
            end
            else true
    in
    {
      stripes =
        (* A striped queue's pulls step aside for an insert that lost its
           CAS (DESIGN.md §17, "What claims cost the mean"); [klsm:<k>]
           keeps its claims as they were. *)
        Array.init shards (fun _ ->
            Shared_klsm.create ~k:kp ~yield_claims:(shards > 1) ~hasher
              ~alive ());
      dists = Array.init num_threads (fun _ -> B.make None);
      num_threads;
      num_stripes = shards;
      k = B.make k;
      seed;
      hasher;
      alive;
      spill_max_level;
      spill_policy;
      obs = Obs.create_sheet ~now:B.time ~num_threads ();
    }

  let create ?seed ~num_threads () = create_with ?seed ~num_threads ()

  let get_k t = B.get t.k
  let num_stripes t = t.num_stripes

  (** Reconfigure the global budget (§1: "can be configured at run-time");
      re-partitioned across the stripes, it takes effect on each stripe's
      next pivot recomputation. *)
  let set_k t k =
    Option.iter
      (fun e -> invalid_arg ("Klsm.set_k: " ^ e))
      (config_error ~k ~shards:t.num_stripes);
    B.set t.k k;
    let kp = stripe_k ~k ~shards:t.num_stripes in
    Array.iter (fun s -> Shared_klsm.set_k s kp) t.stripes

  (** Internal-counter snapshot (see {!Pq_intf.S.stats}). *)
  let stats (t : _ t) = Obs.snapshot t.obs

  let register t tid =
    if tid < 0 || tid >= t.num_threads then invalid_arg "Klsm.register: tid";
    let rng = Xoshiro.create ~seed:(t.seed + (1000003 * (tid + 1))) in
    let obs = Obs.handle t.obs ~tid in
    let pool = Block.Pool.create ~obs () in
    let dist =
      Dist_lsm.create ~obs ~pool ~tid ~hasher:t.hasher ~alive:t.alive ()
    in
    B.set t.dists.(tid) (Some dist);
    let stripe_hs =
      Array.map
        (fun s -> Shared_klsm.register ~obs ~pool s ~tid ~rng:(Xoshiro.split rng))
        t.stripes
    in
    {
      t;
      tid;
      dist;
      spill_tx =
        (match t.spill_policy with
        | None -> Fun.id
        | Some p -> fun block -> p ~alive:t.alive ~tid block);
      stripe_hs;
      home = tid mod t.num_stripes;
      won_stripe = 0;
      won_cap = max_int;
      rng;
      obs;
      pool;
    }

  (* Publish a block into the home stripe, through the durability policy —
     every path a block takes into the shared component funnels here.
     {!Shared_klsm.insert} retries a lost CAS on the same stripe until it
     wins (Listing 3). *)
  let spill_to_home h block =
    let block = h.spill_tx block in
    B.fault_point "klsm.spill.publish";
    Shared_klsm.insert h.stripe_hs.(h.home) block

  (* §4.3 [insert] with the partitioned spill rule: a fresh item goes into
     the thread-local LSM; a merge cascade that produces a block beyond the
     level bound of the {e per-stripe} budget ceil(k/S) bulk-inserts that
     block into the home stripe — batching that makes shared updates ~k
     times rarer, and keeps each thread-local LSM within the ceil(k/S)
     term of {!rank_bound}. *)
  let insert_now h key value =
    let item = Item.make key value in
    let max_level =
      match h.t.spill_max_level with
      | Some l -> l
      | None ->
          Dist_lsm.max_level_for_k
            (stripe_k ~k:(B.get h.t.k) ~shards:h.t.num_stripes)
    in
    Dist_lsm.insert h.dist item ~max_level ~spill:(fun b -> spill_to_home h b)

  (** Insert a key (§4.3). *)
  let insert h key value =
    if key < 0 then invalid_arg "Klsm.insert: negative key";
    insert_now h key value

  (** Bulk insertion: a whole batch becomes one sorted block published to
      the home stripe with a single CAS — the LSM's natural strength (§4.1
      reduces shared updates by batching; this exposes the mechanism to
      applications that produce keys in bursts, e.g. node expansions).
      Linearizes once for the entire batch. *)
  let insert_batch h pairs =
    match Array.length pairs with
    | 0 -> ()
    | 1 ->
        let key, value = pairs.(0) in
        insert h key value
    | _ ->
        Array.iter
          (fun (key, _) ->
            if key < 0 then invalid_arg "Klsm.insert_batch: negative key")
          pairs;
        let items =
          Array.map (fun (key, value) -> Item.make key value) pairs
        in
        (* Blocks store keys in descending order. *)
        Array.sort (fun a b -> compare (Item.key b) (Item.key a)) items;
        spill_to_home h
          (Block.of_sorted_array ~pool:h.pool ~alive:h.t.alive
             ~filter:(Klsm_primitives.Bloom.singleton ~hasher:h.t.hasher h.tid)
             items)

  (* ---- the striped find_min race ---- *)

  (* The shared side of Listing 5's race, against the best key the owner
     already holds ([best_known]: its local minimum, [max_int] = none).
     Walk the stripes from home, [(home + d) mod S], reading each stripe's
     [shared] once, and consult the array read only while its bound
     undercuts the best key so far; keep an answer only if it beats that
     key.  Every stripe is thus either consulted (its answer within its
     ceil(k/S) relaxation) or certified by its bound to hold nothing
     smaller — the case split the DESIGN §12 rank bound sums over — and
     when the bounds certify every stripe, S atomic loads serve the
     serve-locally path §4.3's design argument is about.  While no
     candidate is known at all, a stripe is consulted iff an array is
     published: a [max_int] bound cannot tell an empty stripe from one
     holding only [max_int] keys.  The returned item may be taken
     concurrently; the delete-min loops handle that.

     The walk also leaves [won_cap], the smallest bound it saw on the
     stripes it did not pick: a consulted stripe's answer (a superseded
     winner's included), a skipped stripe's bound, or [max_int] for a
     stripe found empty.  A run claimed from the winner up to that cap
     skips, per key, at most ceil(k/S) keys in each consulted stripe and
     none in a bound-certified one — the same case split as one delete
     ({!claim_runs}).  At S = 1 a race the stripe wins leaves nothing
     unpicked, and the cap is [max_int]. *)
  let race h best_known =
    let best = ref None and best_key = ref best_known in
    let cap = ref max_int in
    let consulted = ref false in
    for d = 0 to h.t.num_stripes - 1 do
      let i = (h.home + d) mod h.t.num_stripes in
      let current = Shared_klsm.peek_shared h.t.stripes.(i) in
      let bound = Shared_klsm.bound current in
      let unknown = Option.is_none !best && !best_key = max_int in
      if Option.is_some current && (unknown || bound < !best_key) then begin
        consulted := true;
        if d > 0 then Obs.incr h.obs c_hint_consult;
        match Shared_klsm.find_min_in h.stripe_hs.(i) current with
        | Some it when unknown || Item.key it < !best_key ->
            if Option.is_some !best then cap := Int.min !cap !best_key;
            best := Some it;
            best_key := Item.key it;
            h.won_stripe <- i
        | Some it -> cap := Int.min !cap (Item.key it)
        | None -> ()
      end
      else cap := Int.min !cap bound
    done;
    if not !consulted then Obs.incr h.obs c_hint_skip;
    h.won_cap <- !cap;
    !best

  (* Spy on one random other thread (Listing 5's fallback when both
     components look empty). *)
  let spy_once h =
    if h.t.num_threads <= 1 then false
    else begin
      let victim_tid =
        let r = Xoshiro.int h.rng (h.t.num_threads - 1) in
        if r >= h.tid then r + 1 else r
      in
      match B.get h.t.dists.(victim_tid) with
      | None -> false
      | Some victim -> Dist_lsm.spy h.dist ~victim
    end

  (* The empty-handed fallback of every delete path: §4.2 requires spy to
     start from an empty local LSM; ours may still hold logically deleted
     items, so clean it first.  [true] = the spy moved items over. *)
  let spy_round h =
    Dist_lsm.consolidate h.dist;
    Obs.incr h.obs c_spy_attempt;
    if spy_once h then begin
      Obs.incr h.obs c_spy_success;
      true
    end
    else begin
      Obs.incr h.obs c_delete_empty;
      false
    end

  let key_or_max = function Some it -> Item.key it | None -> max_int

  (** What Listing 5's race picked. *)
  type 'v winner =
    | Local of 'v Item.t  (** the thread-local minimum *)
    | Stripe of 'v Item.t * int
        (** the striped race's answer, from [won_stripe], and the cap of a
            run claimed from that stripe: min(local key, the race's
            [won_cap]) *)
    | Nothing  (** every component looked empty *)

  (* Listing 5's race, once for every delete and peek path: the owner's
     thread-local minimum against the striped race.  Ties go to the local
     minimum. *)
  let select h =
    let local = Dist_lsm.find_min h.dist in
    let local_key = key_or_max local in
    let shared = race h local_key in
    let cap = Int.min local_key h.won_cap in
    match (local, shared) with
    | Some it, Some s when Item.key s < Item.key it -> Stripe (s, cap)
    | Some it, _ -> Local it
    | None, Some s -> Stripe (s, cap)
    | None, None -> Nothing

  (* Listing 5's test-and-set on a selected item; a lost one is a take
     race and the caller selects again. *)
  let take h it ~counter =
    if Item.take it then begin
      Obs.incr h.obs counter;
      true
    end
    else begin
      Obs.incr h.obs c_take_race;
      false
    end

  (** Listing 5's [delete_min]: race the thread-local minimum against the
      shared component's relaxed minimum, attempt the test-and-set, retry
      on lost races, and spy on other threads' local LSMs before reporting
      empty.  Lock-free: every retry implies another thread succeeded. *)
  let try_delete_min h =
    let rec go () =
      match select h with
      | Local it -> take_or_retry it ~counter:c_delete_local
      | Stripe (it, _) -> take_or_retry it ~counter:c_delete_shared
      | Nothing -> if spy_round h then go () else None
    and take_or_retry it ~counter =
      if take h it ~counter then Some (Item.key it, Item.value it) else go ()
    in
    go ()

  (* Listing 5's race, but a stripe win claims a whole run of the won
     stripe with one publish CAS ({!Shared_klsm.try_pop_batch}) capped at
     min(local key, the race's cross-stripe cap).  Each claimed key skips nothing in its own stripe
     (the run is that stripe's smallest alive items), nothing in the
     owner's LSM (it lies at or below the local key) or in a stripe the
     bounds certified, and at most ceil(k/S) keys in a consulted stripe (it
     lies at or below that stripe's answer): DESIGN.md §12's case split,
     item by item, with the winning stripe's term at 0.  At S = 1 the cap
     is the local key alone.  Local wins are taken one at a time (they are
     already CAS-free), and so is a stripe win when the batch is of one:
     publishing a new snapshot to remove one item costs more than its
     test-and-set, so a batch of one is exactly a [try_delete_min]. *)
  let claim_runs h n =
    let out = ref [] (* descending *) and got = ref 0 in
    let push kv =
      out := kv :: !out;
      incr got
    in
    let take_one it ~counter =
      if take h it ~counter then push (Item.key it, Item.value it)
    in
    let rec go () =
      if !got < n then
        match select h with
        | Nothing -> if spy_round h then go ()
        | Local it ->
            take_one it ~counter:c_delete_local;
            go ()
        | Stripe (s, _) when n = 1 ->
            take_one s ~counter:c_delete_shared;
            go ()
        | Stripe (s, _)
          when Shared_klsm.inserts_waiting h.t.stripes.(h.won_stripe) ->
            (* A claim now would fail that insert's CAS again: take the
               race's item alone, which publishes nothing. *)
            Obs.incr h.obs c_claim_yield;
            take_one s ~counter:c_delete_shared;
            go ()
        | Stripe (s, cap) ->
            (match
               Shared_klsm.try_pop_batch h.stripe_hs.(h.won_stripe) ~limit:cap
                 (n - !got)
             with
            | [] ->
                (* Contended or stale view: fall back to a single take. *)
                take_one s ~counter:c_delete_shared
            | kvs ->
                List.iter
                  (fun kv ->
                    Obs.incr h.obs c_delete_shared;
                    push kv)
                  kvs);
            go ()
    in
    go ();
    List.rev !out

  (** Batched delete-min (DESIGN.md §17; see
      {!Pq_intf.S.try_delete_min_batch}): up to [n] items in deletion
      order; a short batch means the queue looked empty mid-run.  At every
      stripe count a stripe win claims a whole run with one publish CAS
      ({!claim_runs}, counted by [shared.batch_claim]), except in a batch
      of one, which is a [try_delete_min]. *)
  let try_delete_min_batch h n = claim_runs h n

  (** Relaxed peek (the paper's try_find_min interface extension, §4):
      returns a key/value among the rho+1 smallest without deleting it.
      The item may be deleted concurrently right after (or even just
      before) the return — peeking is inherently advisory on a concurrent
      queue. *)
  let try_find_min h =
    match select h with
    | Local it | Stripe (it, _) -> Some (Item.key it, Item.value it)
    | Nothing -> None

  (** Meld (paper §4.5): move every item of [src] into the queue behind
      [h], at block granularity — merging "lies at the heart of the LSM
      idea" — through [h]'s home stripe.  As in the paper, this is NOT
      linearizable: the caller must have exclusive access to [src] for the
      duration (concurrent operations on the destination are fine).
      Adopted blocks get the conservative all-threads Bloom filter, since
      [src]'s filters were built with a different hash function. *)
  let meld h ~src =
    let adopt block =
      if not (Block.is_empty block) then begin
        let b = Block.copy ~alive:h.t.alive block (Block.level block) in
        b.Block.filter <- Klsm_primitives.Bloom.full;
        let b = Block.shrink ~alive:h.t.alive b in
        if not (Block.is_empty b) then spill_to_home h b
      end
    in
    Array.iter
      (fun stripe -> List.iter adopt (Shared_klsm.steal_all stripe))
      src.stripes;
    Array.iter
      (fun slot ->
        match B.get slot with
        | Some d -> List.iter adopt (Dist_lsm.steal_all d)
        | None -> ())
      src.dists

  (** Force a cleanup of the thread-local component; exposed because the
      lazy-deletion predicate can strand condemned items until the next
      natural merge. *)
  let consolidate_local h = Dist_lsm.consolidate h.dist

  (** Number of items currently held (counting not-yet-cleaned deleted
      items); the paper allows this to be off by rho. *)
  let approximate_size t =
    let acc = ref 0 in
    Array.iter
      (fun stripe -> acc := !acc + Shared_klsm.approximate_size stripe)
      t.stripes;
    Array.iter
      (fun slot ->
        match B.get slot with
        | Some d -> acc := !acc + Dist_lsm.total_filled d
        | None -> ())
      t.dists;
    !acc

  (** Insert a block directly into the home stripe (recovery path:
      [Spill.recover] links rebuilt cold blocks through this; the policy
      passes already-spilled blocks through untouched). *)
  let adopt_block h block = spill_to_home h block

  (* Internal accessors for white-box tests and the chaos drive. *)
  let internal_stripes t = t.stripes
  let internal_dist h = h.dist
end

(** The deployment instantiation on OCaml domains. *)
module Default = Make (Klsm_backend.Real)

(* Static conformance: the combined queue implements the common interface. *)
module _ : Pq_intf.S = Default
