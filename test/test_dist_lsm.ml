(* Tests for the distributed LSM (paper Listing 4): exact single-owner
   semantics (also through the Registry's [dlsm] queue), the spill
   rule, spying, and consolidation. *)

open Helpers
module B = Klsm_backend.Real
module Item = Klsm_core.Item.Make (B)
module Block = Klsm_core.Block.Make (B)
module Dist_lsm = Klsm_core.Dist_lsm.Make (B)
module Tabular_hash = Klsm_primitives.Tabular_hash
module Xoshiro = Klsm_primitives.Xoshiro

let hasher = Tabular_hash.create ~seed:7
let alive it = not (Item.is_taken it)

let make_lsm ?(tid = 0) () = Dist_lsm.create ~tid ~hasher ~alive ()

let no_spill _ = Alcotest.fail "unexpected spill"

let insert_keys t keys =
  List.iter
    (fun k -> Dist_lsm.insert t (Item.make k ()) ~max_level:max_int ~spill:no_spill)
    keys

(* Owner-side exact delete-min: find_min + take. *)
let delete_min t =
  match Dist_lsm.find_min t with
  | None -> None
  | Some it ->
      check_bool "owner take succeeds" true (Item.take it);
      Some (Item.key it)

(* ---------------- exact sequential semantics ---------------- *)

let prop_dist_lsm_is_exact_pq =
  qtest "single-owner LSM = exact priority queue" ~count:150 ops_gen
    (fun ops ->
      let t = make_lsm () in
      matches_oracle
        ~insert:(fun k ->
          Dist_lsm.insert t (Item.make k ()) ~max_level:max_int ~spill:no_spill)
        ~delete_min:(fun () -> delete_min t)
        ops)

let test_levels_strictly_decreasing () =
  let t = make_lsm () in
  insert_keys t (List.init 100 Fun.id);
  Dist_lsm.check_invariants t

let test_total_filled () =
  let t = make_lsm () in
  insert_keys t (List.init 37 Fun.id);
  check_int "all live" 37 (Dist_lsm.total_filled t)

(* ---------------- spill rule ---------------- *)

let test_spill_threshold () =
  (* max_level 1 allows blocks of capacity <= 2; the first merge cascade
     exceeding that spills. *)
  let spilled = ref [] in
  let t = make_lsm () in
  let spill b = spilled := b :: !spilled in
  for i = 1 to 16 do
    Dist_lsm.insert t (Item.make i ()) ~max_level:1 ~spill
  done;
  check_bool "spills happened" true (List.length !spilled > 0);
  List.iter
    (fun b -> check_bool "spilled blocks exceed the bound" true (Block.level b >= 2))
    !spilled;
  (* Local LSM never holds more than 2^(max_level+1) - 1 = 3 items. *)
  check_bool "local bounded" true (Dist_lsm.total_filled t <= 3)

let test_spill_conserves_items () =
  let spilled = ref 0 in
  let t = make_lsm () in
  let spill b = spilled := !spilled + Block.filled b in
  for i = 1 to 100 do
    Dist_lsm.insert t (Item.make i ()) ~max_level:2 ~spill
  done;
  check_int "items conserved" 100 (!spilled + Dist_lsm.total_filled t)

let test_max_level_for_k () =
  check_int "k=0" (-1) (Dist_lsm.max_level_for_k 0);
  check_int "k=1" (-1) (Dist_lsm.max_level_for_k 1);
  check_int "k=4" 1 (Dist_lsm.max_level_for_k 4);
  check_int "k=256" 7 (Dist_lsm.max_level_for_k 256);
  (* Capacity bound of Lemma 2: 2^(L+1) - 1 <= k. *)
  List.iter
    (fun k ->
      let l = Dist_lsm.max_level_for_k k in
      check_bool "capacity <= k" true ((1 lsl (l + 1)) - 1 <= k))
    [ 2; 3; 4; 7; 8; 100; 256; 4096 ]

(* §4.1's batching claim: spilling only blocks above the level bound
   makes shared updates about k times rarer than publishing every insert.
   klsm:256 at T = 4 under the paper's rule and under
   [~spill_max_level:(-1)] (every insert spills its singleton block),
   compared on the timed phase's CAS and CAS failures.  The fixed
   schedule (seed 0xC0FFEE, default cost model) reads 1,962 CAS against
   9,817 and 9 failures against 5,817. *)
let test_spill_rule_batches_cas () =
  let module Sim = Klsm_backend.Sim in
  let module K = Klsm_core.Klsm.Make (Sim) in
  let t = 4 in
  let timed_cas ?spill_max_level () =
    Sim.configure ~seed:0xC0FFEE ~cost:Klsm_backend.Cost_model.default
      ~policy:Sim.Fair ();
    let q = K.create_with ~k:256 ?spill_max_level ~num_threads:t () in
    let handles = Array.make t None in
    Sim.parallel_run ~num_threads:t (fun tid ->
        let h = K.register q tid in
        handles.(tid) <- Some h;
        let rng = Xoshiro.create ~seed:(tid + 7) in
        for _ = 1 to 500 do
          K.insert h (Xoshiro.int rng 1_000_000) 0
        done);
    Sim.parallel_run ~num_threads:t (fun tid ->
        let h = match handles.(tid) with Some h -> h | None -> assert false in
        let rng = Xoshiro.create ~seed:(tid + 77) in
        for _ = 1 to 1_000 do
          if Xoshiro.bool rng then K.insert h (Xoshiro.int rng 1_000_000) 0
          else ignore (K.try_delete_min h)
        done);
    let st = Sim.stats () in
    (st.Sim.cas, st.Sim.cas_failures)
  in
  let cas, fails = timed_cas () in
  let cas_all, fails_all = timed_cas ~spill_max_level:(-1) () in
  if 4 * cas > cas_all then
    Alcotest.failf "paper rule: %d CAS, not 4x fewer than %d" cas cas_all;
  if fails >= fails_all then
    Alcotest.failf "paper rule: %d CAS failures, not fewer than %d" fails
      fails_all

(* ---------------- consolidate ---------------- *)

let test_consolidate_removes_dead () =
  let t = make_lsm () in
  insert_keys t (List.init 50 Fun.id);
  (* Take the even keys. *)
  Dist_lsm.iter_items t ~f:(fun it ->
      if Item.key it mod 2 = 0 then ignore (Item.take it));
  Dist_lsm.consolidate t;
  Dist_lsm.check_invariants t;
  check_int "25 alive" 25 (Dist_lsm.total_filled t)

let test_consolidate_empty () =
  let t = make_lsm () in
  insert_keys t [ 1; 2; 3 ];
  Dist_lsm.iter_items t ~f:(fun it -> ignore (Item.take it));
  Dist_lsm.consolidate t;
  check_int "size 0" 0 (Dist_lsm.size t)

(* ---------------- spy ---------------- *)

let test_spy_copies_alive_items () =
  let victim = make_lsm ~tid:0 () in
  insert_keys victim [ 5; 3; 9; 1 ];
  let thief = make_lsm ~tid:1 () in
  check_bool "spy succeeds" true (Dist_lsm.spy thief ~victim);
  (* The thief sees the same minimal key. *)
  (match (Dist_lsm.find_min thief, Dist_lsm.find_min victim) with
  | Some a, Some b -> check_int "same min" (Item.key b) (Item.key a)
  | _ -> Alcotest.fail "both should be non-empty");
  (* And they are the SAME items (pointers), so deletion is exclusive. *)
  match (Dist_lsm.find_min thief, Dist_lsm.find_min victim) with
  | Some a, Some b ->
      check_bool "same item" true (a == b);
      check_bool "take once" true (Item.take a);
      check_bool "other copy is dead too" true (Item.is_taken b)
  | _ -> Alcotest.fail "non-empty"

let test_spy_empty_victim () =
  let victim = make_lsm ~tid:0 () in
  let thief = make_lsm ~tid:1 () in
  check_bool "nothing to spy" false (Dist_lsm.spy thief ~victim)

let test_spy_all_dead_victim () =
  let victim = make_lsm ~tid:0 () in
  insert_keys victim [ 1; 2; 3 ];
  Dist_lsm.iter_items victim ~f:(fun it -> ignore (Item.take it));
  let thief = make_lsm ~tid:1 () in
  check_bool "dead items are not acquisitions" false
    (Dist_lsm.spy thief ~victim)

let test_spy_respects_level_order () =
  let victim = make_lsm ~tid:0 () in
  insert_keys victim (List.init 60 Fun.id);
  let thief = make_lsm ~tid:1 () in
  ignore (Dist_lsm.spy thief ~victim);
  Dist_lsm.check_invariants thief

let test_spy_copy_levels_strictly_decreasing () =
  (* Explicit check of the §4.2 copy rule: spy accepts a victim block only
     when its level is strictly below the last accepted one, so the thief
     ends up with a valid LSM shape whatever the victim's published state
     looked like.  On a quiescent victim, nothing is skipped: the thief
     acquires exactly the victim's alive multiset. *)
  let victim = make_lsm ~tid:0 () in
  insert_keys victim (List.init 85 Fun.id);
  let thief = make_lsm ~tid:1 () in
  check_bool "spy succeeds" true (Dist_lsm.spy thief ~victim);
  let n = Dist_lsm.size thief in
  check_bool "thief non-empty" true (n > 0);
  let last = ref max_int in
  for i = 0 to n - 1 do
    match Dist_lsm.block_at thief i with
    | None -> Alcotest.failf "thief slot %d empty below size" i
    | Some b ->
        let lvl = Block.level b in
        if lvl >= !last then
          Alcotest.failf "thief levels not strictly decreasing: %d then %d"
            !last lvl;
        last := lvl
  done;
  let keys_of t =
    let acc = ref [] in
    Dist_lsm.iter_items t ~f:(fun it ->
        if alive it then acc := Item.key it :: !acc);
    List.sort compare !acc
  in
  check_list_int "quiescent spy copies everything" (keys_of victim)
    (keys_of thief)

(* Spy racing the victim's insert-driven merge cascades (there is no
   separate merge entry point — merges happen inside [insert], republishing
   the block array slot by slot, and that publication order is exactly what
   is under test): across many random preemption schedules, every inserted
   item must be taken exactly once, whether it is stolen through a spy copy
   or drained from the victim afterwards.  Because spy copies share the
   physical items, a duplicated delivery would show up as a payload taken
   twice; a lost item as a payload never taken. *)
module Sim = Klsm_backend.Sim
module SItem = Klsm_core.Item.Make (Sim)
module SDist = Klsm_core.Dist_lsm.Make (Sim)

let test_spy_racing_merges_fuzzed () =
  let n = 150 in
  for seed = 1 to 32 do
    Sim.configure ~seed ~policy:(Sim.Random_preempt 0.3) ();
    let hasher = Tabular_hash.create ~seed:7 in
    let salive it = not (SItem.is_taken it) in
    let no_spill _ = Alcotest.fail "unexpected spill" in
    let victim = SDist.create ~tid:0 ~hasher ~alive:salive () in
    let inserts_done = Sim.make false in
    let taken = Array.make n 0 in
    let take_all_of lsm =
      let continue_loop = ref true in
      while !continue_loop do
        match SDist.find_min lsm with
        | None -> continue_loop := false
        | Some it ->
            if SItem.take it then taken.(SItem.value it) <- taken.(SItem.value it) + 1
      done
    in
    Sim.parallel_run ~num_threads:2 (fun tid ->
        if tid = 0 then begin
          let rng = Xoshiro.create ~seed:(seed * 31) in
          for i = 0 to n - 1 do
            SDist.insert victim
              (SItem.make (Xoshiro.int rng 10_000) i)
              ~max_level:max_int ~spill:no_spill
          done;
          Sim.set inserts_done true
        end
        else begin
          (* Keep spying fresh thief LSMs (spy's precondition: an empty
             local LSM) and stealing whatever each copy acquired, until the
             victim finished inserting; one final spy catches stragglers. *)
          let rounds = ref 0 in
          while not (Sim.get inserts_done) && !rounds < 10_000 do
            incr rounds;
            let thief = SDist.create ~tid:1 ~hasher ~alive:salive () in
            if SDist.spy thief ~victim then begin
              SDist.check_invariants thief;
              take_all_of thief
            end
            else Sim.yield ()
          done;
          let thief = SDist.create ~tid:1 ~hasher ~alive:salive () in
          if SDist.spy thief ~victim then take_all_of thief
        end);
    (* Post-run (single-threaded): drain what the thief did not steal. *)
    take_all_of victim;
    Array.iteri
      (fun payload count ->
        if count <> 1 then
          Alcotest.failf "seed %d: payload %d taken %d times" seed payload
            count)
      taken
  done;
  Sim.configure ~policy:Sim.Fair ()

(* Crash mid-publication (lib/chaos): kill the owner between Listing 4's
   two publication writes — merged block visible, [size] not yet bumped —
   and check the half-published LSM is still fully usable by others: the
   structural invariants hold, a spy copy is a valid strictly-decreasing
   prefix, and every item whose insert returned is reachable through it.
   This is exactly the window the paper's publication order protects. *)
let test_crash_mid_publication () =
  let module Chaos = Klsm_chaos.Chaos in
  Sim.configure ~seed:11 ();
  let n = 64 in
  let crash_hit = 9 in
  let hasher = Tabular_hash.create ~seed:5 in
  let salive it = not (SItem.is_taken it) in
  let no_spill _ = Alcotest.fail "unexpected spill" in
  let completed = ref [] in
  (* inserts that returned, victim-side *)
  let spied = ref [] in
  let plan =
    [ Chaos.rule ~tid:1 ~hit:crash_hit "dist.insert.pre_size" Chaos.Crash ]
  in
  Chaos.install plan;
  Fun.protect ~finally:Chaos.uninstall (fun () ->
      let victim = SDist.create ~tid:1 ~hasher ~alive:salive () in
      let thief = SDist.create ~tid:0 ~hasher ~alive:salive () in
      Sim.parallel_run ~num_threads:2 (fun tid ->
          if tid = 1 then
            for i = 0 to n - 1 do
              SDist.insert victim (SItem.make i ()) ~max_level:max_int
                ~spill:no_spill;
              completed := i :: !completed
            done
          else begin
            (* Wait (virtual time) until the crash fired, then spy the
               corpse: its last publication is half done. *)
            while (Chaos.stats ()).Chaos.crashes = 0 do
              Sim.relax_n 1
            done;
            ignore (SDist.spy thief ~victim);
            SDist.check_invariants thief;
            SDist.iter_items thief ~f:(fun it ->
                spied := SItem.key it :: !spied)
          end);
      check_int "victim crashed" 1 (Chaos.stats ()).Chaos.crashes;
      check_bool "crash interrupted the loop" true
        (List.length !completed < n);
      (* The half-published victim still satisfies the invariants: the
         merged block replaced its slot before [size] changed. *)
      SDist.check_invariants victim);
  (* Conservation through spy: completed inserts all visible; nothing
     beyond the in-flight key ever appears. *)
  let spied = List.sort_uniq compare !spied in
  List.iter
    (fun k ->
      if not (List.mem k spied) then
        Alcotest.failf "completed key %d invisible to spy" k)
    !completed;
  List.iter
    (fun k ->
      if k > List.length !completed then
        Alcotest.failf "spy saw phantom key %d" k)
    spied

(* Publication-order regression: find_min during a partially-visible merge
   must never lose reachability of items (single-threaded re-check that the
   merged publication preserves the whole content). *)
let prop_insert_never_loses_items =
  qtest "insert conserves the key multiset" ~count:150 keys_gen (fun keys ->
      match keys with
      | [] -> true
      | _ ->
          let t = make_lsm () in
          insert_keys t keys;
          let collected = ref [] in
          Dist_lsm.iter_items t ~f:(fun it ->
              collected := Item.key it :: !collected);
          List.sort compare !collected = List.sort compare keys)

(* ---------------- the owner's find-min view ---------------- *)

(* [find_min] answers from the owner's bounds and cached best/runner-up
   slots, peeking one block.  Model check: over random sequences of every
   operation that changes what the slots hold — inserts (spilling past
   level 4), the owner's find-min plus take, takes through a second handle
   (what a spy's delete does to a shared item), lazy-deletion
   condemnation, consolidate, spy and the occasional [steal_all] — every
   find-min returns the very item a reference scan of the published slots
   picks: the smallest alive key, ties to the lower slot.  The invariants
   (the owner's view equals the published one, no bound above an alive
   key) hold after every step. *)
let prop_find_min_matches_reference_scan =
  (* Inserts dominate, so the LSMs grow several levels deep; a narrow key
     range makes equal keys in different slots common (the tie rule). *)
  let op =
    QCheck2.Gen.(
      pair
        (frequency
           [ (4, pure 0); (2, pure 1); (1, pure 2); (1, pure 3); (1, pure 4);
             (1, pure 5); (2, pure 6); (1, pure 7); (1, pure 8) ])
        (int_bound 100))
  in
  qtest "find_min = reference scan of the published slots" ~count:500
    QCheck2.Gen.(list_size (int_bound 400) op)
    (fun ops ->
      let condemned = Hashtbl.create 16 in
      let model_alive it =
        (not (Item.is_taken it)) && not (Hashtbl.mem condemned (Item.key it))
      in
      (* The Klsm lazy-deletion predicate: a condemned item is taken when
         found. *)
      let alive it =
        if Item.is_taken it then false
        else if Hashtbl.mem condemned (Item.key it) then begin
          ignore (Item.take it);
          false
        end
        else true
      in
      let t = Dist_lsm.create ~tid:0 ~hasher ~alive () in
      let victim = Dist_lsm.create ~tid:1 ~hasher ~alive () in
      let insert lsm k =
        Dist_lsm.insert lsm (Item.make k ()) ~max_level:4 ~spill:ignore
      in
      let reference () =
        let best = ref None in
        for i = 0 to Dist_lsm.size t - 1 do
          match Dist_lsm.block_at t i with
          | None -> ()
          | Some b -> (
              let smallest = ref None in
              Block.iter b ~f:(fun it ->
                  if model_alive it then smallest := Some it);
              match (!smallest, !best) with
              | Some it, Some bi when Item.key it >= Item.key bi -> ()
              | Some it, _ -> best := Some it
              | None, _ -> ())
        done;
        !best
      in
      (* The [n]th item of [t] not yet taken, if any. *)
      let nth_untaken n =
        let items = ref [] in
        Dist_lsm.iter_items t ~f:(fun it ->
            if not (Item.is_taken it) then items := it :: !items);
        match !items with
        | [] -> None
        | l -> Some (List.nth l (n mod List.length l))
      in
      let find_min_agrees () =
        let want = reference () in
        let got = Dist_lsm.find_min t in
        (match (want, got) with
        | None, None -> ()
        | Some a, Some b when a == b -> ()
        | _ ->
            let show = function
              | None -> "none"
              | Some it -> string_of_int (Item.key it)
            in
            Alcotest.failf "find_min returned %s, the reference scan %s"
              (show got) (show want));
        got
      in
      List.iter
        (fun (kind, n) ->
          (match kind with
          | 0 -> insert t n
          | 1 -> Option.iter (fun it -> ignore (Item.take it)) (find_min_agrees ())
          | 2 -> Option.iter (fun it -> ignore (Item.take it)) (nth_untaken n)
          | 3 ->
              Option.iter
                (fun it -> Hashtbl.replace condemned (Item.key it) ())
                (nth_untaken n)
          | 4 -> Dist_lsm.consolidate t
          | 5 -> ignore (Dist_lsm.spy t ~victim)
          | 6 -> insert victim n
          | 8 when n mod 8 = 0 -> ignore (Dist_lsm.steal_all t)
          | _ -> ignore (find_min_agrees ()));
          Dist_lsm.check_invariants t)
        ops;
      true)

(* A find-min reads one block whatever the LSM's depth: on the simulator a
   find-min over 1 level and over 12 levels (k = 4096's local LSM) costs
   the same number of simulated reads.  A walk over every level would
   read each slot, its block's [filled] and its tail item's flag: about 3
   more reads per level. *)
let test_find_min_reads_flat () =
  let reads_of n =
    let salive it = not (SItem.is_taken it) in
    let t = SDist.create ~tid:0 ~hasher ~alive:salive () in
    for key = 0 to n - 1 do
      SDist.insert t (SItem.make key ()) ~max_level:max_int
        ~spill:(fun _ -> Alcotest.fail "unexpected spill")
    done;
    let found = ref None in
    Sim.parallel_run ~num_threads:1 (fun _ -> found := SDist.find_min t);
    check_int "the minimum" 0 (SItem.key (Option.get !found));
    (SDist.size t, (Sim.stats ()).Sim.reads)
  in
  Sim.configure ~seed:1 ~policy:Sim.Fair ();
  let levels1, reads1 = reads_of 1 in
  let levels12, reads12 = reads_of 4095 in
  check_int "1 level" 1 levels1;
  check_int "12 levels" 12 levels12;
  check_int "reads do not grow with the levels" reads1 reads12

(* ---------------- the one-pass carry ---------------- *)

(* An insert whose carry chain consumes j >= 2 slots builds one block: one
   pool acquisition ([pool.hit + pool.miss]) and, on the simulator, three
   writes — the block's [filled], its slot and [size] — plus the pool's
   reset of [filled] when the acquisition hits.  A cascade of two-way
   merges builds j + 1 blocks, each with its own [filled] store. *)
let test_carry_builds_one_block () =
  let module Obs = Klsm_obs.Obs in
  let prev = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled prev)
    (fun () ->
      let sheet = Obs.create_sheet ~num_threads:1 () in
      let salive it = not (SItem.is_taken it) in
      let t =
        SDist.create ~obs:(Obs.handle sheet ~tid:0) ~tid:0 ~hasher
          ~alive:salive ()
      in
      let insert key =
        SDist.insert t (SItem.make key ()) ~max_level:max_int ~spill:no_spill
      in
      (* Seven items leave slots of levels 2, 1 and 0; the eighth carries
         all three. *)
      for key = 0 to 6 do
        insert key
      done;
      check_int "three slots" 3 (SDist.size t);
      Obs.reset sheet;
      Sim.configure ~seed:1 ~policy:Sim.Fair ();
      Sim.parallel_run ~num_threads:1 (fun _ -> insert 7);
      let count name =
        match List.assoc_opt name (Obs.snapshot sheet).Obs.counters with
        | Some per -> Array.fold_left ( + ) 0 per
        | None -> 0
      in
      check_int "one slot" 1 (SDist.size t);
      check_int "one dist.merge per consumed slot" 3 (count "dist.merge");
      check_int "one block built" 1 (count "pool.hit" + count "pool.miss");
      check_int "filled, slot and size written once"
        (3 + count "pool.hit")
        (Sim.stats ()).Sim.writes;
      SDist.check_invariants t)

(* The two-way cascade the one-pass insert replaced, kept as the
   reference: a singleton merged with the last slot while that slot's
   level is at most the merged block's, each merge shrunk, and a result
   above [max_level] spilled.  [slots] lists the last slot first. *)
let cascade_insert ~filter slots item ~max_level ~spill =
  let rec go b = function
    | prev :: rest when Block.level prev <= Block.level b ->
        go (Block.shrink ~alive (Block.merge ~alive prev b)) rest
    | rest -> (b, rest)
  in
  let b, rest = go (Block.singleton ~filter item) slots in
  if Block.level b > max_level then begin
    spill b;
    rest
  end
  else b :: rest

(* With no item dead, the slots after every insert — levels, fill counts,
   the very items in order (ties included) and filters — and every
   spilled block equal the reference cascade's.  A narrow key range makes
   equal keys common. *)
let prop_carry_equals_two_way_cascade =
  qtest "carry = two-way cascade, slot for slot" ~count:300
    QCheck2.Gen.(
      pair
        (oneofl [ 0; 1; 2; 3; 5; max_int ])
        (list_size (int_bound 300) (int_bound 20)))
    (fun (max_level, keys) ->
      let t = make_lsm () in
      let filter = Klsm_primitives.Bloom.singleton ~hasher 0 in
      let slots = ref [] in
      let spilled = ref [] and ref_spilled = ref [] in
      let same what a b =
        let fa = Block.filled a in
        if Block.level a <> Block.level b || fa <> Block.filled b then
          Alcotest.failf "%s: level %d filled %d, reference level %d filled %d"
            what (Block.level a) fa (Block.level b) (Block.filled b);
        if Block.filter a <> Block.filter b then
          Alcotest.failf "%s: filters differ" what;
        let ia = Block.items a and ib = Block.items b in
        for j = 0 to fa - 1 do
          if ia.(j) != ib.(j) then
            Alcotest.failf "%s: entry %d holds key %d, the reference key %d"
              what j (Item.key ia.(j)) (Item.key ib.(j))
        done
      in
      List.iteri
        (fun n k ->
          let item = Item.make k n in
          Dist_lsm.insert t item ~max_level ~spill:(fun b ->
              spilled := b :: !spilled);
          slots :=
            cascade_insert ~filter !slots item ~max_level ~spill:(fun b ->
                ref_spilled := b :: !ref_spilled);
          let reference = Array.of_list (List.rev !slots) in
          if Dist_lsm.size t <> Array.length reference then
            Alcotest.failf "insert %d: %d slots, reference %d" n
              (Dist_lsm.size t) (Array.length reference);
          Array.iteri
            (fun i b ->
              same
                (Printf.sprintf "insert %d, slot %d" n i)
                (Option.get (Dist_lsm.block_at t i))
                b)
            reference;
          Dist_lsm.check_invariants t)
        keys;
      if List.length !spilled <> List.length !ref_spilled then
        Alcotest.failf "%d spills, reference %d" (List.length !spilled)
          (List.length !ref_spilled);
      List.iter2 (same "spilled block") !spilled !ref_spilled;
      true)

(* The queue Figure 3's DLSM row runs: the Registry's [dlsm] instance. *)
let prop_dlsm_single_thread_exact =
  let module R = Klsm_harness.Registry.Make (Klsm_backend.Real) in
  qtest "DLSM single thread = exact PQ" ~count:100 ops_gen (fun ops ->
      let h = (R.make ~num_threads:1 R.Dlsm).R.register 0 in
      matches_oracle
        ~insert:(fun key -> h.R.insert key 0)
        ~delete_min:(fun () -> Option.map fst (h.R.try_delete_min ()))
        ops)

let () =
  Alcotest.run "dist_lsm"
    [
      ("exactness", [ prop_dlsm_single_thread_exact ]);
      ( "sequential",
        [
          prop_dist_lsm_is_exact_pq;
          Alcotest.test_case "invariants" `Quick test_levels_strictly_decreasing;
          Alcotest.test_case "total_filled" `Quick test_total_filled;
          prop_insert_never_loses_items;
        ] );
      ( "find_min",
        [
          prop_find_min_matches_reference_scan;
          Alcotest.test_case "reads independent of depth" `Quick
            test_find_min_reads_flat;
        ] );
      ( "carry",
        [
          Alcotest.test_case "one block per carrying insert (sim)" `Quick
            test_carry_builds_one_block;
          prop_carry_equals_two_way_cascade;
        ] );
      ( "spill",
        [
          Alcotest.test_case "threshold" `Quick test_spill_threshold;
          Alcotest.test_case "conservation" `Quick test_spill_conserves_items;
          Alcotest.test_case "max_level_for_k" `Quick test_max_level_for_k;
          Alcotest.test_case "rule batches shared CAS (sim)" `Quick
            test_spill_rule_batches_cas;
        ] );
      ( "consolidate",
        [
          Alcotest.test_case "removes dead" `Quick test_consolidate_removes_dead;
          Alcotest.test_case "to empty" `Quick test_consolidate_empty;
        ] );
      ( "spy",
        [
          Alcotest.test_case "copies alive" `Quick test_spy_copies_alive_items;
          Alcotest.test_case "empty victim" `Quick test_spy_empty_victim;
          Alcotest.test_case "all-dead victim" `Quick test_spy_all_dead_victim;
          Alcotest.test_case "level order" `Quick test_spy_respects_level_order;
          Alcotest.test_case "copy order strictly decreasing" `Quick
            test_spy_copy_levels_strictly_decreasing;
          Alcotest.test_case "spy vs merges (32 fuzzed schedules)" `Slow
            test_spy_racing_merges_fuzzed;
          Alcotest.test_case "crash mid-publication" `Quick
            test_crash_mid_publication;
        ] );
    ]
