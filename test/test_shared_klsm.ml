(* Tests for the shared k-LSM (paper Listing 3): snapshot/push protocol,
   relaxed find_min bounds, consolidation on deleted minima, and multi-
   handle interleavings driven deterministically from one thread. *)

open Helpers
module B = Klsm_backend.Real
module Item = Klsm_core.Item.Make (B)
module Block = Klsm_core.Block.Make (B)
module Shared = Klsm_core.Shared_klsm.Make (B)
module Bloom = Klsm_primitives.Bloom
module Tabular_hash = Klsm_primitives.Tabular_hash
module Xoshiro = Klsm_primitives.Xoshiro
module Obs = Klsm_obs.Obs

let hasher = Tabular_hash.create ~seed:3
let alive it = not (Item.is_taken it)

let make ?(k = 8) () = Shared.create ~k ~hasher ~alive ()

let handle ?(tid = 0) q =
  Shared.register q ~tid ~rng:(Xoshiro.create ~seed:(tid + 1))

let block_of_keys ?(filter = Bloom.empty) keys =
  if keys = [] then invalid_arg "block_of_keys";
  let sorted = List.sort (fun a b -> compare b a) keys in
  Block.of_sorted_array ~filter
    (Array.of_list (List.map (fun k -> Item.make k ()) sorted))

(* Exact-ish delete-min through the shared component only. *)
let rec delete_min h =
  match Shared.find_min h with
  | None -> None
  | Some it -> if Item.take it then Some (Item.key it) else delete_min h

let test_empty () =
  let q = make () in
  let h = handle q in
  check_bool "empty" true (Shared.find_min h = None);
  check_int "size 0" 0 (Shared.approximate_size q)

let test_insert_then_find () =
  let q = make () in
  let h = handle q in
  Shared.insert h (block_of_keys [ 9; 4; 7 ]);
  (match Shared.find_min h with
  | Some it -> check_bool "among k+1 smallest" true (Item.key it <= 9)
  | None -> Alcotest.fail "non-empty");
  check_int "size 3" 3 (Shared.approximate_size q)

let test_k0_is_exact () =
  (* With k = 0 the candidate set is exactly the minimum. *)
  let q = make ~k:0 () in
  let h = handle q in
  Shared.insert h (block_of_keys [ 10; 30 ]);
  Shared.insert h (block_of_keys [ 20; 40 ]);
  check_bool "min is 10" true (delete_min h = Some 10);
  check_bool "then 20" true (delete_min h = Some 20);
  check_bool "then 30" true (delete_min h = Some 30);
  check_bool "then 40" true (delete_min h = Some 40);
  check_bool "then empty" true (delete_min h = None)

let prop_find_min_within_bound =
  qtest "find_min within the k+1 smallest" ~count:100
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 8)
           (list_size (int_range 1 30) (int_bound 10_000)))
        (int_bound 16) int)
    (fun (lists, k, seed) ->
      let q = Shared.create ~k ~hasher ~alive () in
      let h = Shared.register q ~tid:0 ~rng:(Xoshiro.create ~seed) in
      List.iter (fun keys -> Shared.insert h (block_of_keys keys)) lists;
      let all = List.sort compare (List.concat lists) in
      let cutoff = List.nth all (min k (List.length all - 1)) in
      match Shared.find_min h with
      | None -> false
      | Some it -> Item.key it <= cutoff)

let test_drain_is_relaxed_sorted () =
  (* Draining with relaxation k: each returned key exceeds at most k
     not-yet-returned smaller keys; in particular the sequence of returned
     keys can locally disorder by at most the relaxation window.  We check
     the multiset and the window bound. *)
  let k = 4 in
  let q = make ~k () in
  let h = handle q in
  let keys = List.init 64 (fun i -> i) in
  List.iteri
    (fun i _ -> Shared.insert h (block_of_keys [ List.nth keys i ]))
    keys;
  let returned = ref [] in
  let rec drain () =
    match delete_min h with
    | Some key ->
        returned := key :: !returned;
        drain ()
    | None -> ()
  in
  drain ();
  let got = List.rev !returned in
  check_int "all drained" 64 (List.length got);
  check_bool "multiset" true (List.sort compare got = keys);
  (* Window bound: the i-th returned key is among the first i + k + 1 keys
     in sorted order (single thread, T = 1 => rho = k). *)
  List.iteri
    (fun i key -> check_bool "rho window" true (key <= i + k + 1))
    got

let test_consolidation_publishes_cleanup () =
  let q = make ~k:2 () in
  let h = handle q in
  Shared.insert h (block_of_keys (List.init 16 Fun.id));
  (* Exhaust: every delete eventually triggers consolidations; the shared
     array must end empty (None) and stay so. *)
  let n = ref 0 in
  let rec drain () =
    match delete_min h with
    | Some _ ->
        incr n;
        drain ()
    | None -> ()
  in
  drain ();
  check_int "all 16" 16 !n;
  check_int "shared empty" 0 (Shared.approximate_size q);
  check_bool "peek None" true (Shared.peek_shared q = None)

let test_two_handles_contend () =
  (* Deterministic interleaving of two handles from one thread: pushes by
     one handle invalidate the other's snapshot; the retry logic must make
     both inserts land. *)
  let q = make ~k:4 () in
  let h1 = handle ~tid:0 q and h2 = handle ~tid:1 q in
  Shared.insert h1 (block_of_keys [ 1; 2 ]);
  Shared.insert h2 (block_of_keys [ 3; 4 ]);
  Shared.insert h1 (block_of_keys [ 5; 6 ]);
  check_int "six items" 6 (Shared.approximate_size q);
  (* h2's stale snapshot must refresh and see everything. *)
  let seen = ref [] in
  let rec drain () =
    match delete_min h2 with
    | Some key ->
        seen := key :: !seen;
        drain ()
    | None -> ()
  in
  drain ();
  check_bool "h2 drains all" true
    (List.sort compare !seen = [ 1; 2; 3; 4; 5; 6 ])

let test_set_k_runtime () =
  let q = make ~k:0 () in
  check_int "initial" 0 (Shared.get_k q);
  Shared.set_k q 128;
  check_int "updated" 128 (Shared.get_k q);
  Alcotest.check_raises "negative" (Invalid_argument "Shared_klsm.set_k: k < 0")
    (fun () -> Shared.set_k q (-1))

let test_local_ordering_across_merges () =
  (* Items inserted by tid 0 keep their bloom attribution across merges, so
     tid 0 always sees its own minimum. *)
  let q = make ~k:8 () in
  let h0 = handle ~tid:0 q and h9 = handle ~tid:9 q in
  let mine = Bloom.singleton ~hasher 0 in
  let theirs = Bloom.singleton ~hasher 9 in
  Shared.insert h9 (block_of_keys ~filter:theirs [ 100; 101; 102; 103 ]);
  Shared.insert h0 (block_of_keys ~filter:mine [ 50 ]);
  (* Force a merge by same-level collision. *)
  Shared.insert h9 (block_of_keys ~filter:theirs [ 200 ]);
  for _ = 1 to 20 do
    match Shared.find_min h0 with
    | Some it -> check_int "my min visible" 50 (Item.key it)
    | None -> Alcotest.fail "non-empty"
  done

let test_refresh_carries_ends () =
  (* h1's find_min records the dead tail of a shared block in its own
     snapshot; h0 then publishes an array that still holds that block.
     h1's next find_min refreshes onto it and must keep the bound for the
     shared block, and none for the new one. *)
  let q = make ~k:64 () in
  let h0 = handle ~tid:0 q and h1 = handle ~tid:1 q in
  let ends h =
    match h.Shared.snapshot with
    | Some s -> s.Shared.Block_array.ends
    | None -> [||]
  in
  Shared.insert h0
    (block_of_keys ~filter:(Bloom.singleton ~hasher 1) (List.init 16 Fun.id));
  let published = Option.get (Shared.peek_shared q) in
  let big = (Shared.Block_array.blocks published).(0) in
  Block.iter big ~f:(fun it -> if Item.key it < 4 then ignore (Item.take it));
  (match Shared.find_min h1 with
  | Some it -> check_int "h1's min" 4 (Item.key it)
  | None -> Alcotest.fail "non-empty");
  check_bool "bound recorded" true (ends h1 = [| 12 |]);
  Shared.insert h0 (block_of_keys [ 100 ]);
  ignore (Shared.find_min h1);
  let snap = Option.get h1.Shared.snapshot in
  check_bool "big block still shared" true
    ((Shared.Block_array.blocks snap).(0) == big);
  check_bool "bound carried over" true (ends h1 = [| 12; max_int |]);
  Shared.Block_array.check_invariants snap

(* A candidate lost to a concurrent take, scripted on one thread: once
   armed, the alive predicate takes the first item it sees alive right
   after saying so — between the selection's check and find_min's
   re-check.  That is another thread's progress, not a stale view, so
   find_min must select again and answer another alive candidate without
   consolidating. *)
let test_reselect_lost_candidate () =
  let armed = ref false and stolen = ref None in
  let alive it =
    let a = not (Item.is_taken it) in
    if a && !armed then begin
      armed := false;
      ignore (Item.take it);
      stolen := Some it
    end;
    a
  in
  let prev = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled prev) @@ fun () ->
  let sheet = Obs.create_sheet ~num_threads:1 () in
  let q = Shared.create ~k:3 ~hasher ~alive () in
  let h =
    Shared.register ~obs:(Obs.handle sheet ~tid:0) q ~tid:0
      ~rng:(Xoshiro.create ~seed:1)
  in
  Shared.insert h (block_of_keys (List.init 16 Fun.id));
  Obs.reset sheet;
  armed := true;
  let got = Shared.find_min h in
  let count name =
    match List.assoc_opt name (Obs.snapshot sheet).Obs.counters with
    | Some per -> Array.fold_left ( + ) 0 per
    | None -> 0
  in
  check_bool "a take was scripted" true (Option.is_some !stolen);
  (match got with
  | Some it ->
      check_bool "another item" true (Option.get !stolen != it);
      check_bool "alive" true (not (Item.is_taken it));
      check_bool "a candidate" true (Item.key it <= 3)
  | None -> Alcotest.fail "non-empty");
  check_int "no consolidation" 0 (count "shared.consolidate");
  check_int "one re-select" 1 (count "shared.reselect")

(* The memo: on an unchanged snapshot, consecutive find_mins return the
   same alive item.  The block's Bloom filter holds another tid, so local
   ordering does not pin the answer to the block minimum, and k = 8 gives
   Listing 3's random draw nine candidates: a re-draw per call would
   differ within a few calls for some seed.  A take by another handle
   makes the next call select afresh among the rest; a publish by another
   handle moves [shared], so the next call selects afresh too. *)
let test_memo_on_unchanged_snapshot () =
  let prev = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled prev) @@ fun () ->
  let sheet = Obs.create_sheet ~num_threads:2 () in
  let count name =
    match List.assoc_opt name (Obs.snapshot sheet).Obs.counters with
    | Some per -> per.(0)
    | None -> 0
  in
  let theirs = Bloom.singleton ~hasher 9 in
  check_bool "the filter excludes tid 0" false
    (Bloom.may_contain ~hasher theirs 0);
  for seed = 0 to 19 do
    Obs.reset sheet;
    let q = make ~k:8 () in
    let reg tid =
      Shared.register ~obs:(Obs.handle sheet ~tid) q ~tid
        ~rng:(Xoshiro.create ~seed:((100 * seed) + tid))
    in
    let h0 = reg 0 and h1 = reg 1 in
    Shared.insert h1 (block_of_keys ~filter:theirs (List.init 32 Fun.id));
    let first = Option.get (Shared.find_min h0) in
    for _ = 1 to 8 do
      match Shared.find_min h0 with
      | Some it -> check_bool "the same item again" true (it == first)
      | None -> Alcotest.fail "non-empty"
    done;
    check_int "one selection" 1 (count "stripe.cache_miss");
    check_int "eight memo answers" 8 (count "stripe.cache_hit");
    check_bool "taken by another handle" true (Item.take first);
    (match Shared.find_min h0 with
    | Some it ->
        check_bool "a different item" true (it != first);
        check_bool "alive" true (alive it);
        check_bool "a candidate" true (Item.key it <= 8)
    | None -> Alcotest.fail "non-empty");
    check_int "re-selected after the take" 2 (count "stripe.cache_miss");
    Shared.insert h1 (block_of_keys ~filter:theirs [ 100 ]);
    ignore (Shared.find_min h0);
    check_int "re-selected after the publish" 3 (count "stripe.cache_miss");
    check_int "no memo answer since" 8 (count "stripe.cache_hit")
  done

(* A candidate set that deletions emptied: one block of keys 0..31 with
   pivots for k = 3 (keys 0..3), keys 0..5 taken but only 0..3 recorded
   as a dead tail in the handle's snapshot, so every candidate range is
   empty.  find_min re-pivots from the extent onto keys 4..7 and answers
   an alive 6 or 7 without consolidating on the dead block minimum 4,
   and writes nothing shared while doing so: the pivots and [ends] it
   rewrites are the snapshot's own.  Run on the simulator, which counts
   every shared write. *)
module Sim = Klsm_backend.Sim
module SShared = Klsm_core.Shared_klsm.Make (Sim)

let test_repivot_dry_set () =
  let salive it = not (SShared.Item.is_taken it) in
  let prev = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled prev) @@ fun () ->
  let sheet = Obs.create_sheet ~num_threads:1 () in
  let count name =
    match List.assoc_opt name (Obs.snapshot sheet).Obs.counters with
    | Some per -> Array.fold_left ( + ) 0 per
    | None -> 0
  in
  for seed = 0 to 19 do
    let q = SShared.create ~k:3 ~hasher ~alive:salive () in
    let h =
      SShared.register ~obs:(Obs.handle sheet ~tid:0) q ~tid:0
        ~rng:(Xoshiro.create ~seed)
    in
    SShared.insert h
      (SShared.Block.of_sorted_array ~filter:Bloom.empty
         (Array.init 32 (fun i -> SShared.Item.make (31 - i) ())));
    (* Bring the handle's snapshot up to date with the published array. *)
    ignore (SShared.find_min h);
    let snap = Option.get h.SShared.snapshot in
    let b = (SShared.Block_array.blocks snap).(0) in
    check_int "pivot on key 3" 28 snap.SShared.Block_array.pivots.(0);
    SShared.Block.iter b ~f:(fun it ->
        if SShared.Item.key it < 6 then ignore (SShared.Item.take it));
    snap.SShared.Block_array.ends.(0) <- 28;
    Obs.reset sheet;
    let got = ref None in
    Sim.parallel_run ~num_threads:1 (fun _ -> got := SShared.find_min h);
    check_int "no simulated writes" 0 (Sim.stats ()).Sim.writes;
    (match !got with
    | Some it ->
        check_bool "alive 6 or 7" true
          (salive it && (SShared.Item.key it = 6 || SShared.Item.key it = 7))
    | None -> Alcotest.fail "non-empty");
    check_int "one re-pivot" 1 (count "shared.pivot_recompute");
    check_int "no consolidation" 0 (count "shared.consolidate");
    check_int "pivot on key 7" 24 snap.SShared.Block_array.pivots.(0);
    check_int "filled untouched" 32 (SShared.Block.filled b)
  done

let () =
  Alcotest.run "shared_klsm"
    [
      ( "basics",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "insert/find" `Quick test_insert_then_find;
          Alcotest.test_case "k=0 exact" `Quick test_k0_is_exact;
          Alcotest.test_case "set_k" `Quick test_set_k_runtime;
        ] );
      ( "relaxation",
        [
          prop_find_min_within_bound;
          Alcotest.test_case "drain window" `Quick test_drain_is_relaxed_sorted;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "consolidation" `Quick test_consolidation_publishes_cleanup;
          Alcotest.test_case "two handles" `Quick test_two_handles_contend;
          Alcotest.test_case "local ordering" `Quick test_local_ordering_across_merges;
          Alcotest.test_case "refresh carries ends" `Quick
            test_refresh_carries_ends;
          Alcotest.test_case "re-select a lost candidate" `Quick
            test_reselect_lost_candidate;
          Alcotest.test_case "re-pivot a dry candidate set" `Quick
            test_repivot_dry_set;
          Alcotest.test_case "memo on an unchanged snapshot" `Quick
            test_memo_on_unchanged_snapshot;
        ] );
    ]
