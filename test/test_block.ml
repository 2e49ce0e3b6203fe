(* Unit and property tests for Item and Block (paper Listing 1): logical
   deletion, building/copy/merge/shrink, level sizing, Bloom filters, and
   builds that store no [filled]. *)

open Helpers
module B = Klsm_backend.Real
module Item = Klsm_core.Item.Make (B)
module Block = Klsm_core.Block.Make (B)
module Bloom = Klsm_primitives.Bloom

let alive it = not (Item.is_taken it)

(* Build a block holding [keys] (any order) at the smallest fitting level. *)
let block_of_keys keys =
  if keys = [] then invalid_arg "block_of_keys: empty";
  let sorted = List.sort (fun a b -> compare b a) keys (* descending *) in
  Block.of_sorted_array ~filter:Bloom.empty
    (Array.of_list (List.map (fun k -> Item.make k ()) sorted))

let keys_of_block b = List.map Item.key (Block.to_list b)

(* ---------------- Item ---------------- *)

let test_item_take_once () =
  let it = Item.make 5 "payload" in
  check_bool "fresh" false (Item.is_taken it);
  check_bool "first take wins" true (Item.take it);
  check_bool "now taken" true (Item.is_taken it);
  check_bool "second take fails" false (Item.take it);
  check_int "key" 5 (Item.key it);
  Alcotest.(check string) "value" "payload" (Item.value it)

(* ---------------- Block basics ---------------- *)

let test_singleton () =
  let it = Item.make 3 () in
  let b = Block.singleton ~filter:Bloom.empty it in
  check_int "level" 0 (Block.level b);
  check_int "filled" 1 (Block.filled b);
  check_int "capacity" 1 (Block.capacity b);
  check_bool "not empty" false (Block.is_empty b);
  Block.check_invariants b

let test_capacity_of_level () =
  check_int "level 0" 1 (Block.capacity_of_level 0);
  check_int "level 5" 32 (Block.capacity_of_level 5)

let prop_block_sorted_descending =
  qtest "block keys descend"
    QCheck2.Gen.(list_size (int_range 1 300) (int_bound 1000))
    (fun keys ->
      let b = block_of_keys keys in
      Block.check_invariants b;
      keys_of_block b = List.sort (fun a b -> compare b a) keys)

let test_last_item_is_min () =
  let b = block_of_keys [ 9; 2; 7; 4 ] in
  match Block.last_item b with
  | Some it -> check_int "min" 2 (Item.key it)
  | None -> Alcotest.fail "expected min"

(* ---------------- the owner's peek ---------------- *)

let test_peek_min_skips_taken () =
  let b = block_of_keys [ 10; 8; 6; 4; 2 ] in
  (* Take the two smallest. *)
  Block.iter b ~f:(fun it ->
      if Item.key it <= 4 then ignore (Item.take it));
  let e = Block.alive_end ~alive b (Block.filled b) in
  check_int "the alive part ends at key 6" 3 e;
  check_int "first alive" 6 (Item.key (Block.items b).(e - 1));
  (* The peek writes nothing: the DistLSM owner keeps the end privately. *)
  check_int "filled untouched" 5 (Block.filled b);
  check_int "a shorter count scans from there" 2
    (Block.alive_end ~alive b 2)

let test_peek_min_all_dead () =
  let b = block_of_keys [ 5; 1 ] in
  Block.iter b ~f:(fun it -> ignore (Item.take it));
  check_int "none alive" 0 (Block.alive_end ~alive b (Block.filled b));
  check_int "filled untouched" 2 (Block.filled b)

(* ---------------- copy ---------------- *)

let prop_copy_filters_taken =
  qtest "copy keeps exactly the alive items"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 100) (int_bound 1000))
        (list_size (int_bound 100) bool))
    (fun (keys, kill_mask) ->
      let b = block_of_keys keys in
      let i = ref 0 in
      let expected = ref [] in
      Block.iter b ~f:(fun it ->
          let kill = List.nth_opt kill_mask !i = Some true in
          if kill then ignore (Item.take it)
          else expected := Item.key it :: !expected;
          incr i);
      let c = Block.copy ~alive b (Block.level b) in
      Block.check_invariants c;
      keys_of_block c = List.rev !expected)

(* ---------------- merge ---------------- *)

let prop_merge_is_sorted_union =
  qtest "merge = descending multiset union"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 200) (int_bound 1000))
        (list_size (int_range 1 200) (int_bound 1000)))
    (fun (k1, k2) ->
      let b1 = block_of_keys k1 and b2 = block_of_keys k2 in
      let m = Block.merge ~alive b1 b2 in
      Block.check_invariants m;
      keys_of_block m = List.sort (fun a b -> compare b a) (k1 @ k2))

let test_merge_level_fits () =
  let b1 = block_of_keys (List.init 8 Fun.id) in
  let b2 = block_of_keys (List.init 8 (fun i -> i + 100)) in
  let m = Block.merge ~alive b1 b2 in
  check_bool "capacity suffices" true (Block.capacity m >= 16);
  check_int "filled" 16 (Block.filled m)

let test_merge_filters_taken () =
  let b1 = block_of_keys [ 1; 3; 5 ] and b2 = block_of_keys [ 2; 4; 6 ] in
  Block.iter b1 ~f:(fun it -> if Item.key it = 3 then ignore (Item.take it));
  let m = Block.merge ~alive b1 b2 in
  check_list_int "3 gone" [ 6; 5; 4; 2; 1 ] (keys_of_block m)

let test_merge_filter_union () =
  let hasher = Klsm_primitives.Tabular_hash.create ~seed:1 in
  let b1 = block_of_keys [ 1 ] and b2 = block_of_keys [ 2 ] in
  b1.Block.filter <- Bloom.singleton ~hasher 3;
  b2.Block.filter <- Bloom.singleton ~hasher 5;
  let m = Block.merge ~alive b1 b2 in
  check_bool "union contains both" true
    (Bloom.may_contain ~hasher (Block.filter m) 3
    && Bloom.may_contain ~hasher (Block.filter m) 5)

(* ---------------- shrink ---------------- *)

let test_shrink_removes_dead_tail () =
  let b = block_of_keys [ 10; 8; 6; 4; 2 ] in
  Block.iter b ~f:(fun it -> if Item.key it <= 4 then ignore (Item.take it));
  let s = Block.shrink ~alive b in
  Block.check_invariants s;
  check_list_int "tail dropped" [ 10; 8; 6 ] (keys_of_block s);
  (* 3 items need level 2. *)
  check_int "level" 2 (Block.level s)

let test_shrink_noop_when_tight () =
  let b = block_of_keys (List.init 8 Fun.id) in
  let s = Block.shrink ~alive b in
  check_bool "same block" true (s == b)

let test_shrink_filters_mid_block () =
  (* Dead items in the middle force a copy when the level drops; the copy
     must clean them out too (Listing 1's recursion).  Kill the 8-item dead
     tail (keys 0..7) and the odd keys above it: the tail pop leaves 8
     logical items which fit level 3 < 4, so shrink copies and the copy
     filters the odd keys, recursing down to level 2. *)
  let b = block_of_keys (List.init 16 Fun.id) in
  Block.iter b ~f:(fun it ->
      if Item.key it < 8 || Item.key it mod 2 = 1 then ignore (Item.take it));
  let s = Block.shrink ~alive b in
  Block.check_invariants s;
  check_list_int "alive survive" [ 14; 12; 10; 8 ] (keys_of_block s);
  check_int "level minimal" 2 (Block.level s)

let prop_shrink_preserves_alive =
  qtest "shrink preserves the alive multiset"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 150) (int_bound 500))
        (list_size (int_bound 150) bool))
    (fun (keys, kill_mask) ->
      let b = block_of_keys keys in
      let i = ref 0 in
      let expected = ref [] in
      Block.iter b ~f:(fun it ->
          let kill = List.nth_opt kill_mask !i = Some true in
          if kill then ignore (Item.take it)
          else expected := Item.key it :: !expected;
          incr i);
      let s = Block.shrink ~alive b in
      Block.check_invariants s;
      (* shrink only guarantees the dead tail is dropped; every alive item
         must survive (losing one would lose a queue element). *)
      let got = keys_of_block s in
      let surviving_alive =
        List.filter (fun _ -> true) got
        |> List.filter (fun k -> List.mem k !expected)
      in
      List.for_all (fun k -> List.mem k got) !expected
      && List.length surviving_alive >= List.length !expected)

let test_shrink_empty () =
  let b = block_of_keys [ 1 ] in
  Block.iter b ~f:(fun it -> ignore (Item.take it));
  let s = Block.shrink ~alive b in
  check_bool "empty" true (Block.is_empty s)

(* ---------------- SoA keys mirror ---------------- *)

(* [keys.(i) = Item.key items.(i)] for every i < filled, across every
   constructor and mutator.  check_invariants asserts this too; here the
   property is spelled out directly so a mirror regression fails with a
   named test rather than only inside other tests' invariant calls. *)
let mirror_in_sync b =
  let f = Block.filled b in
  let its = Block.items b in
  let ok = ref true in
  for i = 0 to f - 1 do
    if b.Block.keys.(i) <> Item.key its.(i) then ok := false
  done;
  !ok

let prop_soa_mirror =
  qtest "keys array mirrors item keys through append/merge/shrink"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 120) (int_bound 1000))
        (list_size (int_range 1 120) (int_bound 1000))
        (list_size (int_bound 240) bool))
    (fun (k1, k2, kill_mask) ->
      let b1 = block_of_keys k1 and b2 = block_of_keys k2 in
      let m = Block.merge ~alive b1 b2 in
      let i = ref 0 in
      Block.iter m ~f:(fun it ->
          if List.nth_opt kill_mask !i = Some true then ignore (Item.take it);
          incr i);
      let s = Block.shrink ~alive m in
      mirror_in_sync b1 && mirror_in_sync b2 && mirror_in_sync m
      && mirror_in_sync s)

let test_mirror_checked_by_invariants () =
  let b = block_of_keys [ 9; 4; 1 ] in
  b.Block.keys.(1) <- 777 (* corrupt the mirror *);
  check_bool "check_invariants catches desync" true
    (try
       Block.check_invariants b;
       false
     with _ -> true)

(* ---------------- block pool ---------------- *)

let test_pool_merge_retires_private_inputs () =
  let pool = Block.Pool.create () in
  let b1 = block_of_keys [ 1; 3 ] and b2 = block_of_keys [ 2; 4 ] in
  let m = Block.merge ~pool ~alive b1 b2 in
  check_bool "input 1 retired" true (Block.state b1 = Block.Retired);
  check_bool "input 2 retired" true (Block.state b2 = Block.Retired);
  check_bool "result private" true (Block.state m = Block.Private);
  check_list_int "merge content intact" [ 4; 3; 2; 1 ] (keys_of_block m)

let test_pool_physically_reuses_retired_block () =
  let pool = Block.Pool.create () in
  let b = Block.singleton ~filter:Bloom.empty (Item.make 7 ()) in
  Block.retire ~pool b;
  let c = Block.singleton ~pool ~filter:Bloom.empty (Item.make 42 ()) in
  check_bool "same arrays recycled" true
    (Block.items b == Block.items c && b.Block.keys == c.Block.keys);
  check_bool "in a new record" true (not (b == c));
  check_bool "the old record stays retired" true
    (Block.state b = Block.Retired);
  check_bool "the new one is private" true (Block.state c = Block.Private);
  check_int "filled" 1 (Block.filled c);
  check_list_int "new content" [ 42 ] (keys_of_block c);
  check_bool "mirror in sync after reuse" true (mirror_in_sync c)

let test_pool_never_recycles_published () =
  let pool = Block.Pool.create () in
  let b = Block.singleton ~filter:Bloom.empty (Item.make 7 ()) in
  Block.publish b;
  Block.retire ~pool b (* must be a no-op *);
  check_bool "still published" true (Block.state b = Block.Published);
  let c = Block.singleton ~pool ~filter:Bloom.empty (Item.make 8 ()) in
  check_bool "fresh arrays, not the published block's" true
    (not (Block.items b == Block.items c || b.Block.keys == c.Block.keys))

let test_pool_retired_block_fails_invariants () =
  let pool = Block.Pool.create () in
  let b = block_of_keys [ 5; 2 ] in
  Block.retire ~pool b;
  check_bool "retired block unreachable from live structures" true
    (try
       Block.check_invariants b;
       false
     with _ -> true)

let test_pool_publish_after_retire_fails () =
  let pool = Block.Pool.create () in
  let b = block_of_keys [ 5; 2 ] in
  Block.retire ~pool b;
  check_bool "resurfacing a retired block fails loudly" true
    (try
       Block.publish b;
       false
     with Failure _ -> true)

(* ---------------- no [filled] store on a build ---------------- *)

(* A builder fills its arrays with plain stores and makes the record last,
   its [filled] cell born holding the count, so a build costs the
   simulated machine no write at all, whether its arrays are fresh or
   recycled. *)
module Sim = Klsm_backend.Sim
module SItem = Klsm_core.Item.Make (Sim)
module SBlock = Klsm_core.Block.Make (Sim)

let sim_alive it = not (SItem.is_taken it)

(* A published 64-entry block of keys [offset, offset + 2, ...], with its
   two smallest entries taken so the alive filter drops something. *)
let sim_block ~offset =
  let b =
    SBlock.of_sorted_array ~filter:Bloom.empty
      (Array.init 64 (fun i -> SItem.make ((2 * (63 - i)) + offset) ()))
  in
  SBlock.iter b ~f:(fun it ->
      if SItem.key it < offset + 4 then ignore (SItem.take it));
  SBlock.publish b;
  b

(* Simulated writes of one [build] call on one simulated thread, and the
   block it built. *)
let sim_build build =
  let out = ref None in
  Sim.parallel_run ~num_threads:1 (fun _ -> out := Some (build ()));
  ((Sim.stats ()).Sim.writes, Option.get !out)

let test_builds_store_no_filled () =
  let b1 = sim_block ~offset:0 and b2 = sim_block ~offset:1 in
  let pool = SBlock.Pool.create () in
  (* Leave a level-7 block in the pool so the pooled merge recycles it. *)
  let recycled = SBlock.merge ~alive:sim_alive b1 b2 in
  SBlock.retire ~pool recycled;
  let expect name writes b filled =
    check_int (name ^ ": writes") 0 writes;
    check_int (name ^ ": filled") filled (SBlock.filled b);
    SBlock.check_invariants b
  in
  let w, m = sim_build (fun () -> SBlock.merge ~alive:sim_alive b1 b2) in
  expect "merge" w m 124;
  let w, m = sim_build (fun () -> SBlock.merge ~pool ~alive:sim_alive b1 b2) in
  check_bool "pooled merge recycled" true
    (SBlock.items m == SBlock.items recycled);
  expect "pooled merge" w m 124;
  let w, s =
    sim_build (fun () -> SBlock.singleton ~filter:Bloom.empty (SItem.make 1 ()))
  in
  expect "singleton" w s 1;
  let w, o =
    sim_build (fun () ->
        SBlock.of_sorted_array ~filter:Bloom.empty
          (Array.init 5 (fun i -> SItem.make (5 - i) ())))
  in
  expect "of_sorted_array" w o 5;
  let w, c =
    sim_build (fun () -> SBlock.copy ~alive:sim_alive b1 (SBlock.level b1))
  in
  expect "copy" w c 62;
  (* A carry of a 63-entry block and one new item fills a level-6 block
     in one pass. *)
  let b3 =
    SBlock.of_sorted_array ~filter:Bloom.empty
      (Array.init 63 (fun i -> SItem.make (2 * (62 - i)) ()))
  in
  SBlock.publish b3;
  let scratch = SBlock.Carry.create 2 in
  scratch.SBlock.Carry.fill.(0) <- SBlock.filled b3;
  let w, k =
    sim_build (fun () ->
        SBlock.carry ~alive:sim_alive ~filter:Bloom.empty scratch
          [| Some b3 |] ~first:0 ~last:1 (SItem.make 61 ()))
  in
  check_int "carry: level" 6 (SBlock.level k);
  expect "carry" w k 64;
  check_int "carry: reported count" 64 scratch.SBlock.Carry.count;
  (* With two of the block's items dead the carry keeps 62 of 64, and
     still builds at level 6: no [filled] store either way. *)
  SBlock.iter b3 ~f:(fun it ->
      if SItem.key it < 4 then ignore (SItem.take it));
  let w, k =
    sim_build (fun () ->
        SBlock.carry ~alive:sim_alive ~filter:Bloom.empty scratch
          [| Some b3 |] ~first:0 ~last:1 (SItem.make 61 ()))
  in
  expect "carry past dead items" w k 62;
  check_int "carry past dead items: reported count" 62
    scratch.SBlock.Carry.count;
  (* With 35 dead the 29 kept fit level 5: the carry moves them there
     itself and hands its level-6 arrays to the pool, still storing no
     [filled]. *)
  SBlock.iter b3 ~f:(fun it ->
      if SItem.key it < 70 then ignore (SItem.take it));
  let w, k =
    sim_build (fun () ->
        SBlock.carry ~pool ~alive:sim_alive ~filter:Bloom.empty scratch
          [| Some b3 |] ~first:0 ~last:1 (SItem.make 61 ()))
  in
  check_int "carry to a smaller level: level" 5 (SBlock.level k);
  expect "carry to a smaller level" w k 29;
  check_int "carry to a smaller level: reported count" 29
    scratch.SBlock.Carry.count;
  check_list_int "carry to a smaller level: keys"
    (List.init 28 (fun i -> 124 - (2 * i)) @ [ 61 ])
    (List.map SItem.key (SBlock.to_list k));
  check_int "the level-6 arrays went to the pool" 1
    pool.SBlock.Pool.counts.(6)

(* ---------------- lazy-deletion alive predicates ---------------- *)

let test_custom_alive_predicate () =
  (* A predicate that condemns even keys behaves like logical deletion for
     copy/merge/shrink. *)
  let alive it = (not (Item.is_taken it)) && Item.key it mod 2 = 1 in
  let b = block_of_keys [ 1; 2; 3; 4; 5 ] in
  let c = Block.copy ~alive b (Block.level b) in
  check_list_int "evens filtered" [ 5; 3; 1 ] (keys_of_block c)

let () =
  Alcotest.run "block"
    [
      ("item", [ Alcotest.test_case "take once" `Quick test_item_take_once ]);
      ( "block",
        [
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "capacity" `Quick test_capacity_of_level;
          prop_block_sorted_descending;
          Alcotest.test_case "last is min" `Quick test_last_item_is_min;
        ] );
      ( "peek",
        [
          Alcotest.test_case "skips taken" `Quick test_peek_min_skips_taken;
          Alcotest.test_case "all dead" `Quick test_peek_min_all_dead;
        ] );
      ("copy", [ prop_copy_filters_taken ]);
      ( "merge",
        [
          prop_merge_is_sorted_union;
          Alcotest.test_case "level fits" `Quick test_merge_level_fits;
          Alcotest.test_case "filters taken" `Quick test_merge_filters_taken;
          Alcotest.test_case "bloom union" `Quick test_merge_filter_union;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "dead tail" `Quick test_shrink_removes_dead_tail;
          Alcotest.test_case "noop when tight" `Quick test_shrink_noop_when_tight;
          Alcotest.test_case "mid-block filtering" `Quick test_shrink_filters_mid_block;
          prop_shrink_preserves_alive;
          Alcotest.test_case "to empty" `Quick test_shrink_empty;
        ] );
      ( "soa-mirror",
        [
          prop_soa_mirror;
          Alcotest.test_case "invariants catch desync" `Quick
            test_mirror_checked_by_invariants;
        ] );
      ( "pool",
        [
          Alcotest.test_case "merge retires private inputs" `Quick
            test_pool_merge_retires_private_inputs;
          Alcotest.test_case "physical reuse" `Quick
            test_pool_physically_reuses_retired_block;
          Alcotest.test_case "published never recycled" `Quick
            test_pool_never_recycles_published;
          Alcotest.test_case "retired fails invariants" `Quick
            test_pool_retired_block_fails_invariants;
          Alcotest.test_case "publish after retire fails" `Quick
            test_pool_publish_after_retire_fails;
        ] );
      ( "lazy-deletion",
        [ Alcotest.test_case "custom alive" `Quick test_custom_alive_predicate ]
      );
      ( "build",
        [
          Alcotest.test_case "no filled store on a build" `Quick
            test_builds_store_no_filled;
        ] );
    ]
