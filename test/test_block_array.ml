(* Tests for Block_array (paper Listing 2): level invariants under
   insert/consolidate, pivot calculation, and the randomized relaxed
   find_min with local ordering. *)

open Helpers
module B = Klsm_backend.Real
module Item = Klsm_core.Item.Make (B)
module Block = Klsm_core.Block.Make (B)
module Block_array = Klsm_core.Block_array.Make (B)
module Bloom = Klsm_primitives.Bloom
module Xoshiro = Klsm_primitives.Xoshiro
module Tabular_hash = Klsm_primitives.Tabular_hash

let alive it = not (Item.is_taken it)
let hasher = Tabular_hash.create ~seed:77

let block_of_keys ?(filter = Bloom.empty) keys =
  if keys = [] then invalid_arg "block_of_keys: empty";
  let sorted = List.sort (fun a b -> compare b a) keys in
  Block.of_sorted_array ~filter
    (Array.of_list (List.map (fun k -> Item.make k ()) sorted))

let array_of_key_lists lists =
  let t = Block_array.empty () in
  List.iter (fun keys -> Block_array.insert ~alive t (block_of_keys keys)) lists;
  t

let all_keys t =
  Array.to_list (Block_array.blocks t)
  |> List.concat_map (fun b -> List.map Item.key (Block.to_list b))

(* Keys of items that are still alive (consolidate guarantees nothing about
   dead items that happen to survive physically in unmoved blocks). *)
let alive_keys t =
  Array.to_list (Block_array.blocks t)
  |> List.concat_map (fun b ->
         Block.to_list b
         |> List.filter_map (fun it ->
                if Item.is_taken it then None else Some (Item.key it)))

(* ---------------- insert / consolidate ---------------- *)

let prop_insert_preserves_invariants =
  qtest "insert keeps invariants and content" ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 15)
        (list_size (int_range 1 40) (int_bound 1000)))
    (fun lists ->
      let t = array_of_key_lists lists in
      Block_array.check_invariants t;
      List.sort compare (all_keys t)
      = List.sort compare (List.concat lists))

let test_insert_merges_same_level () =
  let t = array_of_key_lists [ [ 1; 2 ]; [ 3; 4 ] ] in
  (* Two level-1 blocks must have merged into one level-2 block. *)
  check_int "one block" 1 (Block_array.size t);
  Block_array.check_invariants t

let test_consolidate_drops_taken () =
  let t = array_of_key_lists [ [ 1; 2; 3; 4 ]; [ 5; 6 ] ] in
  Array.iter
    (fun b ->
      Block.iter b ~f:(fun it ->
          if Item.key it mod 2 = 0 then ignore (Item.take it)))
    (Block_array.blocks t);
  ignore (Block_array.consolidate ~alive t);
  Block_array.check_invariants t;
  check_list_int "odds remain" [ 1; 3; 5 ] (List.sort compare (alive_keys t))

let test_consolidate_empties () =
  let t = array_of_key_lists [ [ 1; 2; 3 ] ] in
  Array.iter
    (fun b -> Block.iter b ~f:(fun it -> ignore (Item.take it)))
    (Block_array.blocks t);
  ignore (Block_array.consolidate ~alive t);
  check_bool "empty" true (Block_array.is_empty t)

let take_keys t keys =
  Array.iter
    (fun b ->
      Block.iter b ~f:(fun it ->
          if List.mem (Item.key it) keys then ignore (Item.take it)))
    (Block_array.blocks t)

(* A consolidation that only trims a dead tail in place changes no block:
   it reports so and keeps the pivots, which the trim only narrows. *)
let test_consolidate_trim_keeps_pivots () =
  let t = array_of_key_lists [ [ 1; 2; 3; 4; 5; 6; 7; 8 ]; [ 20; 21 ] ] in
  Block_array.calculate_pivots t ~k:3;
  let blocks = Array.copy (Block_array.blocks t) in
  let pivots = Array.to_list t.Block_array.pivots in
  take_keys t [ 1 ];
  check_bool "no change" false (Block_array.consolidate ~alive t);
  check_int "dead tail trimmed in place" 7 (Block.filled blocks.(0));
  check_bool "same blocks" true
    (Array.for_all2 ( == ) blocks (Block_array.blocks t));
  check_list_int "pivots kept" pivots (Array.to_list t.Block_array.pivots);
  Block_array.check_invariants t

(* Copying a block down, merging blocks and dropping one each change the
   block set, so each reports a change. *)
let test_consolidate_reports_change () =
  let consolidate lists taken =
    let t = array_of_key_lists lists in
    Block_array.calculate_pivots t ~k:3;
    take_keys t taken;
    let changed = Block_array.consolidate ~alive t in
    Block_array.check_invariants t;
    (changed, Block_array.size t)
  in
  let eight = [ 1; 2; 3; 4; 5; 6; 7; 8 ] and smallest = [ 1; 2; 3; 4 ] in
  let check = Alcotest.(check (pair bool int)) in
  (* Four of eight items left: the level-3 block is copied down to 2. *)
  check "copy-down" (true, 1) (consolidate [ eight ] smallest);
  (* ... where it meets the level-2 block and merges with it. *)
  check "merge" (true, 1) (consolidate [ eight; [ 20; 21; 22; 23 ] ] smallest);
  check "drop" (true, 1) (consolidate [ eight; [ 20; 21 ] ] [ 20; 21 ])

let test_copy_is_shallow_consistent () =
  let t = array_of_key_lists [ [ 1; 2; 3; 4; 5 ] ] in
  let c = Block_array.copy t in
  check_int "same size" (Block_array.size t) (Block_array.size c);
  check_bool "same blocks" true
    (Array.for_all2 ( == ) (Block_array.blocks t) (Block_array.blocks c))

(* ---------------- pooled / scratch operation ---------------- *)

(* Running the same inserts through a pool + scratch must be observationally
   identical to the allocation-per-call path: same invariants, same key
   multiset, and no recycled array aliased by a block still in the array. *)
let prop_pooled_insert_equivalent =
  qtest "pooled insert/consolidate = unpooled" ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 15)
        (list_size (int_range 1 40) (int_bound 1000)))
    (fun lists ->
      let plain = array_of_key_lists lists in
      let pool = Block.Pool.create () in
      let scratch = Block_array.Scratch.create () in
      let pooled = Block_array.empty () in
      List.iter
        (fun keys ->
          Block_array.insert ~pool ~scratch ~alive pooled (block_of_keys keys))
        lists;
      Block_array.check_invariants pooled;
      (* No array of a block reachable from the array may sit in the
         pool's freelists. *)
      Array.iter
        (fun live ->
          Array.iter
            (fun free ->
              if
                List.exists
                  (fun (items, keys) ->
                    keys == live.Block.keys || items == Block.items live)
                  free
              then Alcotest.fail "pooled arrays aliased by the live array")
            pool.Block.Pool.slots)
        (Block_array.blocks pooled);
      List.sort compare (all_keys pooled) = List.sort compare (all_keys plain))

let test_pooled_consolidate_drops_taken () =
  let pool = Block.Pool.create () in
  let scratch = Block_array.Scratch.create () in
  let t = Block_array.empty () in
  List.iter
    (fun keys ->
      Block_array.insert ~pool ~scratch ~alive t (block_of_keys keys))
    [ [ 1; 2; 3; 4 ]; [ 5; 6 ] ];
  Array.iter
    (fun b ->
      Block.iter b ~f:(fun it ->
          if Item.key it mod 2 = 0 then ignore (Item.take it)))
    (Block_array.blocks t);
  ignore (Block_array.consolidate ~pool ~scratch ~alive t);
  Block_array.check_invariants t;
  check_list_int "odds remain" [ 1; 3; 5 ] (List.sort compare (alive_keys t))

(* ---------------- pivots ---------------- *)

(* The candidate ranges [pivots.(i), end_of i) must (a) contain at most
   k+1 items, (b) all candidates must be among the k+1 smallest keys below
   the extents, and (c) be exactly the ones a sort of every (key, block,
   position) below the extents puts first: ties go to the lower block
   index and, inside a block, to the smaller-key end.  Checked on the
   fresh array, then again after random dead-tail bounds in [ends]; half
   the cases draw keys from a narrow range, so duplicates are common. *)
let prop_pivots_select_k_smallest =
  qtest "pivot ranges = k+1 smallest" ~count:300
    QCheck2.Gen.(
      let* bound = oneofl [ 30; 10_000 ] in
      triple
        (list_size (int_range 1 10)
           (list_size (int_range 1 50) (int_bound bound)))
        (int_bound 64)
        (array_repeat 10 (int_bound 1_000)))
    (fun (lists, k, cuts) ->
      let t = array_of_key_lists lists in
      let blocks = Block_array.blocks t in
      let holds () =
        let extent = Array.init (Array.length blocks) (Block_array.end_of t) in
        Block_array.calculate_pivots t ~k;
        let entries =
          Array.to_list blocks
          |> List.mapi (fun i b ->
                 List.init extent.(i) (fun pos ->
                     (Item.key (Block.items b).(pos), i, -pos)))
          |> List.concat |> List.sort compare
        in
        let all = List.map (fun (key, _, _) -> key) entries in
        let total = List.length all in
        let selected = ref [] in
        Array.iteri
          (fun i b ->
            for pos = t.Block_array.pivots.(i) to extent.(i) - 1 do
              selected := Item.key (Block.items b).(pos) :: !selected
            done)
          blocks;
        let n_sel = List.length !selected in
        let cutoff_count = min (k + 1) total in
        let smallest = List.filteri (fun i _ -> i < cutoff_count) all in
        let expected = Array.copy extent in
        List.iteri
          (fun rank (_, i, neg_pos) ->
            if rank <= k then expected.(i) <- min expected.(i) (-neg_pos))
          entries;
        (* (a) at most k+1 candidates, (b) at least one unless nothing is
           left below the extents, (c) every candidate belongs to the
           k+1-smallest multiset, and the ranges are the reference's. *)
        n_sel <= k + 1
        && (n_sel >= 1 || total = 0)
        && List.for_all
             (fun key ->
               (* key appears in the k+1-smallest multiset *)
               List.exists (fun s -> s = key) smallest)
             !selected
        && t.Block_array.pivots = expected
      in
      let fresh = holds () in
      Array.iteri
        (fun i b ->
          let c = cuts.(i) in
          (* A third of the blocks keep "use filled". *)
          if c mod 3 <> 0 then
            t.Block_array.ends.(i) <- c mod (Block.filled b + 1))
        blocks;
      fresh && holds ())

let test_pivots_exhausted_small_array () =
  let t = array_of_key_lists [ [ 5; 6 ] ] in
  Block_array.calculate_pivots t ~k:100;
  (* Everything is a candidate. *)
  check_int "pivot 0" 0 t.Block_array.pivots.(0)

let test_pivots_array_reused_in_place () =
  (* When the block count is unchanged, recomputing pivots must write into
     the existing array instead of allocating a fresh one (the per-round
     allocation the scratch refactor removes). *)
  let t = array_of_key_lists [ [ 1; 2; 3; 4 ]; [ 5; 6 ] ] in
  Block_array.calculate_pivots t ~k:2;
  let p0 = t.Block_array.pivots in
  Block_array.calculate_pivots t ~k:4;
  check_bool "pivot array physically reused" true (t.Block_array.pivots == p0)

(* ---------------- find_min ---------------- *)

let rng = Xoshiro.create ~seed:5

let test_find_min_empty () =
  let t = Block_array.empty () in
  check_bool "none" true
    (Block_array.find_min ~alive ~rng ~my_tid:0 ~hasher t = None)

let prop_find_min_within_k1_smallest =
  qtest "find_min returns one of the k+1 smallest" ~count:200
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 8)
           (list_size (int_range 1 40) (int_bound 10_000)))
        (int_bound 32) int)
    (fun (lists, k, seed) ->
      let t = array_of_key_lists lists in
      Block_array.calculate_pivots t ~k;
      let rng = Xoshiro.create ~seed in
      let all = List.sort compare (all_keys t) in
      let cutoff =
        List.nth all (min k (List.length all - 1))
      in
      match Block_array.find_min ~alive ~rng ~my_tid:0 ~hasher t with
      | None -> false
      | Some it -> Item.key it <= cutoff)

let test_find_min_falls_back_on_taken () =
  (* Single block, the randomly selected candidate may be taken; the block
     minimum is alive, so eventually an alive item must be returned and it
     must be the block min. *)
  let t = array_of_key_lists [ [ 1; 2; 3; 4; 5; 6; 7; 8 ] ] in
  Block_array.calculate_pivots t ~k:7;
  (* Take everything except the minimum. *)
  Array.iter
    (fun b ->
      Block.iter b ~f:(fun it ->
          if Item.key it <> 1 then ignore (Item.take it)))
    (Block_array.blocks t);
  for _ = 1 to 20 do
    match Block_array.find_min ~alive ~rng ~my_tid:0 ~hasher t with
    | Some it ->
        (* Either an alive item (the min) or a taken one (caller retries);
           the alive one must be the true minimum. *)
        if alive it then check_int "min" 1 (Item.key it)
    | None -> Alcotest.fail "array is not empty"
  done

let test_local_ordering_returns_my_min () =
  (* Build one block attributed to tid 3 holding the global minimum, and a
     big block of smaller candidates attributed to someone else; with local
     ordering the returned key must never exceed my block's minimum. *)
  let mine = block_of_keys ~filter:(Bloom.singleton ~hasher 3) [ 100; 50 ] in
  let other =
    block_of_keys
      ~filter:(Bloom.singleton ~hasher 9)
      (List.init 32 (fun i -> 200 + i))
  in
  let t = Block_array.empty () in
  Block_array.insert ~alive t other;
  Block_array.insert ~alive t mine;
  Block_array.calculate_pivots t ~k:16;
  for seed = 0 to 50 do
    let rng = Xoshiro.create ~seed in
    match Block_array.find_min ~alive ~rng ~my_tid:3 ~hasher t with
    | Some it -> check_bool "never skips my min" true (Item.key it <= 50)
    | None -> Alcotest.fail "non-empty"
  done

let test_find_min_never_none_with_alive_items () =
  (* Regression for the mass-loss bug: concurrent deleters can shrink every
     block's [filled] below its stale pivot, making every candidate range
     empty.  find_min must fall back to the block minima instead of
     reporting emptiness (the caller would otherwise publish None and
     disconnect live items). *)
  let t = array_of_key_lists [ List.init 16 (fun i -> i) ] in
  Block_array.calculate_pivots t ~k:3;
  (* Take the 8 smallest and lower [filled] past them, as another
     thread's consolidation trims a dead tail in place — now filled (8) <
     pivot (12). *)
  Array.iter
    (fun b ->
      Block.iter b ~f:(fun it -> if Item.key it < 8 then ignore (Item.take it));
      B.set b.Block.filled (Block.alive_end ~alive b (Block.filled b)))
    (Block_array.blocks t);
  check_bool "pivot now exceeds filled" true
    (t.Block_array.pivots.(0) > Block.filled (Block_array.blocks t).(0));
  for seed = 0 to 20 do
    let rng = Xoshiro.create ~seed in
    match Block_array.find_min ~alive ~rng ~my_tid:0 ~hasher t with
    | Some it -> check_bool "alive item findable" true (Item.key it >= 8)
    | None -> Alcotest.fail "transient None on non-empty array (regression)"
  done

(* A published array shares its blocks with later snapshots, whose
   consolidations trim dead tails in place: a pivot may then exceed
   [filled], and a level-0 block may be trimmed empty.  The published
   checks accept both; a private array's checks do not. *)
let test_published_invariants_after_trims () =
  let t = array_of_key_lists [ List.init 16 (fun i -> i); [ 99 ] ] in
  Block_array.calculate_pivots t ~k:3;
  t.Block_array.least <- Block_array.min_key t;
  Array.iter
    (fun b ->
      Block.iter b ~f:(fun it ->
          if Item.key it < 8 || Item.key it = 99 then ignore (Item.take it));
      B.set b.Block.filled (Block.alive_end ~alive b (Block.filled b)))
    (Block_array.blocks t);
  check_bool "a pivot now exceeds filled" true
    (t.Block_array.pivots.(0) > Block.filled (Block_array.blocks t).(0));
  check_int "the level-0 block is empty" 0
    (Block.filled (Block_array.blocks t).(1));
  Block_array.check_invariants ~published:true t;
  check_bool "a private array fails" true
    (try
       Block_array.check_invariants t;
       false
     with Failure _ -> true)

let test_find_min_leaves_filled () =
  (* Three published blocks, all attributed to my tid, each with a dead
     tail; pivots cover whole blocks.  find_min on a private copy must
     return the smallest alive item of the peeked blocks, record each dead
     tail in the copy's [ends] and leave every block's [filled] (and the
     source array's [ends]) exactly as it was. *)
  let my_tid = 3 in
  let filter = Bloom.singleton ~hasher my_tid in
  let base = Block_array.empty () in
  List.iter
    (fun keys -> Block_array.insert ~alive base (block_of_keys ~filter keys))
    [
      List.init 64 (fun i -> 3 * i);
      List.init 32 (fun i -> (3 * i) + 1);
      List.init 16 (fun i -> (3 * i) + 2);
    ];
  Block_array.calculate_pivots base ~k:1000;
  let blocks = Block_array.blocks base in
  Array.iter Block.publish blocks;
  (* Dead tails: 0 3 6 | 1 4 | 2 5 8 11; the smallest alive key is 7. *)
  Array.iter
    (fun b ->
      Block.iter b ~f:(fun it ->
          if List.mem (Item.key it) [ 0; 3; 6; 1; 4; 2; 5; 8; 11 ] then
            ignore (Item.take it)))
    blocks;
  let filled = Array.map Block.filled blocks in
  for seed = 0 to 20 do
    let snap = Block_array.copy base in
    let rng = Xoshiro.create ~seed in
    (match Block_array.find_min ~alive ~rng ~my_tid ~hasher snap with
    | Some it -> check_int "smallest alive of the peeked blocks" 7 (Item.key it)
    | None -> Alcotest.fail "non-empty");
    Array.iteri
      (fun i b -> check_int "filled untouched" filled.(i) (Block.filled b))
      blocks;
    check_bool "dead tails recorded in the snapshot" true
      (snap.Block_array.ends = [| 61; 30; 12 |]);
    check_bool "source ends untouched" true
      (Array.for_all (fun e -> e = max_int) base.Block_array.ends);
    Block_array.check_invariants snap
  done

(* The dead-tail bounds a snapshot records stay sound through the whole
   snapshot protocol: random takes (biased to the smallest keys, where
   dead tails form), find_mins with local ordering, and refreshes onto a
   successor array that keeps some blocks, rebuilds some at the same level
   with fresh items and drops others — with the bounds handed on by
   [carry_ends].  [check_invariants] fails on an untaken item at or past a
   block's recorded end. *)
let prop_ends_bound_dead_tails =
  qtest "recorded ends bound dead tails across refreshes" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 6)
           (list_size (int_range 1 40) (int_bound 10_000)))
        (list_size (int_range 1 60) (pair (int_bound 2) (int_bound 1_000_000))))
    (fun (lists, ops) ->
      let mine = Bloom.singleton ~hasher 0 in
      let t = ref (Block_array.empty ()) in
      List.iteri
        (fun i keys ->
          let filter = if i mod 2 = 0 then mine else Bloom.empty in
          Block_array.insert ~alive !t (block_of_keys ~filter keys))
        lists;
      Block_array.calculate_pivots !t ~k:8;
      let fresh_key = ref 20_000 in
      let refresh x =
        let x = ref x in
        let kept =
          Array.to_list (Block_array.blocks !t)
          |> List.filter_map (fun b ->
                 let choice = !x mod 3 in
                 x := !x / 3;
                 match choice with
                 | 0 -> Some b
                 | 1 ->
                     let n = Block.capacity_of_level (Block.level b) in
                     fresh_key := !fresh_key + n;
                     Some
                       (block_of_keys ~filter:mine
                          (List.init n (fun j -> !fresh_key - j)))
                 | _ -> None)
        in
        if kept <> [] then begin
          let next = Block_array.empty () in
          Block_array.replace_blocks next (Array.of_list kept);
          Block_array.calculate_pivots next ~k:8;
          Block_array.carry_ends ~from:!t next;
          t := next
        end
      in
      List.iter
        (fun (op, x) ->
          (match op with
          | 0 -> (
              let smallest =
                Array.to_list (Block_array.blocks !t)
                |> List.concat_map Block.to_list
                |> List.filter alive
                |> List.sort (fun a b -> compare (Item.key a) (Item.key b))
              in
              match smallest with
              | [] -> ()
              | l ->
                  let n = min 4 (List.length l) in
                  ignore (Item.take (List.nth l (x mod n))))
          | 1 ->
              let rng = Xoshiro.create ~seed:x in
              ignore (Block_array.find_min ~alive ~rng ~my_tid:0 ~hasher !t)
          | _ -> refresh x);
          Block_array.check_invariants !t)
        ops;
      true)

let () =
  Alcotest.run "block_array"
    [
      ( "insert/consolidate",
        [
          prop_insert_preserves_invariants;
          Alcotest.test_case "same-level merge" `Quick test_insert_merges_same_level;
          Alcotest.test_case "consolidate drops taken" `Quick test_consolidate_drops_taken;
          Alcotest.test_case "consolidate to empty" `Quick test_consolidate_empties;
          Alcotest.test_case "trim keeps pivots" `Quick
            test_consolidate_trim_keeps_pivots;
          Alcotest.test_case "copy, merge, drop change" `Quick
            test_consolidate_reports_change;
          Alcotest.test_case "copy shallow" `Quick test_copy_is_shallow_consistent;
        ] );
      ( "pool/scratch",
        [
          prop_pooled_insert_equivalent;
          Alcotest.test_case "pooled consolidate drops taken" `Quick
            test_pooled_consolidate_drops_taken;
        ] );
      ( "pivots",
        [
          prop_pivots_select_k_smallest;
          Alcotest.test_case "small array" `Quick test_pivots_exhausted_small_array;
          Alcotest.test_case "pivot array reuse" `Quick
            test_pivots_array_reused_in_place;
        ] );
      ( "find_min",
        [
          Alcotest.test_case "empty" `Quick test_find_min_empty;
          prop_find_min_within_k1_smallest;
          Alcotest.test_case "fallback on taken" `Quick test_find_min_falls_back_on_taken;
          Alcotest.test_case "local ordering" `Quick test_local_ordering_returns_my_min;
          Alcotest.test_case "no transient None (regression)" `Quick
            test_find_min_never_none_with_alive_items;
          Alcotest.test_case "leaves filled untouched" `Quick
            test_find_min_leaves_filled;
          Alcotest.test_case "published arrays after trims" `Quick
            test_published_invariants_after_trims;
          prop_ends_bound_dead_tails;
        ] );
    ]
