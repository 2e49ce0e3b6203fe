(* Tests for the baseline queues: the shared skiplist substrate, Lindén &
   Jonsson, SprayList, Multi-Queues, Heap+Lock (also Figure 4's centralized
   k-queue), and the Wimmer et al. hybrid k-queue.  Every queue must be an
   exact priority queue when driven by a single thread (their relaxations
   all collapse at T = 1), which gives one uniform oracle property over the
   whole registry. *)

open Helpers
module B = Klsm_backend.Real
module R = Klsm_harness.Registry.Make (B)
module Sk = Klsm_baselines.Skiplist.Make (B)
module Linden = Klsm_baselines.Linden_pq.Default
module Spray = Klsm_baselines.Spraylist.Default
module Multiq = Klsm_baselines.Multiq.Default
module Hybrid = Klsm_baselines.Wimmer_hybrid.Default
module Lock = Klsm_baselines.Spinlock.Make (B)
module Heap = Klsm_baselines.Seq_heap.Make (B)
module Xoshiro = Klsm_primitives.Xoshiro

(* ---------------- Seq_heap ---------------- *)

let prop_heap_is_exact =
  qtest "Seq_heap = exact PQ" ~count:150 ops_gen (fun ops ->
      let h = Heap.create () in
      matches_oracle
        ~insert:(fun k -> Heap.insert h k ())
        ~delete_min:(fun () -> Option.map fst (Heap.pop_min h))
        ops)

let prop_heap_drain_sorted =
  qtest "Seq_heap drains sorted" keys_gen (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.insert h k ()) keys;
      Heap.check_invariants h;
      List.map fst (Heap.drain h) = List.sort compare keys)

let test_heap_peek () =
  let h = Heap.create () in
  check_bool "empty peek" true (Heap.peek h = None);
  check_int "empty peek_key" max_int (Heap.peek_key h);
  Heap.insert h 5 "a";
  Heap.insert h 2 "b";
  check_int "peek_key" 2 (Heap.peek_key h);
  check_bool "peek" true (Heap.peek h = Some (2, "b"))

(* ---------------- Spinlock ---------------- *)

let test_spinlock_mutual_exclusion_domains () =
  let lock = Lock.create () in
  let counter = ref 0 in
  B.parallel_run ~num_threads:4 (fun _tid ->
      for _ = 1 to 10_000 do
        Lock.with_lock lock (fun () -> incr counter)
      done);
  check_int "no lost updates" 40_000 !counter

let test_spinlock_try_acquire () =
  let lock = Lock.create () in
  check_bool "first" true (Lock.try_acquire lock);
  check_bool "second fails" false (Lock.try_acquire lock);
  Lock.release lock;
  check_bool "after release" true (Lock.try_acquire lock)

let test_spinlock_releases_on_exception () =
  let lock = Lock.create () in
  (try Lock.with_lock lock (fun () -> failwith "boom") with Failure _ -> ());
  check_bool "released" true (Lock.try_acquire lock)

(* ---------------- skiplist substrate ---------------- *)

let prop_skiplist_sorted =
  qtest "skiplist keeps ascending alive order" ~count:100 keys_gen
    (fun keys ->
      let sk = Sk.create ~dummy:0 () in
      let rng = Xoshiro.create ~seed:9 in
      List.iter (fun k -> ignore (Sk.insert sk ~rng k 0)) keys;
      List.map fst (Sk.to_alive_list sk) = List.sort compare keys)

let test_skiplist_take_hides () =
  let sk = Sk.create ~dummy:0 () in
  let rng = Xoshiro.create ~seed:2 in
  let n1 = Sk.insert sk ~rng 1 0 in
  let _n2 = Sk.insert sk ~rng 2 0 in
  check_bool "take" true (Sk.try_take n1);
  check_bool "take twice fails" false (Sk.try_take n1);
  check_bool "hidden" true (List.map fst (Sk.to_alive_list sk) = [ 2 ])

let test_skiplist_unlink_via_search () =
  let sk = Sk.create ~dummy:0 () in
  let rng = Xoshiro.create ~seed:2 in
  let nodes = List.init 100 (fun i -> Sk.insert sk ~rng i 0) in
  (* Physically delete the first 50. *)
  List.iteri
    (fun i n ->
      if i < 50 then begin
        ignore (Sk.try_take n);
        Sk.mark_node n
      end)
    nodes;
  (* Search for the first alive key: the whole marked prefix lies on the
     bottom-level search path, so the traversal unlinks all of it (this is
     exactly how the Lindén-style batched cleanup invokes it).  Searching
     beyond alive nodes would legitimately skip over the prefix via upper
     levels and unlink less. *)
  ignore (Sk.search sk 50);
  check_int "physically unlinked" 50 (Sk.length sk)

let test_skiplist_duplicate_keys () =
  let sk = Sk.create ~dummy:0 () in
  let rng = Xoshiro.create ~seed:3 in
  for i = 0 to 9 do
    ignore (Sk.insert sk ~rng 5 i)
  done;
  check_int "ten copies" 10 (Sk.length sk)

(* ---------------- per-queue oracle properties ---------------- *)

let all_specs =
  [
    R.Heap_lock;
    R.Linden;
    R.Spraylist;
    R.Multiq 2;
    R.Klsm 0;
    R.Klsm 64;
    R.Dlsm;
    R.Wimmer_centralized;
    R.Wimmer_hybrid 16;
    R.klsm_sharded 16 4;
    (* Small enough that every block reaching the shared component is
       spilled to the store: local ordering must cover cold blocks. *)
    R.Stored (R.Klsm 64, { R.spill_bytes = 256; store_dir = "" });
  ]

(* One step of a single-thread sequence: an insert, a batch insert, a
   delete-min, a pull of up to [n] keys, and on the k-LSMs through [Klsm]
   a relaxed peek or a change of the relaxation [k]. *)
type op =
  | Insert of int
  | Insert_batch of int list
  | Delete_min
  | Delete_batch of int
  | Find_min
  | Set_k of int

let show_op = function
  | Insert k -> Printf.sprintf "insert %d" k
  | Insert_batch ks ->
      Printf.sprintf "insert_batch [%s]"
        (String.concat "; " (List.map string_of_int ks))
  | Delete_min -> "delete_min"
  | Delete_batch n -> Printf.sprintf "delete_batch %d" n
  | Find_min -> "find_min"
  | Set_k k -> Printf.sprintf "set_k %d" k

let seq_ops_gen ~peeks =
  let open QCheck2.Gen in
  let key = int_bound 10_000 in
  list_size (int_bound 300)
    (frequency
       ([
          (8, map (fun k -> Insert k) key);
          (2, map (fun ks -> Insert_batch ks) (list_size (int_bound 8) key));
          (5, pure Delete_min);
          (2, map (fun n -> Delete_batch n) (int_bound 12));
        ]
       @
       if peeks then
         [ (2, pure Find_min); (1, map (fun k -> Set_k k) (int_bound 300)) ]
       else []))

(* Run [ops] against a queue (through closures) and the sorted-list
   oracle: a delete-min returns the smallest key, a pull of [n] the
   [min n size] smallest in ascending order, and a peek the smallest key
   without removing it.  Fails with the first step that differs. *)
let exact_pq ~insert ~insert_batch ~delete_min ~delete_batch ?find_min ?set_k
    ops =
  let oracle = Oracle_pq.create () in
  let show = function
    | None -> "none"
    | Some k -> string_of_int k
  in
  let show_list l = String.concat "; " (List.map string_of_int l) in
  List.iteri
    (fun i op ->
      let fail fmt =
        Printf.ksprintf
          (fun s -> Alcotest.failf "step %d (%s): %s" i (show_op op) s)
          fmt
      in
      match op with
      | Insert k ->
          insert k;
          Oracle_pq.insert oracle k
      | Insert_batch ks ->
          insert_batch ks;
          List.iter (Oracle_pq.insert oracle) ks
      | Delete_min ->
          let got = delete_min () and want = Oracle_pq.delete_min oracle in
          if got <> want then fail "got %s, want %s" (show got) (show want)
      | Delete_batch n ->
          let got = delete_batch n in
          let rec take n =
            if n = 0 then []
            else
              match Oracle_pq.delete_min oracle with
              | Some k -> k :: take (n - 1)
              | None -> []
          in
          let want = take n in
          if got <> want then
            fail "got [%s], want [%s]" (show_list got) (show_list want)
      | Find_min -> (
          match find_min with
          | Some peek ->
              let got = peek ()
              and want =
                match Oracle_pq.to_list oracle with [] -> None | k :: _ -> Some k
              in
              if got <> want then fail "got %s, want %s" (show got) (show want)
          | None -> fail "no peek on this queue")
      | Set_k k -> (
          match set_k with
          | Some set -> set k
          | None -> fail "no set_k on this queue"))
    ops;
  true

(* A [+spill] spec runs on a fresh store root per case. *)
let with_spec spec f =
  match spec with
  | R.Stored (inner, cfg) ->
      with_root (fun root -> f (R.Stored (inner, { cfg with R.store_dir = root })))
  | spec -> f spec

let oracle_test spec =
  qtest
    (Printf.sprintf "%s single thread = exact PQ" (R.spec_name spec))
    ~count:100 (seq_ops_gen ~peeks:false)
    (fun ops ->
      with_spec spec @@ fun spec ->
      let inst = R.make ~seed:1 ~num_threads:1 spec in
      let h = inst.R.register 0 in
      exact_pq
        ~insert:(fun k -> h.R.insert k 0)
        ~insert_batch:(fun ks ->
          h.R.insert_batch (Array.of_list (List.map (fun k -> (k, 0)) ks)))
        ~delete_min:(fun () -> Option.map fst (h.R.try_delete_min ()))
        ~delete_batch:(fun n -> List.map fst (h.R.try_delete_min_batch n))
        ops)

(* The k-LSM specs of [all_specs] built through [Klsm] itself, as
   [Registry.make] builds them, so the handle also peeks and retunes. *)
let klsm_specs =
  List.filter (fun s -> s = R.Dlsm || R.klsm_cfg s <> None) all_specs

let klsm_queue spec =
  let make ?spill_max_level ?spill_policy (c : R.sharded_cfg) =
    R.Klsm.create_with ~seed:1 ~k:c.R.k ~shards:c.R.shards ?spill_max_level
      ?spill_policy ~num_threads:1 ()
  in
  match (spec, R.klsm_cfg spec) with
  | R.Dlsm, _ -> make ~spill_max_level:max_int { R.k = 256; shards = 1 }
  | R.Stored (_, cfg), Some c ->
      let sp =
        R.Spill.create ~threshold:cfg.R.spill_bytes ~num_threads:1
          ~root:cfg.R.store_dir ()
      in
      make c ~spill_policy:(fun ~alive ~tid b -> R.Spill.policy sp ~alive ~tid b)
  | _, Some c -> make c
  | _, None -> invalid_arg "klsm_queue: not a k-LSM spec"

let klsm_oracle_test spec =
  qtest
    (Printf.sprintf "%s peek and set_k = exact PQ" (R.spec_name spec))
    ~count:100 (seq_ops_gen ~peeks:true)
    (fun ops ->
      with_spec spec @@ fun spec ->
      let q = klsm_queue spec in
      let h = R.Klsm.register q 0 in
      let shards = R.Klsm.num_stripes q in
      exact_pq
        ~insert:(fun k -> R.Klsm.insert h k 0)
        ~insert_batch:(fun ks ->
          let pairs = Array.of_list (List.map (fun k -> (k, 0)) ks) in
          (* The DLSM's batch insert is a loop of inserts (the Registry's
             override): it has no shared component to publish to. *)
          if spec = R.Dlsm then Array.iter (fun (k, v) -> R.Klsm.insert h k v) pairs
          else R.Klsm.insert_batch h pairs)
        ~delete_min:(fun () -> Option.map fst (R.Klsm.try_delete_min h))
        ~delete_batch:(fun n -> List.map fst (R.Klsm.try_delete_min_batch h n))
        ~find_min:(fun () -> Option.map fst (R.Klsm.try_find_min h))
        ~set_k:(fun k -> R.Klsm.set_k q (max k shards))
        ops)

(* ---------------- Linden ---------------- *)

let test_linden_interleaved_drain () =
  let q = Linden.create_with ~dummy:0 ~num_threads:1 () in
  let h = Linden.register q 0 in
  (* Enough deletes to cross the prefix_bound restructure path. *)
  for i = 0 to 199 do
    Linden.insert h i 0
  done;
  for i = 0 to 199 do
    match Linden.try_delete_min h with
    | Some (k, _) -> check_int "order" i k
    | None -> Alcotest.fail "early empty"
  done;
  check_bool "empty" true (Linden.try_delete_min h = None)

(* ---------------- SprayList ---------------- *)

let test_spray_returns_small_keys () =
  (* With T declared = 8 the spray may relax, but landed keys must still be
     near the front: we only check conservation and that repeated drains
     terminate. *)
  let q = Spray.create_with ~dummy:0 ~num_threads:8 () in
  let h = Spray.register q 0 in
  for i = 0 to 499 do
    Spray.insert h i 0
  done;
  let got = ref [] in
  let rec drain () =
    match Spray.try_delete_min h with
    | Some (k, _) ->
        got := k :: !got;
        drain ()
    | None -> ()
  in
  drain ();
  check_int "all out" 500 (List.length !got);
  check_bool "multiset" true
    (List.sort compare !got = List.init 500 Fun.id)

(* ---------------- MultiQ ---------------- *)

let test_multiq_conservation () =
  let q = Multiq.create_with ~c:4 ~num_threads:2 () in
  let h = Multiq.register q 0 in
  for i = 0 to 299 do
    Multiq.insert h i 0
  done;
  check_int "size" 300 (Multiq.approximate_size q);
  let got = ref [] in
  let rec drain () =
    match Multiq.try_delete_min h with
    | Some (k, _) ->
        got := k :: !got;
        drain ()
    | None -> ()
  in
  drain ();
  check_bool "multiset" true (List.sort compare !got = List.init 300 Fun.id)

let test_multiq_rank_quality () =
  (* Two-choices keeps the rank error small: with 8 queues and sequential
     drains the first returned key should be within the smallest few. *)
  let q = Multiq.create_with ~c:4 ~num_threads:2 ~seed:5 () in
  let h = Multiq.register q 0 in
  for i = 0 to 999 do
    Multiq.insert h i 0
  done;
  match Multiq.try_delete_min h with
  | Some (k, _) -> check_bool "near min" true (k < 100)
  | None -> Alcotest.fail "non-empty"

(* ---------------- Wimmer hybrid ---------------- *)

let test_hybrid_spills_to_global () =
  let q = Hybrid.create_with ~k:8 ~num_threads:2 () in
  let h0 = Hybrid.register q 0 in
  for i = 0 to 99 do
    Hybrid.insert h0 i 0
  done;
  (* With k = 8, most items must have been flushed to the global heap,
     where another thread can see them. *)
  let h1 = Hybrid.register q 1 in
  let seen = ref 0 in
  let rec drain () =
    match Hybrid.try_delete_min h1 with
    | Some _ ->
        incr seen;
        drain ()
    | None -> ()
  in
  drain ();
  check_bool "h1 sees the flushed majority" true (!seen >= 90)

(* ---------------- lazy deletion (§4.5) ---------------- *)

(* The two Figure 4 k-queues under the lazy-deletion pair, through the
   Registry: condemned (odd) keys are never returned, [on_lazy_delete]
   fires once per condemned key, and the queue's drop counter agrees.
   [batch] > 1 drains through [try_delete_min_batch]. *)
let test_lazy_deletion spec ~drop_counter ~batch () =
  let module Obs = Klsm_obs.Obs in
  let prev = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled prev) @@ fun () ->
  let dropped = ref [] in
  let inst =
    R.make ~num_threads:1
      ~should_delete:(fun key _ -> key mod 2 = 1)
      ~on_lazy_delete:(fun key _ -> dropped := key :: !dropped)
      spec
  in
  let h = inst.R.register 0 in
  for i = 0 to 99 do
    h.R.insert i 0
  done;
  let returned = ref 0 in
  let rec drain () =
    match h.R.try_delete_min_batch batch with
    | [] -> ()
    | kvs ->
        List.iter
          (fun (k, _) ->
            check_int "only even" 0 (k mod 2);
            incr returned)
          kvs;
        drain ()
  in
  drain ();
  check_int "evens returned" 50 !returned;
  check_list_int "each odd dropped once"
    (List.init 50 (fun i -> (2 * i) + 1))
    (List.sort compare !dropped);
  let drops =
    match List.assoc_opt drop_counter (inst.R.stats ()).Obs.counters with
    | Some per -> Array.fold_left ( + ) 0 per
    | None -> 0
  in
  check_int drop_counter 50 drops

let lazy_deletion_cases spec ~drop_counter =
  [
    Alcotest.test_case "lazy deletion" `Quick
      (test_lazy_deletion spec ~drop_counter ~batch:1);
    Alcotest.test_case "lazy deletion, batch pop" `Quick
      (test_lazy_deletion spec ~drop_counter ~batch:7);
  ]

let () =
  Alcotest.run "baselines"
    [
      ( "seq_heap",
        [
          prop_heap_is_exact;
          prop_heap_drain_sorted;
          Alcotest.test_case "peek" `Quick test_heap_peek;
        ] );
      ( "spinlock",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_spinlock_mutual_exclusion_domains;
          Alcotest.test_case "try_acquire" `Quick test_spinlock_try_acquire;
          Alcotest.test_case "exception safety" `Quick test_spinlock_releases_on_exception;
        ] );
      ( "skiplist",
        [
          prop_skiplist_sorted;
          Alcotest.test_case "take hides" `Quick test_skiplist_take_hides;
          Alcotest.test_case "unlink" `Quick test_skiplist_unlink_via_search;
          Alcotest.test_case "duplicates" `Quick test_skiplist_duplicate_keys;
        ] );
      ( "oracle",
        List.map oracle_test all_specs @ List.map klsm_oracle_test klsm_specs
      );
      ( "linden",
        [ Alcotest.test_case "interleaved drain" `Quick test_linden_interleaved_drain ] );
      ( "spraylist",
        [ Alcotest.test_case "conservation" `Quick test_spray_returns_small_keys ] );
      ( "multiq",
        [
          Alcotest.test_case "conservation" `Quick test_multiq_conservation;
          Alcotest.test_case "two-choices quality" `Quick test_multiq_rank_quality;
        ] );
      ( "wimmer-hybrid",
        Alcotest.test_case "spill to global" `Quick test_hybrid_spills_to_global
        :: lazy_deletion_cases (R.Wimmer_hybrid 4)
             ~drop_counter:"hybrid.lazy_drop" );
      ( "centralized-k",
        lazy_deletion_cases R.Wimmer_centralized ~drop_counter:"heap.lazy_drop"
      );
    ]
