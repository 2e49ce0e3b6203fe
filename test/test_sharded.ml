(* Tests for the k-LSM (lib/core/klsm.ml), run over one stripe (the
   paper's Listing 5 queue) and four: exact single-thread semantics,
   conservation across handles (spy paths), the single-thread rho window,
   runtime k, lazy deletion, validation and edge cases, the ceil(k/S)
   relaxation-budget partition, the striped find-min race and the stripe
   memo it consults (a repeat peek, a publish on another stripe, a
   stripe holding only max_int keys, and the bound of a spill that lands
   right behind an empty publish),
   conservation under CAS-failure storms and the fixed home stripe, the
   DESIGN.md §12 rank bound rho <= (T-1+S) * ceil(k/S) measured
   empirically on the simulator, and the §17 batched delete-min: the
   one-CAS run claim at S = 1 and S = 4, batch exactness at S = 1 to 4,
   empty/short edges, a batch+single-pop fuzz against the sequential
   oracle, and the rank bound of pulls claimed as runs. *)

open Helpers
module K = Klsm_core.Klsm.Default
module Shared = K.Shared_klsm
module Obs = Klsm_obs.Obs
module Sim = Klsm_backend.Sim
module RS = Klsm_harness.Registry.Make (Sim)
module T = Klsm_harness.Throughput.Make (Sim)
module Drive = Klsm_chaos.Drive
module Chaos = Klsm_chaos.Chaos

(* Drain with retry: try_delete_min may fail spuriously (spy misses). *)
let drain_all try_delete_min =
  let rec go acc misses =
    if misses > 200 then List.rev acc
    else begin
      match try_delete_min () with
      | Some (k, _) -> go (k :: acc) 0
      | None -> go acc (misses + 1)
    end
  in
  go [] 0

(* The contract cases run on one stripe (the paper's queue) and on
   four. *)
let stripe_counts = [ 1; 4 ]

(* ---------------- single-thread exactness (local ordering) ---------------- *)

let prop_single_thread_exact =
  qtest "k-LSM single thread = exact PQ (any k)" ~count:100
    QCheck2.Gen.(triple ops_gen (int_bound 300) (oneofl stripe_counts))
    (fun (ops, k, shards) ->
      (* k = 0 (every insert spills) runs on one stripe only. *)
      let k = if shards = 1 then k else max k shards in
      let q = K.create_with ~k ~shards ~num_threads:1 () in
      let h = K.register q 0 in
      matches_oracle
        ~insert:(fun key -> K.insert h key ())
        ~delete_min:(fun () -> Option.map fst (K.try_delete_min h))
        ops)

(* Every stripe count from one to four, so S = 2 and S = 3 (an uneven
   ceil(k/S) split) are covered too. *)
let prop_single_thread_exact_striped =
  qtest "sharded single thread = exact PQ (any k, S)" ~count:100
    QCheck2.Gen.(triple ops_gen (int_bound 300) (int_range 1 4))
    (fun (ops, k, shards) ->
      let k = max k shards in
      let q = K.create_with ~k ~shards ~num_threads:1 () in
      let h = K.register q 0 in
      matches_oracle
        ~insert:(fun key -> K.insert h key ())
        ~delete_min:(fun () -> Option.map fst (K.try_delete_min h))
        ops)

(* ---------------- conservation across handles ---------------- *)

let prop_multi_handle_conservation =
  (* Two handles driven deterministically from one thread: all inserted
     keys come out exactly once — h0 drains everything, other stripes via
     the race, h1's local LSM via spy. *)
  qtest "two-handle conservation" ~count:50
    QCheck2.Gen.(
      pair (list_size (int_range 1 300) (int_bound 5_000)) (oneofl stripe_counts))
    (fun (keys, shards) ->
      let q = K.create_with ~k:16 ~shards ~num_threads:2 () in
      let h0 = K.register q 0 and h1 = K.register q 1 in
      List.iteri
        (fun i k -> K.insert (if i land 1 = 0 then h0 else h1) k ())
        keys;
      let got = drain_all (fun () -> K.try_delete_min h0) in
      List.sort compare got = List.sort compare keys)

let test_spy_enables_cross_thread_delete () =
  List.iter
    (fun shards ->
      let q = K.create_with ~k:1024 ~shards ~num_threads:2 () in
      let h0 = K.register q 0 and h1 = K.register q 1 in
      (* All items live in h1's local LSM (k large: nothing spills). *)
      for i = 1 to 100 do
        K.insert h1 i ()
      done;
      let got = drain_all (fun () -> K.try_delete_min h0) in
      check_int "h0 got them all by spying" 100 (List.length got))
    stripe_counts

(* ---------------- relaxation window (rho) ---------------- *)

let test_relaxation_bound_single_thread () =
  (* T = 1: every delete-min must return a key of rank <= deletions + rho
     among the initial set (deletion-only phase). *)
  List.iter
    (fun shards ->
      let k = 8 in
      let rho = Klsm_core.Klsm.rank_bound ~shards ~threads:1 ~k () in
      let q = K.create_with ~k ~shards ~num_threads:1 () in
      let h = K.register q 0 in
      let n = 200 in
      (* Distinct keys 0..n-1 in shuffled order. *)
      let keys = Array.init n Fun.id in
      Xoshiro.shuffle (Xoshiro.create ~seed:4) keys;
      Array.iter (fun key -> K.insert h key ()) keys;
      let deleted = ref 0 in
      let rec go () =
        match K.try_delete_min h with
        | Some (key, ()) ->
            (* rank of key among remaining = key - (#smaller deleted); since
               we delete near-minimal keys, a loose but sound bound: *)
            check_bool "within rho window" true (key <= !deleted + rho + 1);
            incr deleted;
            go ()
        | None -> ()
      in
      go ();
      check_int "drained" n !deleted)
    stripe_counts

(* ---------------- runtime k ---------------- *)

let test_set_k () =
  (* From the exact-shared k = 0 (one stripe) or the smallest budget four
     stripes admit, up to k = 1024 mid-run. *)
  List.iter
    (fun (shards, k0) ->
      let q = K.create_with ~k:k0 ~shards ~num_threads:1 () in
      let h = K.register q 0 in
      for i = 1 to 50 do
        K.insert h i ()
      done;
      K.set_k q 1024;
      check_int "get_k" 1024 (K.get_k q);
      for i = 51 to 100 do
        K.insert h i ()
      done;
      let got = drain_all (fun () -> K.try_delete_min h) in
      check_int "conserved across k change" 100 (List.length got))
    [ (1, 0); (4, 4) ]

(* ---------------- lazy deletion (§4.5) ---------------- *)

let test_lazy_deletion_filters () =
  List.iter
    (fun shards ->
      let condemned = Hashtbl.create 16 in
      let dropped = ref [] in
      let q =
        K.create_with ~k:4 ~shards ~num_threads:1
          ~should_delete:(fun key _ -> Hashtbl.mem condemned key)
          ~on_lazy_delete:(fun key _ -> dropped := key :: !dropped)
          ()
      in
      let h = K.register q 0 in
      for i = 1 to 32 do
        K.insert h i ()
      done;
      (* Condemn the odd keys, then force consolidation via more traffic. *)
      for i = 1 to 32 do
        if i mod 2 = 1 then Hashtbl.replace condemned i true
      done;
      let got = drain_all (fun () -> K.try_delete_min h) in
      (* No condemned key is ever returned. *)
      List.iter
        (fun k -> check_bool "only even keys returned" true (k mod 2 = 0))
        got;
      check_int "16 survivors" 16 (List.length got);
      (* Every condemned key was dropped exactly once (16 odd keys). *)
      let d = List.sort compare !dropped in
      check_list_int "each dropped once" (List.init 16 (fun i -> (2 * i) + 1)) d)
    stripe_counts

let test_lazy_deletion_exactly_once_hook () =
  (* Heavy merging must not double-fire the hook. *)
  List.iter
    (fun shards ->
      let fired = Hashtbl.create 16 in
      let dupes = ref 0 in
      let q =
        K.create_with ~k:8 ~shards ~num_threads:1
          ~should_delete:(fun key _ -> key mod 3 = 0)
          ~on_lazy_delete:(fun key _ ->
            if Hashtbl.mem fired key then incr dupes
            else Hashtbl.replace fired key ())
          ()
      in
      let h = K.register q 0 in
      for i = 1 to 300 do
        K.insert h i ()
      done;
      ignore (drain_all (fun () -> K.try_delete_min h));
      check_int "no duplicate hook firings" 0 !dupes;
      check_int "every condemned key fired" 100 (Hashtbl.length fired))
    stripe_counts

(* ---------------- sizes, validation and edges ---------------- *)

let test_approximate_size () =
  List.iter
    (fun shards ->
      let q = K.create_with ~k:16 ~shards ~num_threads:1 () in
      let h = K.register q 0 in
      for i = 1 to 100 do
        K.insert h i ()
      done;
      check_bool "size >= alive count" true (K.approximate_size q >= 100))
    stripe_counts

let test_validation () =
  Alcotest.check_raises "threads" (Invalid_argument "Klsm.create: num_threads < 1")
    (fun () -> ignore (K.create_with ~num_threads:0 ()));
  let q = K.create_with ~num_threads:1 () in
  Alcotest.check_raises "tid range" (Invalid_argument "Klsm.register: tid")
    (fun () -> ignore (K.register q 1));
  let h = K.register q 0 in
  Alcotest.check_raises "negative key" (Invalid_argument "Klsm.insert: negative key")
    (fun () -> K.insert h (-1) ())

let test_empty_queue () =
  List.iter
    (fun shards ->
      let q = K.create_with ~k:16 ~shards ~num_threads:4 () in
      let h = K.register q 0 in
      check_bool "empty" true (K.try_delete_min h = None);
      check_bool "empty batch" true (K.try_delete_min_batch h 4 = []);
      check_int "size" 0 (K.approximate_size q))
    stripe_counts

let test_duplicate_keys () =
  List.iter
    (fun shards ->
      let q = K.create_with ~k:4 ~shards ~num_threads:1 () in
      let h = K.register q 0 in
      for _ = 1 to 50 do
        K.insert h 7 ()
      done;
      let got = drain_all (fun () -> K.try_delete_min h) in
      check_int "all 50 duplicates" 50 (List.length got);
      List.iter (fun k -> check_int "key 7" 7 k) got)
    stripe_counts

let test_consolidate_local_exposed () =
  List.iter
    (fun shards ->
      let q =
        K.create_with ~k:1024 ~shards ~num_threads:1
          ~should_delete:(fun key _ -> key > 10)
          ()
      in
      let h = K.register q 0 in
      for i = 1 to 100 do
        K.insert h i ()
      done;
      K.consolidate_local h;
      (* Condemned items were filtered out of the local LSM. *)
      check_bool "shrunk" true (K.approximate_size q <= 10))
    stripe_counts

let prop_batch_conservation =
  qtest "insert_batch conservation" ~count:50
    QCheck2.Gen.(list_size (int_range 1 200) (int_bound 5_000))
    (fun keys ->
      let q = K.create_with ~k:8 ~shards:4 ~num_threads:1 () in
      let h = K.register q 0 in
      K.insert_batch h (Array.of_list (List.map (fun k -> (k, ())) keys));
      let got = drain_all (fun () -> K.try_delete_min h) in
      List.sort compare got = List.sort compare keys)

let prop_two_stripe_conservation =
  qtest "two-handle conservation (S = 2)" ~count:50
    QCheck2.Gen.(list_size (int_range 1 300) (int_bound 5_000))
    (fun keys ->
      let q = K.create_with ~k:16 ~shards:2 ~num_threads:2 () in
      let h0 = K.register q 0 and h1 = K.register q 1 in
      List.iteri
        (fun i k -> K.insert (if i land 1 = 0 then h0 else h1) k ())
        keys;
      (* h0 drains everything: the other stripe via the race, h1's local
         LSM via spy. *)
      let got = drain_all (fun () -> K.try_delete_min h0) in
      List.sort compare got = List.sort compare keys)

(* ---------------- budget partition and validation ---------------- *)

let stripe_ks q =
  Array.to_list (Array.map Shared.get_k (K.internal_stripes q))

let test_budget_partition () =
  (* k = 64, S = 4: every stripe runs at ceil(64/4) = 16. *)
  let q = K.create_with ~k:64 ~shards:4 ~num_threads:1 () in
  check_int "global k" 64 (K.get_k q);
  check_int "stripes" 4 (K.num_stripes q);
  check_list_int "per-stripe k" [ 16; 16; 16; 16 ] (stripe_ks q);
  (* Non-divisible budget rounds up: ceil(10/4) = 3. *)
  let q = K.create_with ~k:10 ~shards:4 ~num_threads:1 () in
  check_list_int "ceil partition" [ 3; 3; 3; 3 ] (stripe_ks q)

let test_set_k_repartitions () =
  let q = K.create_with ~k:64 ~shards:4 ~num_threads:1 () in
  K.set_k q 128;
  check_int "new global k" 128 (K.get_k q);
  check_list_int "new per-stripe k" [ 32; 32; 32; 32 ] (stripe_ks q);
  (match K.set_k q 2 with
  | () -> Alcotest.fail "k < S accepted"
  | exception Invalid_argument _ -> ())

let test_create_validation () =
  (match K.create_with ~shards:0 ~num_threads:1 () with
  | _ -> Alcotest.fail "shards = 0 accepted"
  | exception Invalid_argument _ -> ());
  (match K.create_with ~k:4 ~shards:8 ~num_threads:1 () with
  | _ -> Alcotest.fail "shards > k accepted"
  | exception Invalid_argument _ -> ());
  (* k = 0 spills every insert and needs no stripe budget, but only one
     stripe can run on it. *)
  (match K.create_with ~k:0 ~shards:2 ~num_threads:1 () with
  | _ -> Alcotest.fail "k = 0 with two stripes accepted"
  | exception Invalid_argument _ -> ());
  let q = K.create_with ~k:0 ~num_threads:1 () in
  check_int "k = 0 runs on one stripe" 1 (K.num_stripes q);
  match K.set_k q (-1) with
  | () -> Alcotest.fail "negative k accepted"
  | exception Invalid_argument _ -> ()

(* ---------------- the striped race and the stripe memo ---------------- *)

let stat q name =
  match List.assoc_opt name (K.stats q).Obs.counters with
  | Some per -> Array.fold_left ( + ) 0 per
  | None -> 0

let test_memo_serves_repeat_peek () =
  (* Two consecutive peeks with no publish in between: the second must be
     answered from the home stripe's memo (stripe.cache_hit), not a fresh
     selection. *)
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let q = K.create_with ~k:4 ~shards:2 ~num_threads:1 () in
      let h = K.register q 0 in
      for i = 0 to 99 do
        K.insert h ((i * 7919) land 0xFFFF) ()
      done;
      let a = K.try_find_min h and b = K.try_find_min h in
      check_bool "peek found something" true (a <> None);
      check_bool "stable peek" true (a = b);
      check_bool "selected at least once" true
        (stat q "stripe.cache_miss" >= 1);
      check_bool "memo answer on the re-peek" true
        (stat q "stripe.cache_hit" >= 1))

(* S = 2: thread 0's peek wins with 50 from its home stripe 0.  Thread 1
   then publishes 10 and 20 on stripe 1, below that winner.  The next peek
   must return stripe 1's key; stripe 0, which did not move, answers from
   its memo (one stripe.cache_hit), and stripe 1, consulted because its
   bound undercuts 50, selects afresh (one stripe.cache_miss). *)
let test_publish_on_other_stripe () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let q = K.create_with ~k:4 ~shards:2 ~num_threads:2 () in
      let h0 = K.register q 0 and h1 = K.register q 1 in
      K.insert_batch h0 [| (50, ()); (60, ()); (70, ()) |];
      check_bool "home stripe wins" true
        (Option.map fst (K.try_find_min h0) = Some 50);
      K.insert_batch h1 [| (10, ()); (20, ()) |];
      let hit = stat q "stripe.cache_hit"
      and miss = stat q "stripe.cache_miss"
      and consult = stat q "stripe.hint_consult" in
      (match K.try_find_min h0 with
      | Some (key, ()) ->
          check_bool "stripe 1's key" true (key = 10 || key = 20)
      | None -> Alcotest.fail "non-empty");
      check_int "stripe 0 from its memo" 1 (stat q "stripe.cache_hit" - hit);
      check_int "stripe 1 selected afresh" 1
        (stat q "stripe.cache_miss" - miss);
      check_int "stripe 1 consulted on its bound" 1
        (stat q "stripe.hint_consult" - consult))

(* Keys equal to max_int give a stripe the bound an empty stripe has: an
   owner that holds nothing must still find them. *)
let test_max_int_keys_found () =
  List.iter
    (fun shards ->
      let q = K.create_with ~k:4 ~shards ~num_threads:1 () in
      let h = K.register q 0 in
      for _ = 1 to 8 do
        K.insert h max_int ()
      done;
      let rec drain n =
        match K.try_delete_min h with Some _ -> drain (n + 1) | None -> n
      in
      check_int
        (Printf.sprintf "drained before the first None at S = %d" shards)
        8 (drain 0))
    [ 1; 2; 4 ]

(* A spill that lands right behind an empty publish: thread 0's
   consolidation publishes the empty array, and before its publish call
   returns, thread 1's spill publishes 10..40.  Scripted on one simulated
   fiber through the fault point just after the publish CAS.  The bound
   rides in the published array, so no write after the CAS can leave a
   stale one: at every step of thread 0's drain the stripe's bound is at
   most the smallest key its array stores, and max_int only over an empty
   stripe (or one holding only max_int keys), and thread 0, holding
   nothing, drains thread 1's spill. *)
let test_late_spill_bound () =
  let module SK = Drive.K in
  Sim.configure ~seed:1 ();
  let q = SK.create_with ~k:4 ~num_threads:2 () in
  let stripe = (SK.internal_stripes q).(0) in
  let spill = ref (fun () -> ()) in
  Sim.set_fault_hook
    (Some
       (fun site ->
         if site = "shared.push_snapshot.after" then begin
           let f = !spill in
           spill := (fun () -> ());
           f ()
         end));
  let got = ref [] in
  Fun.protect
    ~finally:(fun () -> Sim.set_fault_hook None)
    (fun () ->
      Sim.parallel_run ~num_threads:1 (fun _ ->
          let h0 = SK.register q 0 and h1 = SK.register q 1 in
          List.iter (fun k -> SK.insert h0 k ()) [ 1; 2; 3; 4 ];
          for _ = 1 to 4 do
            ignore (SK.try_delete_min h0)
          done;
          (spill :=
             fun () -> List.iter (fun k -> SK.insert h1 k ()) [ 10; 20; 30; 40 ]);
          let check_bound () =
            let bound = SK.Shared_klsm.min_hint stripe in
            let stored =
              match SK.Shared_klsm.peek_shared stripe with
              | Some arr -> SK.Block_array.min_key arr
              | None -> max_int
            in
            check_bool
              (Printf.sprintf "bound %d <= stored minimum %d" bound stored)
              true (bound <= stored);
            check_bool "max_int bound only over nothing smaller" true
              (bound < max_int || stored = max_int)
          in
          let rec drain () =
            check_bound ();
            match SK.try_delete_min h0 with
            | Some (k, ()) ->
                got := k :: !got;
                drain ()
            | None -> ()
          in
          drain ()));
  check_list_int "thread 1's spill drained" [ 10; 20; 30; 40 ]
    (List.sort compare !got)

(* ---------------- CAS storms (Sim + chaos) ---------------- *)

let test_cas_storms_conserve () =
  let cases =
    Drive.sharded_targeted ~threads:4 ~per_thread:400 ~k:8 ~shards:2
      ~seed0:0x51A2D
  in
  List.iter
    (fun (c : Drive.case_result) ->
      Alcotest.(check (list string))
        (Printf.sprintf "no violations under %s" c.Drive.plan_text)
        [] c.Drive.violations)
    cases;
  (* Every rule of the storm concentrated on thread 1 fired: its
     publishes lost 12 CASes in a row and were retried to completion. *)
  check_int "case 2 injected exactly 12 CAS failures" 12
    (List.nth cases 2).Drive.cas_fails

(* A handle's home stripe is [tid mod S] for its whole life: 12
   consecutive forced failures of its publish CAS are retried on the same
   stripe, and every later spill still lands there. *)
let test_spills_stay_home_under_storm () =
  let module SK = Drive.K in
  Sim.configure ~seed:7 ();
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let q = SK.create_with ~k:8 ~shards:2 ~num_threads:2 () in
  Obs.set_enabled was;
  let plan =
    List.init 12 (fun i ->
        Chaos.rule ~tid:1 ~hit:(i + 1) "shared.push_snapshot.before"
          Chaos.Cas_fail)
  in
  Chaos.install plan;
  Fun.protect ~finally:Chaos.uninstall (fun () ->
      Sim.parallel_run ~num_threads:2 (fun tid ->
          if tid = 1 then begin
            let h = SK.register q tid in
            for i = 0 to 199 do
              SK.insert h i ()
            done
          end);
      check_int "12 CAS failures injected" 12 (Chaos.stats ()).Chaos.cas_fails);
  let stripes = SK.internal_stripes q in
  check_bool "stripe 0 never published" true
    (SK.Shared_klsm.peek_shared stripes.(0) = None);
  check_bool "home stripe 1 holds the spills" true
    (SK.Shared_klsm.approximate_size stripes.(1) > 0);
  match List.assoc_opt "stripe.cas_fail" (SK.stats q).Obs.counters with
  | Some per -> check_int "failures counted on thread 1" 12 per.(1)
  | None -> Alcotest.fail "stripe.cas_fail not counted"

(* ---------------- batched delete-min (DESIGN.md §17) ---------------- *)

let prop_klsm_batch_exact =
  qtest "combined k-LSM batch pop = n smallest keys, ascending" ~count:80
    QCheck2.Gen.(pair keys_gen (int_range 1 16))
    (fun (keys, b) ->
      (* Small k pushes most items into the shared component, so the
         single-CAS claim path (Shared_klsm.try_pop_batch: multiway merge
         over block tails, prefix-copy rebuild) carries the batch. *)
      let q = K.create_with ~k:8 ~num_threads:1 () in
      let h = K.register q 0 in
      List.iter (fun key -> K.insert h key ()) keys;
      let expect = ref (List.sort compare keys) in
      let ok = ref true in
      let misses = ref 0 in
      while !expect <> [] && !misses < 200 do
        match K.try_delete_min_batch h b with
        | [] -> incr misses
        | got ->
            misses := 0;
            List.iter
              (fun (dk, ()) ->
                match !expect with
                | e :: rest when e = dk -> expect := rest
                | _ -> ok := false)
              got
      done;
      !ok && !expect = [])

(* A batch pop whose minimum sits in a stripe claims the whole run with one
   publish CAS (Shared_klsm.try_pop_batch, counted by shared.batch_claim)
   instead of popping item by item: at S = 1, and at S = 4 from a stripe
   that is not the puller's home, capped by the race's cross-stripe cap
   (here max_int: every other stripe is empty). *)
let batch_claims_with_one_cas ~shards () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let q = K.create_with ~k:16 ~shards ~num_threads:2 () in
      let h0 = K.register q 0 and h1 = K.register q 1 in
      (* One sorted block of 64 goes straight to h1's home stripe. *)
      K.insert_batch h1 (Array.init 64 (fun i -> (i, ())));
      let stat name =
        match List.assoc_opt name (K.stats q).Obs.counters with
        | Some per -> Array.fold_left ( + ) 0 per
        | None -> 0
      in
      let cas0 = stat "shared.cas_attempt" in
      check_list_int "the 8 smallest, ascending" (List.init 8 Fun.id)
        (List.map fst (K.try_delete_min_batch h0 8));
      check_int "one run claim" 1 (stat "shared.batch_claim");
      check_int "with one publish CAS" 1 (stat "shared.cas_attempt" - cas0);
      check_int "all served from the shared component" 8
        (stat "klsm.delete_shared"))

(* A pull of one, the scheduler's default, must cost what try_delete_min
   costs.  With the owner's local LSM empty and the stripe holding every
   item, the stripe wins the race; a batch of one takes that item, as
   try_delete_min does, instead of claiming a run of one by publishing a
   new snapshot. *)
let batch_of_one_is_a_delete_min spec () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let run pop =
        Sim.configure ~seed:1 ~policy:Sim.Fair ();
        let inst = RS.make ~num_threads:1 spec in
        let got = ref None in
        Sim.parallel_run ~num_threads:1 (fun tid ->
            let h = inst.RS.register tid in
            (* One sorted block, published straight to the stripe. *)
            h.RS.insert_batch (Array.init 64 (fun i -> (i, 100 + i)));
            got := pop h);
        let st = Sim.stats () in
        let counter name =
          match List.assoc_opt name (inst.RS.stats ()).Obs.counters with
          | Some per -> Array.fold_left ( + ) 0 per
          | None -> 0
        in
        ( !got,
          counter "shared.batch_claim",
          counter "shared.cas_attempt",
          [ st.Sim.reads; st.Sim.writes; st.Sim.cas; st.Sim.faa ] )
      in
      let single, _, single_cas, single_ops =
        run (fun h -> h.RS.try_delete_min ())
      in
      let batch, claims, batch_cas, batch_ops =
        run (fun h ->
            match h.RS.try_delete_min_batch 1 with
            | [ kv ] -> Some kv
            | _ -> None)
      in
      Alcotest.(check (option (pair int int))) "the minimum" (Some (0, 100))
        single;
      Alcotest.(check (option (pair int int)))
        "what try_delete_min returns" single batch;
      check_int "no run claim" 0 claims;
      check_int "no extra publish CAS" single_cas batch_cas;
      check_list_int "same reads, writes, CAS, fetch-and-adds" single_ops
        batch_ops)

let prop_sharded_batch_exact =
  qtest "sharded batch pop = n smallest keys, ascending" ~count:80
    QCheck2.Gen.(triple keys_gen (int_range 1 8) (int_range 1 4))
    (fun (keys, b, shards) ->
      (* Each batch pop claims runs from the stripes, each capped at the
         race's cross-stripe cap and the local minimum — single-threaded
         the batches must stay exact at every stripe count. *)
      let q = K.create_with ~k:32 ~shards ~num_threads:1 () in
      let h = K.register q 0 in
      List.iter (fun key -> K.insert h key ()) keys;
      let expect = ref (List.sort compare keys) in
      let ok = ref true in
      let misses = ref 0 in
      while !expect <> [] && !misses < 200 do
        match K.try_delete_min_batch h b with
        | [] -> incr misses
        | got ->
            misses := 0;
            List.iter
              (fun (dk, ()) ->
                match !expect with
                | e :: rest when e = dk -> expect := rest
                | _ -> ok := false)
              got
      done;
      !ok && !expect = [])

let test_batch_edges () =
  let q = K.create_with ~k:16 ~shards:2 ~num_threads:1 () in
  let h = K.register q 0 in
  check_bool "empty queue: batch = []" true (K.try_delete_min_batch h 4 = []);
  K.insert h 3 ();
  K.insert h 1 ();
  K.insert h 2 ();
  check_bool "n = 0 yields []" true (K.try_delete_min_batch h 0 = []);
  let got = List.map fst (K.try_delete_min_batch h 10) in
  check_list_int "short batch: everything, ascending" [ 1; 2; 3 ] got;
  check_bool "then dry" true (K.try_delete_min h = None)

let test_fuzz_batch_and_single_pops () =
  (* 32 seeds of a mixed stream — inserts, single pops, batch pops of
     random sizes — against the sorted-list oracle (an exact priority
     queue).
     Single-threaded the sharded queue is exact, so every pop, batched
     or not, must return the oracle's minima in order. *)
  for seed = 1 to 32 do
    let rng = Xoshiro.create ~seed:(0xBA7C4 + seed) in
    let q = K.create_with ~k:16 ~shards:2 ~num_threads:1 () in
    let h = K.register q 0 in
    let oracle = Oracle_pq.create () in
    for _ = 1 to 400 do
      match Xoshiro.int rng 4 with
      | 0 | 1 ->
          let key = Xoshiro.int rng 10_000 in
          K.insert h key ();
          Oracle_pq.insert oracle key
      | 2 ->
          let got = Option.map fst (K.try_delete_min h) in
          let want = Oracle_pq.delete_min oracle in
          if got <> want then
            Alcotest.failf "seed %d: single pop %s, oracle %s" seed
              (match got with Some k -> string_of_int k | None -> "None")
              (match want with Some k -> string_of_int k | None -> "None")
      | _ ->
          let n = 1 + Xoshiro.int rng 6 in
          let got = K.try_delete_min_batch h n in
          List.iter
            (fun (dk, ()) ->
              match Oracle_pq.delete_min oracle with
              | Some want when want = dk -> ()
              | want ->
                  Alcotest.failf "seed %d: batch pop %d, oracle %s" seed dk
                    (match want with
                    | Some k -> string_of_int k
                    | None -> "None"))
            got;
          if List.length got < n && Oracle_pq.to_list oracle <> [] then
            Alcotest.failf "seed %d: short batch (%d/%d) left oracle items"
              seed (List.length got) n
    done
  done

(* ---------------- rank-error bound (Sim) ---------------- *)

(* The measured max rank error of [spec] on the simulator against its
   Klsm.rank_bound + T: the slack covers in-flight inserts the oracle has
   already counted (the same slack the twin and the quality tests use). *)
let check_rank_bound ?(threads = 4) ?(policy = Sim.Fair) ~seed ~what spec =
  Sim.configure ~seed ~policy ();
  let config =
    {
      T.default_config with
      num_threads = threads;
      prefill = 2_000;
      ops_per_thread = 1_000;
      seed;
    }
  in
  let r = rank_error config spec in
  let bound = Option.get (RS.rank_bound ~threads spec) + threads in
  check_bool "some deletes measured" true (r.T.deletes > 0);
  check_bool
    (Printf.sprintf "max rank error %d within %s bound %d" r.T.max_rank_error
       what bound)
    true
    (r.T.max_rank_error <= bound)

let test_rank_bound_partitioned () =
  (* DESIGN.md §12: rho <= (T-1+S) * ceil(k/S). *)
  check_rank_bound ~seed:5 ~what:"partitioned" (RS.klsm_sharded 32 4)

let test_rank_bound_preempted () =
  (* With no deletion buffer, rho = (T-1+S) * ceil(k/S) is the one bound of
     every k-LSM spec, S = 1 included.  Random preemption parks threads
     mid-operation, so stale stripe peeks and half-done spills stay visible
     longer than under Fair. *)
  List.iter
    (fun shards ->
      List.iter
        (fun seed ->
          check_rank_bound ~policy:(Sim.Random_preempt 0.3) ~seed
            ~what:(Printf.sprintf "preempted S = %d" shards)
            (RS.klsm_sharded 32 shards))
        [ 7; 8 ])
    [ 1; 2; 4 ]

let test_rank_bound_exact_shared () =
  (* klsm:0 spills every insert into an exact shared component, so its
     rho is 0: at T = 8 no delete may have a rank error above T. *)
  check_rank_bound ~threads:8 ~seed:13 ~what:"exact-shared" (RS.Klsm 0)

let test_rank_bound_pulls () =
  (* DESIGN.md §12/§17: pulls of n = 8 at T = 4.  A stripe win claims a run capped at the race's cross-stripe cap, so
     every key of the run stays within rho; a pull's keys reach the oracle
     only when the call returns, so the slack is T * n instead of T.  Over
     both policies, S in {2, 4}, k in {8, 32} and 16 seeds each. *)
  let threads = 4 and n = 8 in
  List.iter
    (fun (policy, policy_name) ->
      List.iter
        (fun (k, shards) ->
          let spec = RS.klsm_sharded k shards in
          let bound = Option.get (RS.rank_bound ~threads spec) + (threads * n) in
          for seed = 1 to 16 do
            Sim.configure ~seed ~policy ();
            let r =
              rank_error
                {
                  T.default_config with
                  num_threads = threads;
                  (* A pull takes up to 8 keys, an insert adds one: 250
                     operations per thread pull about 4,000. *)
                  prefill = 4_000;
                  ops_per_thread = 250;
                  seed;
                  batch = n;
                }
                spec
            in
            if r.T.deletes = 0 then
              Alcotest.failf "%s, seed %d: no deletes measured"
                (RS.spec_name spec) seed;
            if r.T.max_rank_error > bound then
              Alcotest.failf "%s under %s, seed %d: max rank error %d > %d"
                (RS.spec_name spec) policy_name seed r.T.max_rank_error bound
          done)
        [ (8, 2); (8, 4); (32, 2); (32, 4) ])
    [ (Sim.Fair, "Fair"); (Sim.Random_preempt 0.3, "Random_preempt 0.3") ]

let test_pull_mean_spills () =
  (* DESIGN.md §17, "What claims cost the mean": the cap bounds each
     pulled key, not the mean.  At S = 2, T = 8 four threads share a
     stripe and every claim publishes it, so a spill into it can keep
     losing its CAS while the spiller's thread-local keys fall behind
     every other thread's claims.  The schedule is the fuzzed one
     (Random_preempt 0.3), which the suite's previous test used to leave
     configured.  Claims that do not step aside for a waiting insert read
     a mean of 58.8 keys here over seeds 1-3 (47.0, 70.5, 59.1), and at
     least 41.7 on every seed 1-12; with the yield the mean reads 17.7
     (18.3, 18.3, 16.6), and at most 22.3 on every seed 1-12. *)
  let spec = RS.klsm_sharded 256 2 in
  let means =
    List.map
      (fun seed ->
        Sim.configure ~seed ~policy:(Sim.Random_preempt 0.3) ();
        let r =
          rank_error
            {
              T.default_config with
              num_threads = 8;
              prefill = 20_000;
              ops_per_thread = 500;
              seed;
              batch = 8;
            }
            spec
        in
        r.T.mean_rank_error)
      [ 1; 2; 3 ]
  in
  let mean = List.fold_left ( +. ) 0. means /. 3. in
  if mean >= 30. then
    Alcotest.failf "%s: mean rank error of pulls %.2f >= 30 (seeds 1-3: %s)"
      (RS.spec_name spec) mean
      (String.concat ", " (List.map (Printf.sprintf "%.2f") means))

(* Two suites: the queue's contract, each case over one stripe and four,
   then the striping mechanisms and batched delete-min. *)
let () =
  Alcotest.run ~and_exit:false "klsm"
    [
      ("exactness", [ prop_single_thread_exact ]);
      ( "multi-handle",
        [
          prop_multi_handle_conservation;
          Alcotest.test_case "spy cross-thread" `Quick
            test_spy_enables_cross_thread_delete;
        ] );
      ( "relaxation",
        [
          Alcotest.test_case "rho window" `Quick
            test_relaxation_bound_single_thread;
        ] );
      ("runtime-k", [ Alcotest.test_case "set_k" `Quick test_set_k ]);
      ( "lazy-deletion",
        [
          Alcotest.test_case "filters condemned" `Quick
            test_lazy_deletion_filters;
          Alcotest.test_case "hook exactly once" `Quick
            test_lazy_deletion_exactly_once_hook;
        ] );
      ( "edges",
        [
          Alcotest.test_case "approximate size" `Quick test_approximate_size;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "empty" `Quick test_empty_queue;
          Alcotest.test_case "duplicates" `Quick test_duplicate_keys;
          Alcotest.test_case "consolidate_local" `Quick
            test_consolidate_local_exposed;
        ] );
    ];
  Alcotest.run "klsm-stripes"
    [
      ( "semantics",
        [
          prop_single_thread_exact_striped;
          prop_two_stripe_conservation;
          prop_batch_conservation;
        ] );
      ( "partition",
        [
          Alcotest.test_case "budget partition" `Quick test_budget_partition;
          Alcotest.test_case "set_k repartitions" `Quick
            test_set_k_repartitions;
          Alcotest.test_case "create validation" `Quick test_create_validation;
        ] );
      ( "race",
        [
          Alcotest.test_case "memo serves a repeat peek" `Quick
            test_memo_serves_repeat_peek;
          Alcotest.test_case "publish on another stripe" `Quick
            test_publish_on_other_stripe;
          Alcotest.test_case "max_int keys found" `Quick
            test_max_int_keys_found;
          Alcotest.test_case "late spill keeps its bound" `Quick
            test_late_spill_bound;
        ] );
      ( "batch",
        [
          prop_klsm_batch_exact;
          Alcotest.test_case "one-stripe batch claims with one CAS" `Quick
            (batch_claims_with_one_cas ~shards:1);
          Alcotest.test_case "striped batch claims with one CAS" `Quick
            (batch_claims_with_one_cas ~shards:4);
          Alcotest.test_case "a batch of one is a delete-min" `Quick
            (batch_of_one_is_a_delete_min (RS.Klsm 256));
          Alcotest.test_case "a striped batch of one is a delete-min" `Quick
            (batch_of_one_is_a_delete_min (RS.klsm_sharded 256 4));
          prop_sharded_batch_exact;
          Alcotest.test_case "empty and short batches" `Quick test_batch_edges;
          Alcotest.test_case "fuzz batch+single pops vs oracle" `Slow
            test_fuzz_batch_and_single_pops;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "CAS storms conserve" `Slow
            test_cas_storms_conserve;
          Alcotest.test_case "spills stay home under a CAS storm" `Quick
            test_spills_stay_home_under_storm;
        ] );
      ( "quality",
        [
          Alcotest.test_case "partitioned rank bound" `Slow
            test_rank_bound_partitioned;
          Alcotest.test_case "partitioned bound under preemption" `Slow
            test_rank_bound_preempted;
          Alcotest.test_case "klsm:0 within T at T = 8" `Slow
            test_rank_bound_exact_shared;
          Alcotest.test_case "pulls of 8 within rho + T*n" `Slow
            test_rank_bound_pulls;
          Alcotest.test_case "pulls at S = 2 keep spills moving" `Slow
            test_pull_mean_spills;
        ] );
    ]
