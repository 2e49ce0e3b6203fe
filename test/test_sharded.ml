(* Tests for the k-LSM (lib/core/klsm.ml), run over one stripe (the
   paper's Listing 5 queue) and four: exact single-thread semantics,
   conservation across handles (spy paths), the single-thread rho window,
   runtime k, lazy deletion, validation and edge cases, the ceil(k/S)
   relaxation-budget partition, the delete-min candidate cache, migration
   under a CAS-failure storm, the DESIGN.md §12 rank bound
   rho <= (T-1+S) * ceil(k/S) measured empirically on the simulator, and
   the §17 batched delete-min: exactness and conservation with the
   deletion buffer, the one-CAS run claim at S = 1, batch exactness with
   and without the deletion buffer, empty/short edges, a batch+single-pop
   fuzz against the sequential oracle, and the widened rank bound under
   [~dbuf]. *)

open Helpers
module K = Klsm_core.Klsm.Default
module Shared = K.Shared_klsm
module Obs = Klsm_obs.Obs
module Sim = Klsm_backend.Sim
module RS = Klsm_harness.Registry.Make (Sim)
module QS = Klsm_harness.Quality.Make (Sim)
module Drive = Klsm_chaos.Drive

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

(* Every knob-free case runs on one stripe (the paper's queue) and on
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

let prop_single_thread_exact_dbuf =
  qtest "sharded+dbuf single thread = exact PQ" ~count:100
    QCheck2.Gen.(triple ops_gen (int_bound 300) (int_range 1 4))
    (fun (ops, k, shards) ->
      let k = max k shards in
      let kp = Klsm_core.Klsm.stripe_k ~k ~shards in
      (* The deletion-buffer serve rule (serve the parked head only while
         neither the local minimum nor any stripe undercuts it) must keep
         the owner's view exact, whatever the batch size. *)
      let q =
        K.create_with ~k ~shards ~dbuf:(max 1 (min 4 kp)) ~num_threads:1 ()
      in
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

let prop_multi_handle_conservation_dbuf =
  qtest "two-handle conservation with dbuf" ~count:50
    QCheck2.Gen.(list_size (int_range 1 300) (int_bound 5_000))
    (fun keys ->
      let q = K.create_with ~k:16 ~shards:2 ~dbuf:4 ~num_threads:2 () in
      let h0 = K.register q 0 and h1 = K.register q 1 in
      let early = ref [] in
      List.iteri
        (fun i k ->
          K.insert (if i land 1 = 0 then h0 else h1) k ();
          (* h1 deletes now and then, so its shared wins claim runs into
             its deletion buffer. *)
          if i mod 8 = 7 then
            Option.iter
              (fun (k, ()) -> early := k :: !early)
              (K.try_delete_min h1))
        keys;
      (* Deletion buffers live in handles: the rest of h1's claimed run is
         invisible to h0's drain until flushed back. *)
      K.flush_dbuf h1;
      let got = drain_all (fun () -> K.try_delete_min h0) in
      List.sort compare (!early @ got) = List.sort compare keys)

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

let test_knob_validation () =
  (* A deletion batch beyond the per-stripe budget cannot fit one stripe's
     relaxation: ceil(64/4) = 16. *)
  (match K.create_with ~k:64 ~shards:4 ~dbuf:17 ~num_threads:1 () with
  | _ -> Alcotest.fail "dbuf > ceil(k/S) accepted"
  | exception Invalid_argument _ -> ());
  (* set_k must not shrink the per-stripe budget under a live dbuf cap. *)
  let q = K.create_with ~k:64 ~shards:4 ~dbuf:16 ~num_threads:1 () in
  match K.set_k q 8 with
  | () -> Alcotest.fail "set_k below dbuf cap accepted"
  | exception Invalid_argument _ -> ()

(* ---------------- candidate cache ---------------- *)

let test_candidate_cache_hits () =
  (* Two consecutive peeks with no publish in between: the second must be
     served from the candidate cache (stripe.cache_hit), not a re-race. *)
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
      let stat name =
        match List.assoc_opt name (K.stats q).Obs.counters with
        | Some per -> Array.fold_left ( + ) 0 per
        | None -> 0
      in
      check_bool "cache missed at least once" true (stat "stripe.cache_miss" >= 1);
      check_bool "cache hit on the re-peek" true (stat "stripe.cache_hit" >= 1))

(* ---------------- migration under a CAS storm (Sim + chaos) ---------------- *)

let test_storm_migrates_and_conserves () =
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
  (* The storm concentrated on one thread must push its home-stripe fail
     streak past the threshold and trigger at least one migration. *)
  let info_of i name =
    match List.assoc_opt name (List.nth cases i).Drive.info with
    | Some n -> n
    | None -> 0
  in
  check_bool "storm forced a migration" true (info_of 2 "stripe_migrate" >= 1);
  (* Cases 4 and 5 kill a thread holding a deletion buffer, mid-flush and
     at the batch claim's publish CAS: both crashes landed (and
     conservation already held above, with the crasher's claimed items
     exempt). *)
  List.iter
    (fun i ->
      check_bool
        (Printf.sprintf "dbuf case %d crashed the target" i)
        true
        ((List.nth cases i).Drive.crashes >= 1))
    [ 4; 5 ]

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

let test_one_stripe_batch_claims_with_one_cas () =
  (* At S = 1 a batch pop whose minimum sits in the shared component
     claims the whole run with one publish CAS (Shared_klsm.try_pop_batch,
     counted by shared.batch_claim) instead of popping item by item. *)
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let q = K.create_with ~k:4 ~num_threads:1 () in
      let h = K.register q 0 in
      (* One sorted block of 64 goes straight to the shared component. *)
      K.insert_batch h (Array.init 64 (fun i -> (i, ())));
      let stat name =
        match List.assoc_opt name (K.stats q).Obs.counters with
        | Some per -> Array.fold_left ( + ) 0 per
        | None -> 0
      in
      let cas0 = stat "shared.cas_attempt" in
      check_list_int "the 8 smallest, ascending" (List.init 8 Fun.id)
        (List.map fst (K.try_delete_min_batch h 8));
      check_int "one run claim" 1 (stat "shared.batch_claim");
      check_int "with one publish CAS" 1 (stat "shared.cas_attempt" - cas0);
      check_int "all served from the shared component" 8
        (stat "klsm.delete_shared"))

let prop_sharded_batch_exact =
  qtest "sharded+dbuf batch pop = B smallest keys, ascending" ~count:80
    QCheck2.Gen.(triple keys_gen (int_range 1 8) (int_range 1 4))
    (fun (keys, b, shards) ->
      (* With the deletion buffer on, each batch pop claims a run from one
         stripe under the cross-stripe hint limit and serves the rest from
         the buffer — single-threaded both must stay exact. *)
      let k = 32 in
      let kp = Klsm_core.Klsm.stripe_k ~k ~shards in
      let q =
        K.create_with ~k ~shards ~dbuf:(min b kp) ~num_threads:1 ()
      in
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
  let q = K.create_with ~k:16 ~shards:2 ~dbuf:4 ~num_threads:1 () in
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
     random sizes — against the sorted-list oracle (Seq_lsm semantics).
     Single-threaded the sharded queue is exact even with the deletion
     buffer on, so every pop, batched or not, must return the oracle's
     minima in order. *)
  for seed = 1 to 32 do
    let rng = Xoshiro.create ~seed:(0xBA7C4 + seed) in
    let q = K.create_with ~k:16 ~shards:2 ~dbuf:4 ~num_threads:1 () in
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
let check_rank_bound ?(threads = 4) ~seed ~what spec =
  Sim.configure ~seed ~policy:Sim.Fair ();
  let config =
    {
      QS.default_config with
      num_threads = threads;
      prefill = 2_000;
      ops_per_thread = 1_000;
      seed;
    }
  in
  let r = QS.run config spec in
  let bound = Option.get (RS.rank_bound ~threads spec) + threads in
  check_bool "some deletes measured" true (r.QS.deletes > 0);
  check_bool
    (Printf.sprintf "max rank error %d within %s bound %d" r.QS.max_rank_error
       what bound)
    true
    (r.QS.max_rank_error <= bound)

let test_rank_bound_partitioned () =
  (* DESIGN.md §12: rho <= (T-1+S) * ceil(k/S). *)
  check_rank_bound ~seed:5 ~what:"partitioned" (RS.klsm_sharded 32 4)

let test_rank_bound_with_dbuf () =
  (* DESIGN.md §17: per-handle deletion buffers widen the bound by
     T * (B-1) — every handle can hold up to B-1 claimed-but-unserved
     items whose absence other threads cannot observe. *)
  check_rank_bound ~seed:11 ~what:"widened dbuf"
    (RS.klsm_sharded ~dbuf:4 32 4)

let test_rank_bound_exact_shared () =
  (* klsm:0 spills every insert into an exact shared component, so its
     rho is 0: at T = 8 no delete may have a rank error above T. *)
  check_rank_bound ~threads:8 ~seed:13 ~what:"exact-shared" (RS.Klsm 0)

(* Two suites: the queue's contract, each case over one stripe and four,
   then the striping mechanisms and the deletion buffer. *)
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
          prop_single_thread_exact_dbuf;
          prop_two_stripe_conservation;
          prop_multi_handle_conservation_dbuf;
          prop_batch_conservation;
        ] );
      ( "partition",
        [
          Alcotest.test_case "budget partition" `Quick test_budget_partition;
          Alcotest.test_case "set_k repartitions" `Quick
            test_set_k_repartitions;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "knob validation" `Quick test_knob_validation;
        ] );
      ( "cache",
        [
          Alcotest.test_case "candidate cache hits" `Quick
            test_candidate_cache_hits;
        ] );
      ( "batch",
        [
          prop_klsm_batch_exact;
          Alcotest.test_case "one-stripe batch claims with one CAS" `Quick
            test_one_stripe_batch_claims_with_one_cas;
          prop_sharded_batch_exact;
          Alcotest.test_case "empty and short batches" `Quick test_batch_edges;
          Alcotest.test_case "fuzz batch+single pops vs oracle" `Slow
            test_fuzz_batch_and_single_pops;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "storm migrates, conserves" `Slow
            test_storm_migrates_and_conserves;
        ] );
      ( "quality",
        [
          Alcotest.test_case "partitioned rank bound" `Slow
            test_rank_bound_partitioned;
          Alcotest.test_case "widened rank bound under dbuf" `Slow
            test_rank_bound_with_dbuf;
          Alcotest.test_case "klsm:0 within T at T = 8" `Slow
            test_rank_bound_exact_shared;
        ] );
    ]
