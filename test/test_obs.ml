(* lib/obs tests: exact counter values for scripted schedules (the sim
   backend and single-threaded real-backend scripts are deterministic, so
   we can assert precise counts from the paper's arithmetic), the forced
   push_snapshot CAS-failure script, and the "observation changes nothing"
   guarantee — enabled vs disabled runs of the same sim schedule must
   produce byte-identical results, because counter writes are plain
   (non-atomic) stores the simulator does not charge. *)

open Helpers
module Obs = Klsm_obs.Obs
module Real = Klsm_backend.Real
module Sim = Klsm_backend.Sim
module Xo = Klsm_primitives.Xoshiro

(* Run [f] with the global observability flag set to [b], restoring the
   previous value afterwards (the flag is global, latched per sheet). *)
let with_obs b f =
  let prev = Obs.enabled () in
  Obs.set_enabled b;
  Fun.protect ~finally:(fun () -> Obs.set_enabled prev) f

let ctotal name (s : Obs.snapshot) =
  match List.assoc_opt name s.Obs.counters with
  | Some per -> Array.fold_left ( + ) 0 per
  | None -> 0

let cper name tid (s : Obs.snapshot) =
  match List.assoc_opt name s.Obs.counters with
  | Some per -> per.(tid)
  | None -> 0

let span_count name (s : Obs.snapshot) =
  match List.assoc_opt name s.Obs.spans with
  | Some d -> Array.fold_left ( + ) 0 d.Obs.count
  | None -> 0

(* ---------------- primitives ---------------- *)

let test_interning () =
  let a = Obs.counter "testobs.a" in
  let b = Obs.counter "testobs.a" in
  check_int "re-registration returns the same counter" a b;
  check_bool "name round-trips" true (Obs.counter_name a = "testobs.a");
  with_obs true @@ fun () ->
  let sheet = Obs.create_sheet ~num_threads:2 () in
  let h = Obs.handle sheet ~tid:1 in
  Obs.incr h a;
  Obs.add h a 4;
  let s = Obs.snapshot sheet in
  check_int "total" 5 (ctotal "testobs.a" s);
  check_int "attributed to tid 1" 5 (cper "testobs.a" 1 s);
  check_int "nothing on tid 0" 0 (cper "testobs.a" 0 s);
  Obs.reset sheet;
  check_int "reset clears" 0 (ctotal "testobs.a" (Obs.snapshot sheet))

let test_span () =
  with_obs true @@ fun () ->
  (* A scripted clock: spans must report exactly the virtual time the
     clock advanced between begin and end, in ns. *)
  let t = ref 0.0 in
  let sheet = Obs.create_sheet ~now:(fun () -> !t) ~num_threads:1 () in
  let h = Obs.handle sheet ~tid:0 in
  let sp = Obs.span "testobs.span" in
  let t0 = Obs.span_begin h in
  t := 2.5e-6;
  Obs.span_end h sp t0;
  let s = Obs.snapshot sheet in
  match List.assoc_opt "testobs.span" s.Obs.spans with
  | None -> Alcotest.fail "span missing from snapshot"
  | Some d ->
      check_int "span count" 1 d.Obs.count.(0);
      check_bool "span ns = 2500" true (abs_float (d.Obs.ns.(0) -. 2500.) < 1e-6)

let test_latching () =
  let module K = Klsm_core.Klsm.Make (Real) in
  (* A sheet created while enabled keeps counting after a global disable. *)
  (with_obs true @@ fun () ->
   let q = K.create ~num_threads:1 () in
   Obs.set_enabled false;
   let h = K.register q 0 in
   K.insert h 5 0;
   (match K.try_delete_min h with
   | Some (k, _) -> check_int "delete works" 5 k
   | None -> Alcotest.fail "queue lost the item");
   check_int "enabled-at-creation sheet still counts" 1
     (ctotal "klsm.delete_local" (K.stats q)));
  (* ... and a sheet created while disabled stays off for good. *)
  with_obs false @@ fun () ->
  let q = K.create ~num_threads:1 () in
  Obs.set_enabled true;
  let h = K.register q 0 in
  K.insert h 5 0;
  ignore (K.try_delete_min h);
  let s = K.stats q in
  check_bool "disabled-at-creation sheet stays empty" true
    (s.Obs.counters = [] && s.Obs.spans = [])

(* ---------------- exact counters, real backend ---------------- *)

(* k = 4 gives max_level = floor(log2 4) - 1 = 1, so a thread-local LSM
   holds at most 2^2 - 1 = 3 items.  Inserting 4 keys single-threaded is a
   fully scripted schedule:

     insert #1:  block placed at level 0                    (0 merges)
     insert #2:  0+0 -> level-1 block                       (1 merge)
     insert #3:  block placed at level 0                    (0 merges)
     insert #4:  0+0 -> 1, 1+1 -> 2 > max_level             (2 merges, spill)

   so exactly 3 merges and one spill of 4 items, which is one shared-
   component insert: one CAS attempt, no failures, no retries. *)
let test_spill_arithmetic () =
  with_obs true @@ fun () ->
  let module K = Klsm_core.Klsm.Make (Real) in
  let q = K.create_with ~k:4 ~num_threads:1 () in
  let h = K.register q 0 in
  List.iter (fun k -> K.insert h k (10 * k)) [ 40; 10; 30; 20 ];
  let s = K.stats q in
  check_int "dist.merge" 3 (ctotal "dist.merge" s);
  check_int "dist.spill" 1 (ctotal "dist.spill" s);
  check_int "dist.spill_items" 4 (ctotal "dist.spill_items" s);
  check_int "shared.cas_attempt" 1 (ctotal "shared.cas_attempt" s);
  check_int "shared.cas_fail" 0 (ctotal "shared.cas_fail" s);
  check_int "shared.insert_retry" 0 (ctotal "shared.insert_retry" s);
  check_int "shared.pivot_recompute" 1 (ctotal "shared.pivot_recompute" s);
  check_int "shared.insert span ran once" 1 (span_count "shared.insert" s);
  (* Draining: everything spilled, so all four deletes are served by the
     shared component, in exact key order (one thread, one block). *)
  let popped = ref [] in
  let rec drain () =
    match K.try_delete_min h with
    | Some (k, _) ->
        popped := k :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  check_list_int "drain order" [ 10; 20; 30; 40 ] (List.rev !popped);
  let s2 = K.stats q in
  check_int "klsm.delete_shared" 4 (ctotal "klsm.delete_shared" s2);
  check_int "klsm.delete_local" 0 (ctotal "klsm.delete_local" s2);
  check_int "klsm.take_race" 0 (ctotal "klsm.take_race" s2);
  (* The final (empty) delete tries one spy (no victims with T = 1) and
     reports empty — exactly once each.  The local LSM spilled everything
     and holds no slot, so the consolidation before the spy returns at
     once and counts nothing. *)
  check_int "klsm.delete_empty" 1 (ctotal "klsm.delete_empty" s2);
  check_int "klsm.spy_attempt" 1 (ctotal "klsm.spy_attempt" s2);
  check_int "klsm.spy_success" 0 (ctotal "klsm.spy_success" s2);
  check_int "dist.consolidate" 0 (ctotal "dist.consolidate" s2);
  (* The one stripe's race: the local LSM stays empty and the stripe holds
     a published array, so all five deletes consult it (no bound skip).
     Nothing publishes between them, but each of the four successes takes
     the very item the stripe's memo holds, so every consult selects
     afresh; the fifth finds only dead items and publishes the empty
     array. *)
  check_int "stripe.hint_skip" 0 (ctotal "stripe.hint_skip" s2);
  check_int "stripe.cache_hit" 0 (ctotal "stripe.cache_hit" s2);
  check_int "stripe.cache_miss" 5 (ctotal "stripe.cache_miss" s2)

(* The ISSUE's scripted CAS-failure schedule: thread 1 starts an insert
   (refreshing its snapshot), thread 0 sneaks in a successful install
   before thread 1's push_snapshot, so thread 1's CAS fails exactly once
   and the insert loop retries exactly once.  Single-threaded we script
   the interleaving through the queue's liveness predicate, which
   Shared_klsm calls between refresh_snapshot and push_snapshot. *)
let test_forced_cas_failure () =
  with_obs true @@ fun () ->
  let module S = Klsm_core.Shared_klsm.Make (Real) in
  let module I = Klsm_core.Item.Make (Real) in
  let module Blk = Klsm_core.Block.Make (Real) in
  let hasher = Klsm_primitives.Tabular_hash.create ~seed:7 in
  let armed = ref false in
  let trigger = ref (fun () -> ()) in
  let alive it =
    if !armed then begin
      armed := false;
      !trigger ()
    end;
    not (I.is_taken it)
  in
  let q = S.create ~k:0 ~hasher ~alive () in
  let sheet = Obs.create_sheet ~num_threads:2 () in
  let reg tid =
    S.register
      ~obs:(Obs.handle sheet ~tid)
      q ~tid
      ~rng:(Xo.create ~seed:(100 + tid))
  in
  let h0 = reg 0 and h1 = reg 1 in
  let blk tid key =
    Blk.singleton
      ~filter:(Klsm_primitives.Bloom.singleton ~hasher tid)
      (I.make key key)
  in
  S.insert h0 (blk 0 10);
  trigger := (fun () -> S.insert h0 (blk 0 30));
  armed := true;
  S.insert h1 (blk 1 20);
  check_bool "interleaved install fired" true (not !armed);
  let s = Obs.snapshot sheet in
  check_int "exactly one retry" 1 (ctotal "shared.insert_retry" s);
  check_int "exactly one CAS failure" 1 (ctotal "shared.cas_fail" s);
  check_int "retry charged to thread 1" 1 (cper "shared.insert_retry" 1 s);
  check_int "failure charged to thread 1" 1 (cper "shared.cas_fail" 1 s);
  (* Thread 0: two clean installs.  Thread 1: one failed + one clean. *)
  check_int "thread 0 attempts" 2 (cper "shared.cas_attempt" 0 s);
  check_int "thread 1 attempts" 2 (cper "shared.cas_attempt" 1 s)

(* Spy with an exactly-known victim shape: 3 items in thread 0's local LSM
   sit in a level-1 + level-0 block pair, so thread 1's first delete spies
   exactly 2 blocks / 3 items, then serves the minimum locally. *)
let test_spy_counters () =
  with_obs true @@ fun () ->
  let module K = Klsm_core.Klsm.Make (Real) in
  let q = K.create_with ~k:256 ~num_threads:2 () in
  let h0 = K.register q 0 in
  let h1 = K.register q 1 in
  List.iter (fun k -> K.insert h0 k k) [ 10; 20; 30 ];
  (match K.try_delete_min h1 with
  | Some (k, _) -> check_int "spied delete returns the minimum" 10 k
  | None -> Alcotest.fail "spy failed to find thread 0's items");
  let s = K.stats q in
  check_int "klsm.spy_attempt" 1 (ctotal "klsm.spy_attempt" s);
  check_int "klsm.spy_success" 1 (ctotal "klsm.spy_success" s);
  check_int "dist.spy_blocks" 2 (ctotal "dist.spy_blocks" s);
  check_int "dist.spy_items" 3 (ctotal "dist.spy_items" s);
  check_int "served locally after the spy" 1 (ctotal "klsm.delete_local" s);
  check_int "spy work charged to tid 1" 2 (cper "dist.spy_blocks" 1 s);
  (* Two lookups and no consult: before the spy thread 1 holds nothing,
     and the never-published stripe (bound max_int, no array) certifies
     itself empty; after it the spied 10 sits below that bound.  So both
     lookups are bound skips, and the stripe's find_min never runs. *)
  check_int "stripe.cache_hit" 0 (ctotal "stripe.cache_hit" s);
  check_int "stripe.cache_miss" 0 (ctotal "stripe.cache_miss" s);
  check_int "stripe.hint_skip" 2 (ctotal "stripe.hint_skip" s)

(* ---------------- sim backend ---------------- *)

(* k = 0 sends every insert through the shared component, so with two
   preempting sim threads the CAS counters obey exact conservation laws:
   every insert installs exactly once (attempts - failures = inserts) and
   every failed CAS causes exactly one insert retry. *)
let run_contended_inserts ~seed () =
  Sim.configure ~seed ~policy:(Sim.Random_preempt 0.25) ();
  let module K = Klsm_core.Klsm.Make (Sim) in
  let q = K.create_with ~k:0 ~num_threads:2 () in
  Sim.parallel_run ~num_threads:2 (fun tid ->
      let h = K.register q tid in
      for i = 0 to 49 do
        K.insert h ((100 * i) + tid) tid
      done);
  K.stats q

let norm (s : Obs.snapshot) =
  List.map (fun (n, per) -> (n, Array.to_list per)) s.Obs.counters

let test_sim_cas_conservation () =
  with_obs true @@ fun () ->
  let s = run_contended_inserts ~seed:21 () in
  check_int "every insert installs exactly once"
    (ctotal "shared.cas_attempt" s)
    (ctotal "shared.cas_fail" s + 100);
  check_int "every failure retries exactly once"
    (ctotal "shared.cas_fail" s)
    (ctotal "shared.insert_retry" s);
  check_bool "the schedule actually contended" true
    (ctotal "shared.cas_fail" s > 0);
  check_int "every insert spilled" 100 (ctotal "dist.spill" s)

let test_sim_determinism () =
  with_obs true @@ fun () ->
  let a = run_contended_inserts ~seed:21 () in
  let b = run_contended_inserts ~seed:21 () in
  Alcotest.(check (list (pair string (list int))))
    "same seed, same counters" (norm a) (norm b)

(* Observation must not change behaviour: counter writes are plain stores
   the simulator charges nothing for, so the same seeded schedule must
   yield identical per-thread pop sequences and an identical virtual-time
   makespan whether observability is on or off. *)
let sim_workload () =
  Sim.configure ~seed:11 ~policy:(Sim.Random_preempt 0.3) ();
  let module K = Klsm_core.Klsm.Make (Sim) in
  let q = K.create_with ~k:16 ~num_threads:4 () in
  let got = Array.init 4 (fun _ -> ref []) in
  Sim.parallel_run ~num_threads:4 (fun tid ->
      let h = K.register q tid in
      let rng = Xo.create ~seed:(50 + tid) in
      for i = 0 to 99 do
        K.insert h (Xo.int rng 10_000) ((tid * 1000) + i);
        if i land 3 = 3 then
          match K.try_delete_min h with
          | Some (k, _) -> got.(tid) := k :: !(got.(tid))
          | None -> ()
      done;
      let misses = ref 0 in
      while !misses < 50 do
        match K.try_delete_min h with
        | Some (k, _) ->
            got.(tid) := k :: !(got.(tid));
            misses := 0
        | None -> incr misses
      done);
  ( Array.to_list (Array.map (fun r -> List.rev !r) got),
    Sim.makespan (),
    K.stats q )

let test_observation_changes_nothing () =
  let on_pops, on_mk, on_stats = with_obs true sim_workload in
  let off_pops, off_mk, off_stats = with_obs false sim_workload in
  Alcotest.(check (list (list int)))
    "identical pop sequences" on_pops off_pops;
  Alcotest.(check (float 0.0)) "identical virtual makespan" on_mk off_mk;
  check_bool "enabled run produced counters" true (on_stats.Obs.counters <> []);
  check_bool "disabled run produced none" true
    (off_stats.Obs.counters = [] && off_stats.Obs.spans = [])

(* ---------------- registry plumbing ---------------- *)

(* Every registry queue must expose stats: empty when created disabled,
   well-formed (per-thread arrays sized to the queue) when enabled.  The
   relaxed/lock-free designs are additionally guaranteed to count
   something under this insert+drain workload. *)
let test_registry_stats_plumbing () =
  let module R = Klsm_harness.Registry.Make (Real) in
  let specs =
    [
      R.Heap_lock;
      R.Linden;
      R.Spraylist;
      R.Multiq 2;
      R.Klsm 16;
      R.klsm_sharded 16 2;
      R.Dlsm;
      R.Wimmer_centralized;
      R.Wimmer_hybrid 16;
    ]
  in
  let rec must_count = function
    | R.Klsm _ | R.Klsm_sharded _ | R.Dlsm | R.Wimmer_hybrid _ | R.Linden
    | R.Spraylist ->
        true
    | R.Heap_lock | R.Multiq _ | R.Wimmer_centralized ->
        (* lock-contention counters need real parallelism to fire *)
        false
    | R.Stored (inner, _) -> must_count inner
  in
  List.iter
    (fun spec ->
      (with_obs false @@ fun () ->
       let inst = R.make ~seed:3 ~num_threads:2 spec in
       let h = (inst.R.register) 0 in
       for i = 1 to 32 do
         h.R.insert i i
       done;
       for _ = 1 to 16 do
         ignore (h.R.try_delete_min ())
       done;
       let s = (inst.R.stats) () in
       check_bool
         (inst.R.name ^ ": disabled stats are empty")
         true
         (s.Obs.counters = [] && s.Obs.spans = []));
      with_obs true @@ fun () ->
      let inst = R.make ~seed:3 ~num_threads:2 spec in
      let h0 = (inst.R.register) 0 in
      let h1 = (inst.R.register) 1 in
      for i = 1 to 32 do
        h0.R.insert i i;
        h1.R.insert (1000 + i) i
      done;
      let misses = ref 0 in
      while !misses < 40 do
        match h0.R.try_delete_min () with
        | Some _ -> misses := 0
        | None -> incr misses
      done;
      let s = (inst.R.stats) () in
      check_int (inst.R.name ^ ": snapshot thread count") 2 s.Obs.threads;
      List.iter
        (fun (n, per) ->
          check_int (inst.R.name ^ "/" ^ n ^ ": per-thread width") 2
            (Array.length per))
        s.Obs.counters;
      if must_count spec then
        check_bool
          (inst.R.name ^ ": counted something")
          true
          (List.exists
             (fun (_, per) -> Array.fold_left ( + ) 0 per > 0)
             s.Obs.counters))
    specs

(* The [dlsm] spec is the k-LSM with nothing ever spilled: on two
   preempting sim threads, inserts and a batch insert each, then a drain,
   no block reaches a stripe and no publish CAS runs, while every item
   comes out exactly once. *)
let test_dlsm_stays_thread_local () =
  with_obs true @@ fun () ->
  let module R = Klsm_harness.Registry.Make (Sim) in
  Sim.configure ~seed:5 ~policy:(Sim.Random_preempt 0.25) ();
  let threads = 2 and per_thread = 5_000 and batch = 64 in
  let inst = R.make ~seed:5 ~num_threads:threads R.Dlsm in
  let key tid i = (i * threads) + tid in
  let drained = Array.make threads 0 and sum = Array.make threads 0 in
  Sim.parallel_run ~num_threads:threads (fun tid ->
      let h = inst.R.register tid in
      for i = 0 to per_thread - 1 do
        h.R.insert (key tid i) tid
      done;
      h.R.insert_batch
        (Array.init batch (fun i -> (key tid (per_thread + i), tid)));
      let misses = ref 0 in
      while !misses < 20 do
        match h.R.try_delete_min_batch 16 with
        | [] -> incr misses
        | kvs ->
            misses := 0;
            List.iter
              (fun (k, _) ->
                drained.(tid) <- drained.(tid) + 1;
                sum.(tid) <- sum.(tid) + k)
              kvs
      done);
  let s = inst.R.stats () in
  let n = threads * (per_thread + batch) in
  check_int "dist.spill" 0 (ctotal "dist.spill" s);
  check_int "shared.cas_attempt" 0 (ctotal "shared.cas_attempt" s);
  check_int "every item drained once" n (Array.fold_left ( + ) 0 drained);
  check_int "key sum conserved" (n * (n - 1) / 2) (Array.fold_left ( + ) 0 sum)

let () =
  Alcotest.run "obs"
    [
      ( "primitives",
        [
          Alcotest.test_case "interning and sheets" `Quick test_interning;
          Alcotest.test_case "span accumulation" `Quick test_span;
          Alcotest.test_case "enable flag latches per sheet" `Quick
            test_latching;
        ] );
      ( "exact-counters",
        [
          Alcotest.test_case "k=4 spill arithmetic" `Quick
            test_spill_arithmetic;
          Alcotest.test_case "forced CAS failure counts exactly once" `Quick
            test_forced_cas_failure;
          Alcotest.test_case "spy counters" `Quick test_spy_counters;
        ] );
      ( "sim",
        [
          Alcotest.test_case "CAS accounting conservation" `Quick
            test_sim_cas_conservation;
          Alcotest.test_case "counter snapshots are deterministic" `Quick
            test_sim_determinism;
          Alcotest.test_case "observation changes no results" `Quick
            test_observation_changes_nothing;
        ] );
      ( "registry",
        [
          Alcotest.test_case "stats plumbing for every spec" `Quick
            test_registry_stats_plumbing;
          Alcotest.test_case "dlsm stays thread-local" `Quick
            test_dlsm_stays_thread_local;
        ] );
    ]
