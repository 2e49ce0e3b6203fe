(* Concurrency stress tests: conservation (every inserted key deleted
   exactly once, by single deletes and by pulls), rho-relaxation bounds
   under concurrent deletion, and schedule fuzzing with the simulator's
   random-preemption policy, plus real-domain runs for genuine parallel
   races. *)

module Sim = Klsm_backend.Sim
module Real = Klsm_backend.Real

(* ---------------- conservation ---------------- *)

(* Run a mixed workload of unique payloads on a queue spec; every payload
   must be delivered exactly once across all threads (take-exactly-once +
   spy duplication safety).  With [~pull:n] every delete is a pull of up
   to [n] ([try_delete_min_batch]), the path that claims runs. *)
module Conservation (B : Klsm_backend.Backend_intf.S) = struct
  module R = Klsm_harness.Registry.Make (B)
  module Xo = Klsm_primitives.Xoshiro

  (* Returns (duplicates, lost). *)
  let run ?(pull = 1) ~seed ~num_threads ~per_thread spec =
    let inst = R.make ~seed ~num_threads spec in
    let total = num_threads * per_thread in
    let got = Array.init num_threads (fun _ -> ref []) in
    B.parallel_run ~num_threads (fun tid ->
        let h = inst.R.register tid in
        let delete () =
          if pull <= 1 then Option.to_list (h.R.try_delete_min ())
          else h.R.try_delete_min_batch pull
        in
        let keep kvs = List.iter (fun (_, v) -> got.(tid) := v :: !(got.(tid))) kvs in
        let rng = Xo.create ~seed:(seed + (31 * tid)) in
        for i = 0 to per_thread - 1 do
          let payload = (tid * per_thread) + i in
          h.R.insert (Xo.int rng 100_000) payload;
          if i land 1 = 1 then keep (delete ())
        done;
        (* Drain with spurious-failure retries. *)
        let misses = ref 0 in
        while !misses < 300 do
          match delete () with
          | [] -> incr misses
          | kvs ->
              keep kvs;
              misses := 0
        done);
    let seen = Array.make total 0 in
    Array.iter
      (fun l -> List.iter (fun v -> seen.(v) <- seen.(v) + 1) !l)
      got;
    let dup = ref 0 and lost = ref 0 in
    Array.iter
      (fun c -> if c > 1 then incr dup else if c = 0 then incr lost)
      seen;
    (!dup, !lost)
end

module Cons_sim = Conservation (Sim)
module Cons_real = Conservation (Real)

let sim_specs =
  [
    Cons_sim.R.Klsm 0;
    Cons_sim.R.Klsm 16;
    Cons_sim.R.Klsm 1024;
    Cons_sim.R.Dlsm;
    Cons_sim.R.Linden;
    Cons_sim.R.Spraylist;
    Cons_sim.R.Multiq 2;
    Cons_sim.R.Heap_lock;
    Cons_sim.R.Wimmer_hybrid 32;
    Cons_sim.R.Wimmer_centralized;
  ]

let test_conservation_sim_fair () =
  Sim.configure ~seed:3 ~policy:Sim.Fair ();
  List.iter
    (fun spec ->
      let dup, lost =
        Cons_sim.run ~seed:3 ~num_threads:8 ~per_thread:500 spec
      in
      Alcotest.(check (pair int int))
        (Cons_sim.R.spec_name spec) (0, 0) (dup, lost))
    sim_specs

let test_conservation_sim_fuzzed_schedules () =
  (* The heart of the race hunt: many random preemption schedules on the
     k-LSM and DLSM (the structures with the trickiest publication
     protocols). *)
  List.iter
    (fun spec ->
      for seed = 1 to 8 do
        Sim.configure ~seed ~policy:(Sim.Random_preempt 0.25) ();
        let dup, lost =
          Cons_sim.run ~seed ~num_threads:4 ~per_thread:200 spec
        in
        Alcotest.(check (pair int int))
          (Printf.sprintf "%s seed %d" (Cons_sim.R.spec_name spec) seed)
          (0, 0) (dup, lost)
      done)
    [ Cons_sim.R.Klsm 8; Cons_sim.R.Dlsm; Cons_sim.R.Linden; Cons_sim.R.Spraylist ];
  Sim.configure ~policy:Sim.Fair ()

let test_conservation_real_domains () =
  List.iter
    (fun spec ->
      let dup, lost =
        Cons_real.run ~seed:11 ~num_threads:4 ~per_thread:5_000 spec
      in
      Alcotest.(check (pair int int))
        (Cons_real.R.spec_name spec) (0, 0) (dup, lost))
    [
      Cons_real.R.Klsm 64;
      Cons_real.R.Dlsm;
      Cons_real.R.Linden;
      Cons_real.R.Multiq 2;
    ]

let test_conservation_pulls () =
  (* Pulls of 8 claim runs of a stripe with one publish CAS, at every
     stripe count: fuzzed simulator schedules, then real domains. *)
  List.iter
    (fun spec ->
      for seed = 1 to 8 do
        Sim.configure ~seed ~policy:(Sim.Random_preempt 0.25) ();
        let dup, lost =
          Cons_sim.run ~pull:8 ~seed ~num_threads:4 ~per_thread:200 spec
        in
        Alcotest.(check (pair int int))
          (Printf.sprintf "%s seed %d" (Cons_sim.R.spec_name spec) seed)
          (0, 0) (dup, lost)
      done)
    [ Cons_sim.R.Klsm 8; Cons_sim.R.klsm_sharded 8 2; Cons_sim.R.klsm_sharded 16 4 ];
  Sim.configure ~policy:Sim.Fair ();
  List.iter
    (fun spec ->
      let dup, lost =
        Cons_real.run ~pull:8 ~seed:11 ~num_threads:4 ~per_thread:5_000 spec
      in
      Alcotest.(check (pair int int))
        (Cons_real.R.spec_name spec) (0, 0) (dup, lost))
    [ Cons_real.R.Klsm 64; Cons_real.R.klsm_sharded 64 4 ]

(* ---------------- rho bound under concurrent deletion ---------------- *)

let test_rho_bound_concurrent_deletions () =
  (* Prefill with distinct keys 0..n-1, then T simulated threads only
     delete.  A delete that completes after [m] earlier deletions completed
     must return a key of rank < m + rho + T (rho skippable + T in-flight).
     Tracked inside the simulator where completions are sequential. *)
  let module K = Klsm_core.Klsm.Make (Sim) in
  let module Xo = Klsm_primitives.Xoshiro in
  List.iter
    (fun (t, k) ->
      Sim.configure ~seed:5 ~policy:Sim.Fair ();
      let rho = Klsm_core.Klsm.rank_bound ~threads:t ~k () in
      let n = 2_000 in
      let q = K.create_with ~k ~num_threads:t () in
      let handles = Array.make t None in
      (* Prefill via thread 0 only: all items are "old", none in local
         buffers of other threads. *)
      Sim.parallel_run ~num_threads:t (fun tid ->
          let h = K.register q tid in
          handles.(tid) <- Some h;
          if tid = 0 then begin
            let keys = Array.init n Fun.id in
            Xo.shuffle (Xo.create ~seed:9) keys;
            Array.iter (fun key -> K.insert h key ()) keys
          end);
      let completed = Sim.make 0 in
      let violations = Sim.make 0 in
      Sim.parallel_run ~num_threads:t (fun tid ->
          let h = match handles.(tid) with Some h -> h | None -> assert false in
          let continue_loop = ref true in
          let misses = ref 0 in
          while !continue_loop do
            match K.try_delete_min h with
            | Some (key, ()) ->
                misses := 0;
                let m = Sim.fetch_and_add completed 1 in
                (* keys are distinct 0..n-1, so rank at start = key; after m
                   completed deletions rank >= key - m. *)
                if key - m >= rho + t then ignore (Sim.fetch_and_add violations 1)
            | None ->
                incr misses;
                if !misses > 200 then continue_loop := false
          done);
      Alcotest.(check int)
        (Printf.sprintf "rho bound T=%d k=%d" t k)
        0 (Sim.get violations);
      Alcotest.(check int) "all deleted" n (Sim.get completed))
    [ (1, 0); (4, 8); (8, 64) ]

(* ---------------- substrate-level concurrent stress ---------------- *)

let test_shared_klsm_direct_stress () =
  (* Drive the shared component directly (no DistLSM batching): concurrent
     block inserts and takes from several fuzzed fibers; conservation of a
     unique payload space. *)
  let module S = Klsm_core.Shared_klsm.Make (Sim) in
  let module I = Klsm_core.Item.Make (Sim) in
  let module Blk = Klsm_core.Block.Make (Sim) in
  let module Xo = Klsm_primitives.Xoshiro in
  let hasher = Klsm_primitives.Tabular_hash.create ~seed:3 in
  let alive it = not (I.is_taken it) in
  for seed = 1 to 4 do
    Sim.configure ~seed ~policy:(Sim.Random_preempt 0.2) ();
    let q = S.create ~k:8 ~hasher ~alive () in
    let t = 4 and per = 40 and bsz = 4 in
    let got = Array.init t (fun _ -> ref []) in
    Sim.parallel_run ~num_threads:t (fun tid ->
        let h = S.register q ~tid ~rng:(Xo.create ~seed:(tid + 9)) in
        let rng = Xo.create ~seed:(100 + tid) in
        for b = 0 to per - 1 do
          (* Build a sorted block of unique payloads and insert it. *)
          let base = (tid * per * bsz) + (b * bsz) in
          let items =
            Array.init bsz (fun i -> I.make (Xo.int rng 1_000) (base + i))
          in
          Array.sort (fun a b -> compare (I.key b) (I.key a)) items;
          let blk =
            Blk.of_sorted_array ~filter:Klsm_primitives.Bloom.empty items
          in
          S.insert h blk;
          (* One take attempt. *)
          match S.find_min h with
          | Some it when I.take it -> got.(tid) := I.value it :: !(got.(tid))
          | _ -> ()
        done;
        (* Drain. *)
        let misses = ref 0 in
        while !misses < 100 do
          match S.find_min h with
          | Some it when I.take it ->
              got.(tid) := I.value it :: !(got.(tid));
              misses := 0
          | Some _ -> ()
          | None -> incr misses
        done);
    let total = t * per * bsz in
    let seen = Array.make total 0 in
    Array.iter (fun l -> List.iter (fun v -> seen.(v) <- seen.(v) + 1) !l) got;
    Array.iteri
      (fun v c ->
        if c <> 1 then
          Alcotest.failf "shared stress seed %d: payload %d seen %d times"
            seed v c)
      seen
  done;
  Sim.configure ~policy:Sim.Fair ()

let test_skiplist_concurrent_inserts () =
  (* Fuzzed concurrent inserts must produce a sorted list containing every
     key exactly once (tests the lock-free linking under preemption). *)
  let module Sk = Klsm_baselines.Skiplist.Make (Sim) in
  let module Xo = Klsm_primitives.Xoshiro in
  for seed = 1 to 6 do
    Sim.configure ~seed ~policy:(Sim.Random_preempt 0.3) ();
    let sk = Sk.create ~dummy:(-1) () in
    let t = 4 and per = 100 in
    Sim.parallel_run ~num_threads:t (fun tid ->
        let rng = Xo.create ~seed:(seed + (13 * tid)) in
        for i = 0 to per - 1 do
          (* Unique keys so the expected alive list is exact. *)
          ignore (Sk.insert sk ~rng ((Xo.int rng 1_000) * 1_000 + (tid * per) + i) 0)
        done);
    let keys = List.map fst (Sk.to_alive_list sk) in
    if List.length keys <> t * per then
      Alcotest.failf "skiplist seed %d: %d keys, expected %d" seed
        (List.length keys) (t * per);
    if keys <> List.sort compare keys then
      Alcotest.failf "skiplist seed %d: not sorted" seed
  done;
  Sim.configure ~policy:Sim.Fair ()

(* ---------------- invariant checks under concurrency ---------------- *)

(* A run of two inserts per delete, which ends with items in every
   component: each thread's local LSM, and the shared array, whose
   published bound must sit at or below every block's stored minimum. *)
let test_dist_invariants_after_concurrent_run () =
  let module K = Klsm_core.Klsm.Make (Sim) in
  let module Xo = Klsm_primitives.Xoshiro in
  Sim.configure ~seed:2 ~policy:Sim.Fair ();
  let t = 6 in
  let q = K.create_with ~k:32 ~num_threads:t () in
  let handles = Array.make t None in
  Sim.parallel_run ~num_threads:t (fun tid ->
      let h = K.register q tid in
      handles.(tid) <- Some h;
      let rng = Xo.create ~seed:tid in
      for _ = 1 to 1_000 do
        if Xo.int rng 3 > 0 then K.insert h (Xo.int rng 10_000) ()
        else ignore (K.try_delete_min h)
      done);
  Array.iter
    (fun slot ->
      match slot with
      | Some h -> K.Dist_lsm.check_invariants (K.internal_dist h)
      | None -> ())
    handles;
  Array.iter
    (fun stripe ->
      match K.Shared_klsm.peek_shared stripe with
      | Some arr -> K.Block_array.check_invariants ~published:true arr
      | None -> Alcotest.fail "the shared component ended empty")
    (K.internal_stripes q)

let () =
  Alcotest.run "stress"
    [
      ( "conservation",
        [
          Alcotest.test_case "sim fair (all queues)" `Slow test_conservation_sim_fair;
          Alcotest.test_case "sim fuzzed schedules" `Slow test_conservation_sim_fuzzed_schedules;
          Alcotest.test_case "real domains" `Slow test_conservation_real_domains;
          Alcotest.test_case "pulls of 8, fuzzed and real" `Slow test_conservation_pulls;
        ] );
      ( "relaxation",
        [ Alcotest.test_case "rho bound concurrent" `Slow test_rho_bound_concurrent_deletions ] );
      ( "substrates",
        [
          Alcotest.test_case "shared k-LSM direct (fuzzed)" `Slow test_shared_klsm_direct_stress;
          Alcotest.test_case "skiplist inserts (fuzzed)" `Slow test_skiplist_concurrent_inserts;
        ] );
      ( "invariants",
        [ Alcotest.test_case "dist invariants" `Quick test_dist_invariants_after_concurrent_run ] );
    ]
