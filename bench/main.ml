(* The experiments no bin/ CLI runs: the DESIGN.md ablations A2-A4 and A6,
   the internal-counter dump and the store's cost tables.  The paper's
   figures and the quality, tuning, scheduler and branch-and-bound tables
   are one CLI line each (DESIGN.md §2); `make bench` runs those lines and
   then this executable.

   Run every section:
       dune exec bench/main.exe
   Run one section:
       dune exec bench/main.exe -- stats | store | ablation-spill |
                                   ablation-bloom | ablation-cost | micro

   stats writes BENCH_stats.json (the lib/obs internal counters of every
   registry queue, the input of `make stats-check`; docs/METRICS.md) and
   store writes BENCH_store.json into the working directory.  Every
   section but store and micro runs on the simulator backend
   (DESIGN.md §1.4). *)

module Sim = Klsm_backend.Sim
module R = Klsm_harness.Registry.Make (Sim)
module T = Klsm_harness.Throughput.Make (Sim)
module Report = Klsm_harness.Report
module Obs = Klsm_obs.Obs
module Obs_report = Klsm_harness.Obs_report

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* A2: spill threshold.  The §4.3 rule spills local blocks above level
   floor(log2 k) - 1; forcing other levels shows the batching effect on the
   shared hot spot (CAS count) and throughput. *)
let ablation_spill () =
  let t = 10 in
  let k = 256 in
  let levels = [ -1; 0; 2; 4; 6; 8 ] in
  let module K = Klsm_core.Klsm.Make (Sim) in
  let module Xo = Klsm_primitives.Xoshiro in
  let rows =
    List.map
      (fun lvl ->
        let q = K.create_with ~k ~spill_max_level:lvl ~num_threads:t () in
        let handles = Array.make t None in
        Sim.parallel_run ~num_threads:t (fun tid ->
            let h = K.register q tid in
            handles.(tid) <- Some h;
            let rng = Xo.create ~seed:(tid + 7) in
            for _ = 1 to 2_000 do
              K.insert h (Xo.int rng 1_000_000) 0
            done);
        let t0 = Sim.time () in
        Sim.parallel_run ~num_threads:t (fun tid ->
            let h =
              match handles.(tid) with Some h -> h | None -> assert false
            in
            let rng = Xo.create ~seed:(tid + 77) in
            for _ = 1 to 3_000 do
              if Xo.bool rng then K.insert h (Xo.int rng 1_000_000) 0
              else ignore (K.try_delete_min h)
            done);
        let elapsed = Sim.time () -. t0 in
        let st = Sim.stats () in
        [
          string_of_int lvl;
          string_of_int (1 lsl (lvl + 1));
          Report.human_float
            (float_of_int (t * 3_000) /. elapsed /. float_of_int t);
          string_of_int st.Sim.cas;
          string_of_int st.Sim.cas_failures;
        ])
      levels
  in
  Report.section
    (Printf.sprintf
       "Ablation A2: DistLSM spill threshold (k=%d, T=%d; the paper's rule \
        gives max level %d)"
       k t
       (Klsm_primitives.Bits.floor_log2 k - 1));
  Report.table
    ~header:[ "max level"; "local cap"; "thr/thread"; "CAS ops"; "CAS fails" ]
    rows

(* A3: Bloom-filter local ordering on/off. *)
let ablation_bloom () =
  let t = 10 in
  let module K = Klsm_core.Klsm.Make (Sim) in
  let module Xo = Klsm_primitives.Xoshiro in
  let run_one local_ordering =
    let q = K.create_with ~k:256 ~local_ordering ~num_threads:t () in
    let handles = Array.make t None in
    Sim.parallel_run ~num_threads:t (fun tid ->
        let h = K.register q tid in
        handles.(tid) <- Some h;
        let rng = Xo.create ~seed:(tid + 3) in
        for _ = 1 to 3_000 do
          K.insert h (Xo.int rng 1_000_000) 0
        done);
    let t0 = Sim.time () in
    Sim.parallel_run ~num_threads:t (fun tid ->
        let h = match handles.(tid) with Some h -> h | None -> assert false in
        let rng = Xo.create ~seed:(tid + 33) in
        for _ = 1 to 4_000 do
          if Xo.bool rng then K.insert h (Xo.int rng 1_000_000) 0
          else ignore (K.try_delete_min h)
        done);
    let elapsed = Sim.time () -. t0 in
    float_of_int (t * 4_000) /. elapsed /. float_of_int t
  in
  let with_bloom = run_one true in
  let without = run_one false in
  Report.section "Ablation A3: local-ordering Bloom filters (k=256, T=10)";
  Report.table
    ~header:[ "configuration"; "thr/thread" ]
    [
      [ "with local ordering (paper)"; Report.human_float with_bloom ];
      [ "without (ablated)"; Report.human_float without ];
    ]

(* Cost-model sensitivity: rerun a Figure 3 slice under a near-uniform
   memory model to show which rankings depend on coherence costs. *)
let ablation_cost () =
  let slice = [ R.Heap_lock; R.Linden; R.Multiq 2; R.Klsm 256; R.Dlsm ] in
  let run_with cost label =
    Sim.configure ~cost ();
    let rows =
      List.map
        (fun spec ->
          let config =
            {
              T.default_config with
              num_threads = 20;
              prefill = 10_000;
              ops_per_thread = 2_000;
            }
          in
          let r = T.run config spec in
          [ R.spec_name spec; Report.human_float r.T.throughput_per_thread ])
        slice
    in
    Report.section
      (Printf.sprintf "Ablation: cost-model sensitivity — %s (T=20)" label);
    Report.table ~header:[ "impl"; "thr/thread" ] rows
  in
  run_with Klsm_backend.Cost_model.default "default (NUMA-like misses)";
  run_with Klsm_backend.Cost_model.uniform "uniform (cheap coherence)";
  Sim.configure ~cost:Klsm_backend.Cost_model.default ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (real backend, single thread)             *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let module K = Klsm_core.Klsm.Default in
  let module L = Klsm_baselines.Linden_pq.Default in
  let module S = Klsm_baselines.Spraylist.Default in
  let module M = Klsm_baselines.Multiq.Default in
  let module H = Klsm_baselines.Locked_heap.Default in
  let module Blk = Klsm_core.Block.Make (Klsm_backend.Real) in
  let module I = Klsm_core.Item.Make (Klsm_backend.Real) in
  let module Xo = Klsm_primitives.Xoshiro in
  (* Steady-state "mixed op": one insert + one delete per run, so the
     structure keeps its prefill size. *)
  let mixed_pair name insert delete =
    Test.make ~name
      (Staged.stage (fun () ->
           insert ();
           delete ()))
  in
  let rng = Xo.create ~seed:5 in
  let prefill insert =
    for _ = 1 to 10_000 do
      insert (Xo.int rng 1_000_000)
    done
  in
  let klsm_test k =
    let q = K.create_with ~k ~num_threads:1 () in
    let h = K.register q 0 in
    prefill (fun key -> K.insert h key 0);
    mixed_pair
      (Printf.sprintf "klsm(%d)" k)
      (fun () -> K.insert h (Xo.int rng 1_000_000) 0)
      (fun () -> ignore (K.try_delete_min h))
  in
  let dlsm_test =
    (* The standalone DLSM: the k-LSM that never spills. *)
    let q = K.create_with ~spill_max_level:max_int ~num_threads:1 () in
    let h = K.register q 0 in
    prefill (fun key -> K.insert h key 0);
    mixed_pair "dlsm"
      (fun () -> K.insert h (Xo.int rng 1_000_000) 0)
      (fun () -> ignore (K.try_delete_min h))
  in
  let linden_test =
    let q = L.create_with ~dummy:0 ~num_threads:1 () in
    let h = L.register q 0 in
    prefill (fun key -> L.insert h key 0);
    mixed_pair "linden"
      (fun () -> L.insert h (Xo.int rng 1_000_000) 0)
      (fun () -> ignore (L.try_delete_min h))
  in
  let spray_test =
    let q = S.create_with ~dummy:0 ~num_threads:1 () in
    let h = S.register q 0 in
    prefill (fun key -> S.insert h key 0);
    mixed_pair "spraylist"
      (fun () -> S.insert h (Xo.int rng 1_000_000) 0)
      (fun () -> ignore (S.try_delete_min h))
  in
  let multiq_test =
    let q = M.create_with ~num_threads:1 () in
    let h = M.register q 0 in
    prefill (fun key -> M.insert h key 0);
    mixed_pair "multiq"
      (fun () -> M.insert h (Xo.int rng 1_000_000) 0)
      (fun () -> ignore (M.try_delete_min h))
  in
  let heap_test =
    let q = H.create ~num_threads:1 () in
    let h = H.register q 0 in
    prefill (fun key -> H.insert h key 0);
    mixed_pair "heap+lock"
      (fun () -> H.insert h (Xo.int rng 1_000_000) 0)
      (fun () -> ignore (H.try_delete_min h))
  in
  let merge_test =
    (* Cost of merging two 256-item blocks — the LSM's unit of work. *)
    let mk () =
      Blk.of_sorted_array ~filter:Klsm_primitives.Bloom.empty
        (Array.init 256 (fun i -> I.make ((255 - i) * 2) 0))
    in
    let b1 = mk () and b2 = mk () in
    Test.make ~name:"block-merge-512"
      (Staged.stage (fun () ->
           ignore (Blk.merge ~alive:(fun it -> not (I.is_taken it)) b1 b2)))
  in
  let tests =
    [
      heap_test;
      linden_test;
      spray_test;
      multiq_test;
      klsm_test 0;
      klsm_test 256;
      klsm_test 4096;
      dlsm_test;
      merge_test;
    ]
  in
  Report.section
    "Micro-benchmarks (real backend, 1 thread, ns per insert+delete pair)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let rows = ref [] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some [ x ] -> Printf.sprintf "%.1f" x
            | _ -> "?"
          in
          rows := [ name; est ] :: !rows)
        results)
    tests;
  Report.table ~header:[ "operation"; "ns/op-pair" ] (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* Internal counters: one Figure 3 style run per registry queue, with    *)
(* lib/obs enabled, dumped as per-thread tables and BENCH_stats.json     *)
(* ------------------------------------------------------------------ *)

(* Imbalanced producer/consumer fiber scenario (lib/sched; DESIGN.md
   section 16): worker 0 is the sole producer of fibered roots, so the
   consumers' deques start empty and the only fibers they ever run are
   pulled through the shared queue or STOLEN from a peer's deque.  The
   whole point of the Chase–Lev layer is that `steal.success` comes out
   positive here — asserted below, and written into BENCH_stats.json as a
   statscheck-validated queue entry so the record gates it too. *)
let sched_fibers_imbalanced ~workers ~roots ~fanout ~seed =
  let module W = Klsm_sched.Worker.Make (Sim) in
  let module M = Klsm_sched.Metrics in
  Sim.configure ~seed ~policy:Sim.Fair ();
  let sheet = Obs.create_sheet ~now:Sim.time ~num_threads:workers () in
  let instance = R.make ~seed ~num_threads:workers (R.Klsm 8) in
  let pool = W.create_pool ~max_tasks:roots ~num_workers:workers () in
  let metrics = M.create ~num_workers:workers in
  Sim.parallel_run ~num_threads:workers (fun tid ->
      let h = instance.R.register tid in
      let sub =
        W.Submitter.create
          ~cfg:{ W.Submitter.batch = 1; urgency_margin = 1; capacity = max_int }
          ~inflight:pool.W.inflight ~enqueue_batch:h.R.insert_batch ()
      in
      let ctx =
        W.make_ctx ~obs:(Obs.handle sheet ~tid) ~pool ~tid ~sub
          ~pop:h.R.try_delete_min ~metrics:metrics.(tid) ()
      in
      let remaining = ref (if tid = 0 then roots else 0) in
      let arrivals () =
        if !remaining = 0 then `Done
        else begin
          decr remaining;
          let priority = !remaining in
          `Submit
            ( priority,
              W.Task.Body
                (fun api ->
                  (* A wide fiber tree per root: odd children yield once so
                     parked fibers cross the requeue/steal surface. *)
                  let kids =
                    List.init fanout (fun i ->
                        api.W.Task.fork (fun () ->
                            if i land 1 = 1 then api.W.Task.yield ();
                            Sim.tick 64;
                            i))
                  in
                  List.iteri
                    (fun i k ->
                      if api.W.Task.await k <> i then
                        failwith "bench: fiber joined to the wrong value")
                    kids) )
        end
      in
      W.run ctx ~arrivals);
  let summary = M.summarize metrics in
  if W.completed_count pool <> roots then
    failwith "bench: imbalanced fiber run lost tasks";
  if summary.M.fibers <> summary.M.fibers_completed then
    failwith "bench: imbalanced fiber run lost fibers";
  if summary.M.steals = 0 then
    failwith "bench: imbalanced fiber run recorded no successful steals";
  (summary, Obs.snapshot sheet)

(* The observability companion of Figure 3 (docs/METRICS.md): the same
   mixed workload, but the reported quantities are the queues' internal
   events — CAS retries, consolidations, spills, spy traffic — rather than
   external throughput.  Observability is enabled for this section and
   restored after. *)
let stats_section () =
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  let t = 8 in
  let config =
    { T.default_config with num_threads = t; prefill = 10_000; ops_per_thread = 4_000 }
  in
  (* Every queue the registry knows: the Figure 3 line-up plus the Figure 4
     Wimmer variants. *)
  let specs =
    R.figure3_specs
    @ List.filter (fun s -> not (List.mem s R.figure3_specs)) R.figure4_specs
    @ [ R.klsm_sharded 256 4 ]
  in
  let measured = List.map (fun spec -> (spec, T.run config spec)) specs in
  let sched_workers = 4 in
  let fiber_summary, fiber_stats =
    sched_fibers_imbalanced ~workers:sched_workers ~roots:24 ~fanout:8 ~seed:11
  in
  Report.section
    (Printf.sprintf
       "Internal counters (lib/obs): 50-50 mix, T=%d, prefill %d (sim); see \
        docs/METRICS.md"
       t config.T.prefill);
  List.iter
    (fun (spec, (r : T.result)) ->
      Obs_report.print_table ~name:(R.spec_name spec) r.T.stats)
    measured;
  Obs_report.print_table ~name:"sched fibers imbalanced (klsm(8), 1 producer)"
    fiber_stats;
  Printf.printf
    "sched fibers imbalanced: %d fibers, %d/%d steals landed (hit rate \
     %.2f)\n%!"
    fiber_summary.Klsm_sched.Metrics.fibers
    fiber_summary.Klsm_sched.Metrics.steals
    fiber_summary.Klsm_sched.Metrics.steal_attempts
    (float_of_int fiber_summary.Klsm_sched.Metrics.steals
    /. float_of_int (max 1 fiber_summary.Klsm_sched.Metrics.steal_attempts));
  let path = "BENCH_stats.json" in
  Report.write_json ~path
    (Report.Obj
       [
         ("benchmark", Report.String "internal-stats");
         ("backend", Report.String Sim.name);
         ("threads", Report.Int t);
         ( "queues",
           Report.List
             (List.map
                (fun (spec, (r : T.result)) ->
                  match Obs_report.to_json r.T.stats with
                  | Report.Obj fields ->
                      Report.Obj
                        (("impl", Report.String (R.spec_name spec)) :: fields)
                  | other -> other)
                measured
             @ [
                 (* The scheduler's own counters under the imbalanced
                    producer/consumer fiber run: steal.success > 0 is
                    asserted before this entry is written. *)
                 (match Obs_report.to_json fiber_stats with
                 | Report.Obj fields ->
                     Report.Obj
                       (("impl", Report.String "sched-fibers-imbalanced")
                       :: fields)
                 | other -> other);
               ]) );
       ]);
  Printf.printf "wrote %s\n%!" path;
  Obs.set_enabled was_enabled

(* ------------------------------------------------------------------ *)
(* Store: the spill tier measured honestly (lib/store; docs/STORAGE.md) *)
(* ------------------------------------------------------------------ *)

(* Unlike the figures, this section runs on the {e Real} backend:
   spill/rehydrate latency is SHA-256 + disk time, which the simulator's
   cost model deliberately does not model.  Absolute numbers are
   per-host; the shapes — cost per spill cycle vs threshold, the memo hit
   rate, recovery time scaling linearly in recovered items — are the
   reproduction target.  Gating lives in `make store-check`
   (bin/storecheck.ml); this section only reports. *)
let store_section () =
  let module Real = Klsm_backend.Real in
  let module RR = Klsm_harness.Registry.Make (Real) in
  let module RT = Klsm_harness.Throughput.Make (Real) in
  let module Spill = Klsm_store.Spill.Make (Real) in
  let module K = Klsm_core.Klsm.Make (Real) in
  let module Bloom = Klsm_primitives.Bloom in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  let tmp = Filename.temp_dir "klsm-bench-store" "" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf tmp;
      Obs.set_enabled was_enabled)
    (fun () ->
      let k = 4096 in
      let config =
        {
          RT.num_threads = 1;
          prefill = 50_000;
          ops_per_thread = 200_000;
          seed = 42;
          workload = Klsm_harness.Workload.Descending (1 lsl 30);
        }
      in
      let counter stats name =
        match List.assoc_opt name stats.Obs.counters with
        | Some a -> Array.fold_left ( + ) 0 a
        | None -> 0
      in
      let span_mean_us stats name =
        match List.assoc_opt name stats.Obs.spans with
        | Some (d : Obs.span_data) ->
            let n = Array.fold_left ( + ) 0 d.Obs.count in
            if n = 0 then Float.nan
            else Array.fold_left ( +. ) 0.0 d.Obs.ns /. float_of_int n /. 1e3
        | None -> Float.nan
      in
      (* Threshold sweep: from "spill every publish" up to "spill nothing"
         (in-RAM baseline).  The memo hit rate counts selections answered
         by an already-rehydrated block: rehydrate_memo /
         (rehydrate + rehydrate_memo). *)
      let thresholds = [ Some 16384; Some 32768; Some 131072; None ] in
      let sweep =
        List.mapi
          (fun i threshold ->
            let spec_s =
              match threshold with
              | Some b ->
                  Printf.sprintf "klsm:%d+spill:%d+store:%s" k b
                    (Filename.concat tmp (Printf.sprintf "sweep%d" i))
              | None -> Printf.sprintf "klsm:%d" k
            in
            let spec =
              match RR.parse_spec spec_s with
              | Ok s -> s
              | Error m -> failwith m
            in
            let r = RT.run config spec in
            let spills = counter r.RT.stats "store.spill" in
            let cold = counter r.RT.stats "store.rehydrate" in
            let memo = counter r.RT.stats "store.rehydrate_memo" in
            let hit_rate =
              if cold + memo = 0 then Float.nan
              else float_of_int memo /. float_of_int (cold + memo)
            in
            (threshold, r, spills, cold, memo, hit_rate))
          thresholds
      in
      Report.section
        (Printf.sprintf
           "Store: spill-threshold sweep, klsm:%d, descending 50-50 mix, \
            T=1 (real)"
           k);
      Report.table
        ~header:
          [
            "threshold";
            "ops/s";
            "spills";
            "cold fetches";
            "memo hits";
            "hit rate";
            "spill us";
            "rehydrate us";
          ]
        (List.map
           (fun (threshold, (r : RT.result), spills, cold, memo, hit_rate) ->
             [
               (match threshold with
               | Some b -> Printf.sprintf "%dB" b
               | None -> "off (in-RAM)");
               Report.human_float r.RT.throughput_per_thread;
               string_of_int spills;
               string_of_int cold;
               string_of_int memo;
               (if Float.is_nan hit_rate then "-"
                else Printf.sprintf "%.2f" hit_rate);
               (let v = span_mean_us r.RT.stats "store.spill" in
                if Float.is_nan v then "-" else Printf.sprintf "%.0f" v);
               (let v = span_mean_us r.RT.stats "store.rehydrate" in
                if Float.is_nan v then "-" else Printf.sprintf "%.0f" v);
             ])
           sweep);
      (* Recovery time vs recovered queue size: plant blocks whose cold
         twins were dropped (the mid-spill-kill state), reopen, and time
         [Spill.recover] rebuilding a 1-thread queue. *)
      let alive _ = true in
      let recovery =
        List.map
          (fun n ->
            let root = Filename.concat tmp (Printf.sprintf "rec%d" n) in
            let spill = Spill.create ~threshold:0 ~num_threads:1 ~root () in
            let block_items = 256 in
            let blocks = (n + block_items - 1) / block_items in
            for b = 0 to blocks - 1 do
              let base = b * block_items in
              let count = min block_items (n - base) in
              let pairs =
                Array.init count (fun i ->
                    let v = base + i in
                    (7919 * ((v * 31) mod 997), v))
              in
              Array.sort (fun (a, _) (b, _) -> compare b a) pairs;
              let blk =
                Spill.Block.of_sorted_array ~filter:Bloom.empty
                  (Array.map (fun (key, v) -> Spill.Item.make key v) pairs)
              in
              ignore (Spill.maybe_spill spill ~alive ~tid:0 blk)
            done;
            Spill.close spill;
            let spill2 = Spill.create ~threshold:0 ~num_threads:1 ~root () in
            let q = K.create_with ~k:256 ~num_threads:1 () in
            let h = K.register q 0 in
            let t0 = Real.time () in
            let r = Spill.recover spill2 ~link:(fun b -> K.adopt_block h b) in
            let dt = Real.time () -. t0 in
            Spill.close spill2;
            if r.Klsm_store.Audit.recovered_items <> n then
              failwith
                (Printf.sprintf "bench store: recovered %d of %d items"
                   r.Klsm_store.Audit.recovered_items n);
            (n, r.Klsm_store.Audit.recovered, dt))
          [ 1_000; 10_000; 50_000 ]
      in
      Report.section "Store: recovery time vs queue size (real)";
      Report.table
        ~header:[ "items"; "blocks"; "recover ms"; "items/s" ]
        (List.map
           (fun (n, blocks, dt) ->
             [
               string_of_int n;
               string_of_int blocks;
               Printf.sprintf "%.1f" (dt *. 1e3);
               Report.human_float (float_of_int n /. dt);
             ])
           recovery);
      let path = "BENCH_store.json" in
      Report.write_json ~path
        (Report.Obj
           [
             ("benchmark", Report.String "store");
             ("backend", Report.String "real");
             ( "sweep",
               Report.List
                 (List.map
                    (fun ( threshold,
                           (r : RT.result),
                           spills,
                           cold,
                           memo,
                           hit_rate ) ->
                      Report.Obj
                        [
                          ( "threshold_bytes",
                            match threshold with
                            | Some b -> Report.Int b
                            | None -> Report.Null );
                          ( "ops_per_sec",
                            Report.Float r.RT.throughput_per_thread );
                          ("spills", Report.Int spills);
                          ("cold_fetches", Report.Int cold);
                          ("memo_hits", Report.Int memo);
                          ( "memo_hit_rate",
                            if Float.is_nan hit_rate then Report.Null
                            else Report.Float hit_rate );
                          ( "spill_mean_us",
                            let v = span_mean_us r.RT.stats "store.spill" in
                            if Float.is_nan v then Report.Null
                            else Report.Float v );
                          ( "rehydrate_mean_us",
                            let v =
                              span_mean_us r.RT.stats "store.rehydrate"
                            in
                            if Float.is_nan v then Report.Null
                            else Report.Float v );
                        ])
                    sweep) );
             ( "recovery",
               Report.List
                 (List.map
                    (fun (n, blocks, dt) ->
                      Report.Obj
                        [
                          ("items", Report.Int n);
                          ("blocks", Report.Int blocks);
                          ("seconds", Report.Float dt);
                        ])
                    recovery) );
           ]);
      Printf.printf "wrote %s\n%!" path)

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("stats", stats_section);
    ("store", store_section);
    ("ablation-spill", ablation_spill);
    ("ablation-bloom", ablation_bloom);
    ("ablation-cost", ablation_cost);
    ("micro", micro);
  ]

let () =
  let chosen =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst sections
    | l -> l
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f ->
          Sim.configure ~seed:0xC0FFEE ~cost:Klsm_backend.Cost_model.default ();
          f ()
      | None ->
          Printf.eprintf "unknown section %S; available: %s\n" name
            (String.concat ", " (List.map fst sections));
          exit 2)
    chosen
