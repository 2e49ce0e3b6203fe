(* Benchmark harness regenerating every figure of the paper's evaluation,
   plus the ablations of DESIGN.md and Bechamel micro-benchmarks.

   Run everything (scaled-down defaults, a few minutes):
       dune exec bench/main.exe
   Run one section:
       dune exec bench/main.exe -- fig3 | fig4a | fig4b | quality | sharded |
                                   batch | sched | stats | chaos | store |
                                   ablation-spill | ablation-bloom |
                                   ablation-cost | ablation-workload |
                                   bnb | micro

   fig3, batch and quality also emit machine-readable BENCH_fig3.json /
   BENCH_batch.json / BENCH_quality.json (raw floats, not the
   table-formatted strings) into the working directory; the stats section
   emits BENCH_stats.json (the lib/obs internal counters of every registry
   queue; docs/METRICS.md).  BENCH_throughput.json belongs to
   `make perf-check` (bin/perfcheck.ml).
   Paper-scale parameters (slow):
       dune exec bench/main.exe -- --full fig3
   Internal counters for any section (lib/obs, ~no overhead):
       dune exec bench/main.exe -- --stats sched

   fig4a and fig4b mark a run whose distances differ from sequential
   Dijkstra WRONG and exit 1 after their table; bnb fails on a
   suboptimal answer.

   Figures are reproduced on the simulator backend (DESIGN.md §1.4): the
   shapes — who wins, how curves move with T and k — are the reproduction
   target; absolute ops/s are nominal for the modeled 80-core machine.
   The EXPERIMENTS.md file records paper-vs-measured for each table. *)

module Sim = Klsm_backend.Sim
module R = Klsm_harness.Registry.Make (Sim)
module T = Klsm_harness.Throughput.Make (Sim)
module Q = Klsm_harness.Quality.Make (Sim)
module SB = Klsm_harness.Sssp_bench.Make (Sim)
module Report = Klsm_harness.Report
module Obs = Klsm_obs.Obs
module Obs_report = Klsm_harness.Obs_report

let full = ref false
let paper_threads = [ 1; 2; 3; 5; 10; 20; 40; 80 ]

(* ------------------------------------------------------------------ *)
(* Figure 3: throughput per thread, two prefill sizes                   *)
(* ------------------------------------------------------------------ *)

let fig3_one ~label ~prefill ~ops =
  let threads = if !full then paper_threads else [ 1; 2; 5; 10; 20; 40; 80 ] in
  let header = "impl" :: List.map (fun t -> Printf.sprintf "T=%d" t) threads in
  (* One pass collects the raw numbers; the text table formats them and the
     caller serializes them into BENCH_fig3.json. *)
  let measured =
    List.map
      (fun spec ->
        ( spec,
          List.map
            (fun t ->
              let config =
                {
                  T.default_config with
                  num_threads = t;
                  prefill;
                  ops_per_thread = max 200 (ops / t);
                }
              in
              let r = T.run config spec in
              (t, r.T.throughput_per_thread))
            threads ))
      R.figure3_specs
  in
  let rows =
    List.map
      (fun (spec, points) ->
        R.spec_name spec
        :: List.map (fun (_, thr) -> Report.human_float thr) points)
      measured
  in
  Report.section
    (Printf.sprintf
       "Figure 3 (%s): throughput/thread/s, prefill %d, 50-50 mix (sim)"
       label prefill);
  Report.table ~header rows;
  Report.Obj
    [
      ("label", Report.String label);
      ("prefill", Report.Int prefill);
      ( "series",
        Report.List
          (List.map
             (fun (spec, points) ->
               Report.Obj
                 [
                   ("impl", Report.String (R.spec_name spec));
                   ( "points",
                     Report.List
                       (List.map
                          (fun (t, thr) ->
                            Report.Obj
                              [
                                ("threads", Report.Int t);
                                ("throughput_per_thread", Report.Float thr);
                              ])
                          points) );
                 ])
             measured) );
    ]

let fig3 () =
  let panels =
    if !full then
      [
        fig3_one ~label:"left" ~prefill:1_000_000 ~ops:400_000;
        fig3_one ~label:"right" ~prefill:10_000_000 ~ops:400_000;
      ]
    else
      [
        fig3_one ~label:"left, scaled" ~prefill:10_000 ~ops:40_000;
        fig3_one ~label:"right, scaled" ~prefill:100_000 ~ops:40_000;
      ]
  in
  let path = "BENCH_fig3.json" in
  Report.write_json ~path
    (Report.Obj
       [
         ("benchmark", Report.String "fig3-throughput");
         ("backend", Report.String Sim.name);
         ("metric", Report.String "throughput_per_thread_per_s");
         ("full_scale", Report.Bool !full);
         ("panels", Report.List panels);
       ]);
  Printf.printf "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Figure 4: SSSP                                                      *)
(* ------------------------------------------------------------------ *)

let sssp_graph () =
  if !full then Klsm_graph.Gen.erdos_renyi ~seed:42 ~n:10_000 ~p:0.5 ()
  else Klsm_graph.Gen.erdos_renyi ~seed:42 ~n:600 ~p:0.5 ()

(* A table cell of one SSSP run: [text], or WRONG when its distances
   differ from Dijkstra's, counted in [wrong]. *)
let sssp_cell wrong r text =
  if r.SB.correct then text
  else begin
    incr wrong;
    "WRONG"
  end

(* After its table is printed, a section with a wrong run exits 1. *)
let exit_if_wrong wrong =
  if !wrong > 0 then begin
    Printf.eprintf "%d SSSP run(s) differ from sequential Dijkstra\n%!" !wrong;
    exit 1
  end

let fig4a () =
  let graph = sssp_graph () in
  let reference = Klsm_graph.Dijkstra.run graph ~source:0 in
  let threads = paper_threads in
  let header = "impl" :: List.map (fun t -> Printf.sprintf "T=%d" t) threads in
  let wrong = ref 0 in
  let rows =
    List.map
      (fun spec ->
        R.spec_name spec
        :: List.map
             (fun t ->
               let r = SB.run ~graph ~source:0 ~num_threads:t ~reference spec in
               sssp_cell wrong r (Printf.sprintf "%.2f" (r.SB.wall *. 1e3)))
             threads)
      [ R.Wimmer_centralized; R.Wimmer_hybrid 256; R.Klsm 256 ]
  in
  Report.section
    (Printf.sprintf
       "Figure 4 (left): SSSP time (ms, simulated) vs threads, k=256, G(%d, 0.5)"
       (Klsm_graph.Graph.num_nodes graph));
  Report.table ~header rows;
  exit_if_wrong wrong

let fig4b () =
  let graph = sssp_graph () in
  let reference = Klsm_graph.Dijkstra.run graph ~source:0 in
  let t = 10 in
  let ks = [ 0; 1; 4; 16; 64; 256; 1024; 4096; 16384 ] in
  let header = "impl" :: List.map (fun k -> Printf.sprintf "k=%d" k) ks in
  let wrong = ref 0 in
  let time_row name mk =
    name
    :: List.map
         (fun k ->
           let r = SB.run ~graph ~source:0 ~num_threads:t ~reference (mk k) in
           sssp_cell wrong r (Printf.sprintf "%.2f" (r.SB.wall *. 1e3)))
         ks
  in
  let extra_row name mk =
    (name ^ " +it")
    :: List.map
         (fun k ->
           let r = SB.run ~graph ~source:0 ~num_threads:t ~reference (mk k) in
           sssp_cell wrong r (Printf.sprintf "%+d" r.SB.extra_iterations))
         ks
  in
  Report.section
    (Printf.sprintf
       "Figure 4 (right): SSSP time (ms, simulated) vs k at %d threads, \
        G(%d, 0.5); '+it' rows = extra iterations vs sequential (paper \
        §6.1: +362 for k-LSM(256), +305 for hybrid(4096), +3965 for \
        k-LSM(16384) on G(10000, 0.5))"
       t
       (Klsm_graph.Graph.num_nodes graph));
  Report.table ~header
    [
      time_row "centralized-k" (fun _ -> R.Wimmer_centralized);
      time_row "hybrid-k" (fun k -> R.Wimmer_hybrid k);
      time_row "k-lsm" (fun k -> R.Klsm k);
      extra_row "hybrid-k" (fun k -> R.Wimmer_hybrid k);
      extra_row "k-lsm" (fun k -> R.Klsm k);
    ];
  exit_if_wrong wrong

(* ------------------------------------------------------------------ *)
(* Quality: rank errors (ablation A1)                                  *)
(* ------------------------------------------------------------------ *)

let quality () =
  let t = 8 in
  let specs =
    [
      R.Heap_lock;
      R.Linden;
      R.Multiq 2;
      R.Spraylist;
      R.Klsm 0;
      R.Klsm 4;
      R.Klsm 64;
      R.Klsm 256;
      R.Klsm 4096;
      R.klsm_sharded 256 4;
      R.Dlsm;
      R.Wimmer_hybrid 256;
    ]
  in
  let measured =
    List.map
      (fun spec ->
        let config = { Q.default_config with num_threads = t } in
        (spec, Q.run config spec))
      specs
  in
  let rho_of spec = R.rank_bound ~threads:t spec in
  let rows =
    List.map
      (fun (spec, r) ->
        [
          R.spec_name spec;
          string_of_int r.Q.deletes;
          Printf.sprintf "%.2f" r.Q.mean_rank_error;
          Printf.sprintf "%.0f" r.Q.p99_rank_error;
          string_of_int r.Q.max_rank_error;
          (match rho_of spec with
          | Some rho -> string_of_int rho
          | None -> "unbounded");
        ])
      measured
  in
  Report.section
    (Printf.sprintf "Quality: delete-min rank error at T=%d (sim)" t);
  Report.table
    ~header:[ "impl"; "deletes"; "mean"; "p99"; "max"; "rho" ]
    rows;
  let path = "BENCH_quality.json" in
  Report.write_json ~path
    (Report.Obj
       [
         ("benchmark", Report.String "quality-rank-error");
         ("backend", Report.String Sim.name);
         ("threads", Report.Int t);
         ( "results",
           Report.List
             (List.map
                (fun (spec, r) ->
                  Report.Obj
                    [
                      ("impl", Report.String (R.spec_name spec));
                      ("deletes", Report.Int r.Q.deletes);
                      ("mean_rank_error", Report.Float r.Q.mean_rank_error);
                      ("p99_rank_error", Report.Float r.Q.p99_rank_error);
                      ("max_rank_error", Report.Int r.Q.max_rank_error);
                      ( "rho",
                        match rho_of spec with
                        | Some rho -> Report.Int rho
                        | None -> Report.Null );
                    ])
                measured) );
       ]);
  Printf.printf "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Sharded: the shard-dimension sweep (contention striping)            *)
(* ------------------------------------------------------------------ *)

(* Throughput and rank error of the striped k-LSM (lib/core/klsm.ml)
   against its single-stripe case at the same global relaxation budget
   k = 256: S = 1 is the baseline, S in {2, 4} trades snapshot-CAS
   contention for the extra stripes consulted by find_min; the k = 1024
   rows show the budget and stripe count an operator scales next, and the
   deletion batch (dbuf, DESIGN.md §17) on top of the tuned 1024:4 spec —
   this table is the measured basis of docs/TUNING.md.  The thread axis
   runs to T = 16 (oversubscription on small hosts; the simulator charges
   contention via its cost model, so per-thread throughput here measures
   algorithmic scalability, not timesharing).  The rank-error column
   checks the cost side of the trade: the measured max must stay within
   the partitioned bound rho <= (T-1+S) * ceil(k/S) (DESIGN.md §12), plus
   T * (B-1) on the dbuf row (§17). *)
let sharded () =
  let k = 256 in
  let threads = [ 1; 2; 4; 8; 16 ] in
  let specs =
    [
      R.Klsm k;
      R.klsm_sharded k 2;
      R.klsm_sharded k 4;
      R.klsm_sharded (4 * k) 4;
      R.klsm_sharded (4 * k) 8;
      R.klsm_sharded ~dbuf:8 (4 * k) 4;
    ]
  in
  let measured =
    List.map
      (fun spec ->
        ( spec,
          List.map
            (fun t ->
              let config =
                {
                  T.default_config with
                  num_threads = t;
                  prefill = 8_000;
                  ops_per_thread = max 500 (16_000 / t);
                }
              in
              let r = T.run config spec in
              (t, r.T.throughput_per_thread))
            threads ))
      specs
  in
  let rows =
    List.map
      (fun (spec, points) ->
        R.spec_name spec
        :: List.map (fun (_, thr) -> Report.human_float thr) points)
      measured
  in
  Report.section
    (Printf.sprintf
       "Sharded: throughput/thread/s vs shard count, k=%d unless shown, 50-50 \
        mix (sim)"
       k)
    ;
  Report.table
    ~header:("impl" :: List.map (fun t -> Printf.sprintf "T=%d" t) threads)
    rows;
  (* Rank error at T=8 for the same configurations. *)
  let t = 8 in
  let qrows =
    List.map
      (fun spec ->
        let r = Q.run { Q.default_config with num_threads = t } spec in
        let rho = Option.get (R.rank_bound ~threads:t spec) in
        [
          R.spec_name spec;
          string_of_int r.Q.deletes;
          Printf.sprintf "%.2f" r.Q.mean_rank_error;
          string_of_int r.Q.max_rank_error;
          string_of_int rho;
        ])
      specs
  in
  Report.section
    (Printf.sprintf "Sharded: rank error at T=%d (sim)" t);
  Report.table
    ~header:
      [ "impl"; "deletes"; "mean"; "max"; "rho = (T-1+S)*ceil(k/S) [+T*(B-1)]" ]
    qrows

(* ------------------------------------------------------------------ *)
(* Batch: the deletion-batch sweep (DESIGN.md §17)                     *)
(* ------------------------------------------------------------------ *)

(* Throughput and rank error of the batched delete-min (dbuf=B,
   lib/core/klsm.ml) on the tuned spec as the batch size sweeps
   B in {1, 2, 4, 8, 16}: B = 1 is the dbuf-off control (the classic
   single-pop delete-min), every larger B claims a run of B items with
   one shared CAS (`shared.batch_claim`) and serves up to B - 1 of them
   from the per-handle deletion buffer.  The quality table is the
   measured side of the DESIGN.md §17 trade: the max column must stay
   within the widened bound rho <= (T-1+S)*ceil(k/S) + T*(B-1), and the
   rank-error-vs-B curve is how an operator prices the slack before
   turning the knob (the measured basis of docs/TUNING.md's dbuf row).
   Emits the sweep into BENCH_batch.json, fig3-style. *)
let batch () =
  let k = 1024 and shards = 4 in
  let t_axis = [ 1; 2; 4; 8; 16 ] in
  let bs = [ 1; 2; 4; 8; 16 ] in
  let spec_of b =
    if b = 1 then R.klsm_sharded k shards else R.klsm_sharded ~dbuf:b k shards
  in
  let measured =
    List.map
      (fun b ->
        let spec = spec_of b in
        let points =
          List.map
            (fun t ->
              let config =
                {
                  T.default_config with
                  num_threads = t;
                  prefill = 8_000;
                  ops_per_thread = max 500 (16_000 / t);
                }
              in
              let r = T.run config spec in
              (t, r.T.throughput_per_thread))
            t_axis
        in
        (b, spec, points))
      bs
  in
  let rows =
    List.map
      (fun (_, spec, points) ->
        R.spec_name spec
        :: List.map (fun (_, thr) -> Report.human_float thr) points)
      measured
  in
  Report.section
    (Printf.sprintf
       "Batch: throughput/thread/s vs deletion batch B, k=%d S=%d, 50-50 mix \
        (sim)"
       k shards);
  Report.table
    ~header:("impl" :: List.map (fun t -> Printf.sprintf "T=%d" t) t_axis)
    rows;
  (* Rank error vs B at T = 8: the quality price of the batch. *)
  let t = 8 in
  let qmeasured =
    List.map
      (fun b ->
        let r = Q.run { Q.default_config with num_threads = t } (spec_of b) in
        let rho = Option.get (R.rank_bound ~threads:t (spec_of b)) in
        (b, r, rho))
      bs
  in
  let qrows =
    List.map
      (fun (b, r, rho) ->
        [
          R.spec_name (spec_of b);
          string_of_int b;
          string_of_int r.Q.deletes;
          Printf.sprintf "%.2f" r.Q.mean_rank_error;
          Printf.sprintf "%.0f" r.Q.p99_rank_error;
          string_of_int r.Q.max_rank_error;
          string_of_int rho;
        ])
      qmeasured
  in
  Report.section (Printf.sprintf "Batch: rank error vs B at T=%d (sim)" t);
  Report.table
    ~header:
      [
        "impl";
        "B";
        "deletes";
        "mean";
        "p99";
        "max";
        "rho = (T-1+S)*ceil(k/S) + T*(B-1)";
      ]
    qrows;
  let path = "BENCH_batch.json" in
  Report.write_json ~path
    (Report.Obj
       [
         ("benchmark", Report.String "batch-sweep");
         ("backend", Report.String Sim.name);
         ("metric", Report.String "throughput_per_thread_per_s");
         ("impl_base", Report.String (R.spec_name (spec_of 1)));
         ( "series",
           Report.List
             (List.map
                (fun (b, spec, points) ->
                  Report.Obj
                    [
                      ("batch", Report.Int b);
                      ("impl", Report.String (R.spec_name spec));
                      ( "points",
                        Report.List
                          (List.map
                             (fun (t, thr) ->
                               Report.Obj
                                 [
                                   ("threads", Report.Int t);
                                   ("throughput_per_thread", Report.Float thr);
                                 ])
                             points) );
                    ])
                measured) );
         ( "quality",
           Report.List
             (List.map
                (fun (b, r, rho) ->
                  Report.Obj
                    [
                      ("batch", Report.Int b);
                      ("threads", Report.Int t);
                      ("deletes", Report.Int r.Q.deletes);
                      ("mean_rank_error", Report.Float r.Q.mean_rank_error);
                      ("p99_rank_error", Report.Float r.Q.p99_rank_error);
                      ("max_rank_error", Report.Int r.Q.max_rank_error);
                      ("rho", Report.Int rho);
                    ])
                qmeasured) );
       ]);
  Printf.printf "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Scheduler: queues as scheduling backbones (lib/sched)               *)
(* ------------------------------------------------------------------ *)

(* The k-LSM was built to back a task scheduler (Wimmer's Pheet); this
   section measures the queues in that role rather than under the synthetic
   50-50 op mix: workers submit prioritized spawning tasks through the
   batched submitter and execute them, and we report end-to-end scheduler
   metrics — makespan, queueing delay, and dequeue slack (the
   scheduler-visible cost of relaxation). *)
let sched () =
  let module CL = Klsm_sched.Closed_loop.Make (Sim) in
  let module M = Klsm_sched.Metrics in
  let t = 8 in
  let config =
    {
      CL.default_config with
      num_workers = t;
      roots_per_worker = (if !full then 2_000 else 300);
      service = CL.Uniform_work 64;
      spawn_fanout = 2;
      spawn_depth = 2;
    }
  in
  let specs = [ R.Klsm 256; R.Klsm 4; R.Multiq 2; R.Linden; R.Heap_lock ] in
  let measured = ref [] in
  let rows =
    List.map
      (fun spec ->
        let r = CL.run config spec in
        measured := !measured @ [ (spec, r) ];
        if r.CL.lost > 0 || r.CL.double > 0 then
          failwith
            (Printf.sprintf "sched: %s lost=%d double=%d" (R.spec_name spec)
               r.CL.lost r.CL.double);
        let m = r.CL.metrics in
        let delay_mean =
          match m.M.delay with Some s -> s.mean | None -> Float.nan
        in
        [
          R.spec_name spec;
          string_of_int r.CL.total_tasks;
          Printf.sprintf "%.2f" (r.CL.makespan *. 1e3);
          Report.human_float r.CL.throughput;
          Printf.sprintf "%.1f" (delay_mean *. 1e6);
          Printf.sprintf "%.1f" (m.M.delay_p99 *. 1e6);
          string_of_int m.M.inversions;
          string_of_int m.M.flushes;
        ])
      specs
  in
  Report.section
    (Printf.sprintf
       "Scheduler: closed loop, T=%d, fanout 2 depth 2, uniform service \
        (sim; lib/sched)"
       t);
  Report.table
    ~header:
      [
        "queue";
        "tasks";
        "makespan ms";
        "tasks/s";
        "delay us";
        "p99 us";
        "inversions";
        "flushes";
      ]
    rows;
  if Obs.enabled () then
    List.iter
      (fun (spec, (r : CL.result)) ->
        Obs_report.print_table
          ~name:(R.spec_name spec ^ " (queue)")
          r.CL.queue_stats;
        Obs_report.print_table
          ~name:(R.spec_name spec ^ " (sched)")
          r.CL.sched_stats)
      !measured

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

(* Workload-distribution ablation: the paper benchmarks uniform keys; the
   relaxed queues behave very differently under monotone (Dijkstra-like)
   and adversarial descending keys. *)
let ablation_workload () =
  let module W = Klsm_harness.Workload in
  let slice = [ R.Heap_lock; R.Multiq 2; R.Klsm 256; R.Dlsm ] in
  let workloads =
    [
      W.Uniform (1 lsl 28);
      W.Ascending 64;
      W.Descending (1 lsl 30);
      W.Clustered { clusters = 16; spread = 256; range = 1 lsl 28 };
    ]
  in
  let rows =
    List.map
      (fun spec ->
        R.spec_name spec
        :: List.map
             (fun w ->
               let config =
                 {
                   T.default_config with
                   num_threads = 10;
                   prefill = 10_000;
                   ops_per_thread = 3_000;
                   workload = w;
                 }
               in
               let r = T.run config spec in
               Report.human_float r.T.throughput_per_thread)
             workloads)
      slice
  in
  Report.section "Ablation: key-distribution sensitivity (T=10, thr/thread)";
  Report.table ~header:("impl" :: List.map W.name workloads) rows

(* Branch-and-bound application scaling: wall time and node expansions of
   the parallel best-first knapsack solver vs thread count and k — the
   application class the paper's introduction motivates. *)
let bnb () =
  let module E = Klsm_bnb.Engine.Make (Sim) in
  let module K = Klsm_bnb.Knapsack in
  let inst = K.random ~seed:9 ~n:30 () in
  let optimum = K.dp_optimum inst in
  let run ~threads ~k =
    Sim.configure ~seed:1 ();
    let s = E.solve ~k ~num_threads:threads (K.problem inst) in
    if K.profit_of_best inst s.E.best <> optimum then
      failwith "bnb: suboptimal result";
    s
  in
  let threads = [ 1; 2; 5; 10; 20; 40 ] in
  Report.section
    "Application: parallel branch-and-bound knapsack (30 items; simulated      time and expansions; k=64)";
  Report.table
    ~header:("metric" :: List.map (fun t -> Printf.sprintf "T=%d" t) threads)
    [
      ("time (ms)"
      :: List.map
           (fun t ->
             Printf.sprintf "%.2f" ((run ~threads:t ~k:64).E.wall *. 1e3))
           threads);
      ("expanded"
      :: List.map
           (fun t -> string_of_int (run ~threads:t ~k:64).E.expanded)
           threads);
    ];
  let ks = [ 0; 4; 64; 1024; 16384 ] in
  Report.section "Branch-and-bound: relaxation k vs extra expansions (T=10)";
  Report.table
    ~header:("metric" :: List.map (fun k -> Printf.sprintf "k=%d" k) ks)
    [
      ("time (ms)"
      :: List.map
           (fun k ->
             Printf.sprintf "%.2f" ((run ~threads:10 ~k).E.wall *. 1e3))
           ks);
      ("expanded"
      :: List.map (fun k -> string_of_int (run ~threads:10 ~k).E.expanded) ks);
    ]

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

(* The observability companion of fig3 (docs/METRICS.md): the same mixed
   workload, but the reported quantities are the queues' internal events —
   CAS retries, consolidations, spills, spy traffic — rather than external
   throughput.  Observability is force-enabled for this section regardless
   of --stats (that is the section's whole point) and restored after. *)
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

let stats_section () =
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  let t = if !full then 20 else 8 in
  let config =
    {
      T.default_config with
      num_threads = t;
      prefill = (if !full then 100_000 else 10_000);
      ops_per_thread = (if !full then 40_000 else 4_000);
    }
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
         ("full_scale", Report.Bool !full);
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

(* The chaos suite (lib/chaos; docs/CHAOS.md): seeded fault plans — forced
   CAS failures, mid-protocol stalls, fiber crashes — swept over queue
   conservation cases and hardened-scheduler cases, then the teeth check
   (a deliberately broken publication order that the suite must catch).
   Exits through the JSON only; bin/chaos.exe is the gating CLI. *)
let chaos_section () =
  let module Drive = Klsm_chaos.Drive in
  let seeds = if !full then 64 else 16 in
  let cases = Drive.sweep ~seeds () in
  let teeth_caught, teeth_cases = Drive.teeth ~plans:6 () in
  let cas_fails, stalls, crashes, violations = Drive.totals cases in
  Report.section
    (Printf.sprintf "Chaos: %d fault plans + %d teeth plans (sim); see \
                     docs/CHAOS.md"
       seeds (List.length teeth_cases));
  Report.table
    ~header:[ "case"; "seed"; "plan"; "cas/stall/crash"; "violations" ]
    (List.map
       (fun (c : Drive.case_result) ->
         [
           c.Drive.label;
           Printf.sprintf "0x%x" c.Drive.seed;
           c.Drive.plan_text;
           Printf.sprintf "%d/%d/%d" c.Drive.cas_fails c.Drive.stalls
             c.Drive.crashes;
           (match c.Drive.violations with
           | [] -> "-"
           | l -> String.concat "; " l);
         ])
       cases);
  Printf.printf
    "faults injected: %d cas-fail, %d stall, %d crash; violations: %d; \
     teeth caught: %b\n"
    cas_fails stalls crashes violations teeth_caught;
  let path = "BENCH_chaos.json" in
  Report.write_json ~path (Drive.to_json ~teeth_caught cases);
  Printf.printf "wrote %s\n%!" path

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
    ("fig3", fig3);
    ("fig4a", fig4a);
    ("fig4b", fig4b);
    ("quality", quality);
    ("sharded", sharded);
    ("batch", batch);
    ("sched", sched);
    ("stats", stats_section);
    ("chaos", chaos_section);
    ("store", store_section);
    ("ablation-spill", ablation_spill);
    ("ablation-bloom", ablation_bloom);
    ("ablation-cost", ablation_cost);
    ("ablation-workload", ablation_workload);
    ("bnb", bnb);
    ("micro", micro);
  ]

let () =
  let args =
    Sys.argv |> Array.to_list |> List.tl
    |> List.filter (fun a ->
           if a = "--full" then begin
             full := true;
             false
           end
           else if a = "--stats" then begin
             (* Latch observability on for every queue created from here on
                (lib/obs); sections with a printer (sched) dump the counter
                tables after their own. *)
             Obs.set_enabled true;
             false
           end
           else true)
  in
  let chosen = match args with [] -> List.map fst sections | l -> l in
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
