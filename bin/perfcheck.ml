(* The `make perf-check` gate (wired into `make check`).

   Two runs of the uniform insert/delete-min workload (the paper's Figure 3
   mix) on the k-LSM:

   - Real backend, 8 threads: reports ops/sec and the block-pool hit rate
     (lib/obs `pool.*` counters; docs/METRICS.md).  Wall-clock throughput
     on shared CI machines is too noisy to gate on, so this half only
     checks the run completes and the pool is actually being exercised.

   - Sim backend, fixed seed and cost model: the simulator's virtual-work
     tick count for this exact merge/pivot workload is DETERMINISTIC, so it
     is an assertable proxy for hot-path work.  The run fails (exit 1) if
     a spec's tick count exceeds its budget in [sim_tick_gates], i.e. if a
     change regresses the amount of sequential work the hot paths charge.
     Every Sim section also reports the run's simulated writes and
     coherence misses ([Sim.stats]), which are not gated: ticks count work,
     not shared-memory traffic, and the two can move in opposite
     directions (a few extra scans that spare many shared writes).  The
     tick sections also report the run's consolidations and pivot
     recomputations (lib/obs [shared.consolidate],
     [shared.pivot_recompute]), so a find-min that falls back to
     consolidating on every delete shows in the output, and the striped
     race's work: lookups the hints settled without a consult
     ([stripe.hint_skip]), and stripe find-mins answered from the memo or
     selected afresh ([stripe.cache_hit], [stripe.cache_miss]).

   Plus the tuned-spec gates ([real_tuned_section], [sim_scaling_section])
   and the fiber-runtime gate ([real_fibers_section]) — see the comments
   on each.  Results land in BENCH_throughput.json. *)

module Real = Klsm_backend.Real
module Sim = Klsm_backend.Sim
module Report = Klsm_harness.Report
module Obs = Klsm_obs.Obs
module Stats = Klsm_primitives.Stats

(* The Sim tick gates: the fixed uniform workload of [sim_tick_section]
   through each spec, as (JSON key, spec, ticks measured when the budget
   was last set, budget).  Each budget leaves ~20% headroom over its
   measured count for benign drift; a regression past it means the
   merge/copy/pivot kernels or the striped publish/race paths are charging
   materially more work per op.  The S = 4 count sits below the S = 1 one
   because per-stripe arrays are a quarter the size.  Since find-min
   re-pivots a candidate set that ran dry instead of consolidating,
   klsm:256 reads about 93,600 ticks, which leaves only about 5% headroom
   under its budget: a re-pivot charges (k+1)·B ticks of private work,
   while the consolidations it replaced cost mostly coherence misses,
   which ticks do not count.  klsm-sharded:256:4 reads about 67,400
   ticks, about 7% under its budget: a stripe memo answer costs no
   ticks, and a stripe that moved selects afresh. *)
let sim_tick_gates =
  [
    ("sim", "klsm:256", 82_239, 98_700);
    ("sim_sharded", "klsm-sharded:256:4", 60_679, 72_800);
  ]

let counter_total snapshot name =
  match List.assoc_opt name snapshot.Obs.counters with
  | Some per_thread -> Array.fold_left ( + ) 0 per_thread
  | None -> 0

let real_section () =
  let module T = Klsm_harness.Throughput.Make (Real) in
  let module R = Klsm_harness.Registry.Make (Real) in
  let threads = 8 in
  let spec =
    match R.parse_spec "klsm:256" with Ok s -> s | Error m -> failwith m
  in
  let config =
    {
      T.default_config with
      num_threads = threads;
      prefill = 50_000;
      ops_per_thread = 25_000;
      seed = 42;
    }
  in
  let r = T.run config spec in
  let ops_per_sec = r.T.throughput_per_thread *. float_of_int threads in
  let hits = counter_total r.T.stats "pool.hit" in
  let misses = counter_total r.T.stats "pool.miss" in
  let bytes = counter_total r.T.stats "pool.bytes_avoided" in
  let hit_rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  Printf.printf "perf-check real: %.0f ops/s (%d threads), pool hit rate %.1f%% (%d hits, %d misses, %d bytes avoided)\n%!"
    ops_per_sec threads (100.0 *. hit_rate) hits misses bytes;
  if hits = 0 then begin
    prerr_endline "perf-check FAILED: block pool never hit (pooling broken?)";
    exit 1
  end;
  Report.Obj
    [
      ("backend", Report.String "real");
      ("impl", Report.String "klsm(256)");
      ("threads", Report.Int threads);
      ("shards", Report.Int 1);
      ("prefill", Report.Int config.T.prefill);
      ("ops_per_thread", Report.Int config.T.ops_per_thread);
      ("ops_per_sec", Report.Float ops_per_sec);
      ("throughput_per_thread", Report.Float r.T.throughput_per_thread);
      ("pool_hits", Report.Int hits);
      ("pool_misses", Report.Int misses);
      ("pool_hit_rate", Report.Float hit_rate);
      ("pool_bytes_avoided", Report.Int bytes);
    ]

(* Sharded-vs-unsharded on the Real backend (ISSUE 5 acceptance bar): the
   striped composition must not cost throughput — klsm-sharded:256:4 has
   to land within 5% of klsm:256 on the same 8-thread workload.  Wall
   clock on shared CI is noisy, so both sides take the MEDIAN of [reps]
   interleaved runs before comparing: the unsharded queue's samples have
   occasional +25% scheduling-luck spikes on an oversubscribed box, and a
   best-of comparison flips whenever one side happens to catch such a
   spike, while the medians order the two sides the same way run after
   run. *)
let real_sharded_section () =
  let module T = Klsm_harness.Throughput.Make (Real) in
  let module R = Klsm_harness.Registry.Make (Real) in
  let threads = 8 and shards = 4 in
  let parse s =
    match R.parse_spec s with Ok s -> s | Error m -> failwith m
  in
  let config =
    {
      T.default_config with
      num_threads = threads;
      prefill = 50_000;
      ops_per_thread = 25_000;
      seed = 42;
    }
  in
  (* The two sides are measured INTERLEAVED (A,B,A,B,...) with a major-GC
     compaction before each sample: heap growth and machine-load drift
     across a run otherwise bias whichever side happens to run later, and
     on a shared box that bias exceeds the 5% band this gate enforces. *)
  let reps = 5 in
  let unsharded_spec = parse "klsm:256" and sharded_spec = parse "klsm-sharded:256:4" in
  let sample spec =
    Gc.compact ();
    let r = T.run config spec in
    r.T.throughput_per_thread *. float_of_int threads
  in
  let unsharded_s = Array.make reps 0.0 and sharded_s = Array.make reps 0.0 in
  for i = 0 to reps - 1 do
    unsharded_s.(i) <- sample unsharded_spec;
    sharded_s.(i) <- sample sharded_spec
  done;
  let unsharded = Stats.median unsharded_s
  and sharded = Stats.median sharded_s in
  let floor = 0.95 *. unsharded in
  Printf.printf
    "perf-check real sharded: %.0f ops/s median-of-%d (S=%d, %d threads) vs \
     unsharded %.0f ops/s (floor %.0f)\n%!"
    sharded reps shards threads unsharded floor;
  if sharded < floor then begin
    Printf.eprintf
      "perf-check FAILED: sharded throughput %.0f ops/s fell more than 5%% \
       below unsharded %.0f ops/s\n%!"
      sharded unsharded;
    exit 1
  end;
  Report.Obj
    [
      ("backend", Report.String "real");
      ("impl", Report.String "klsm-sharded(256,4)");
      ("threads", Report.Int threads);
      ("shards", Report.Int shards);
      ("prefill", Report.Int config.T.prefill);
      ("ops_per_thread", Report.Int config.T.ops_per_thread);
      ("reps", Report.Int reps);
      ("ops_per_sec_median", Report.Float sharded);
      ("unsharded_ops_per_sec", Report.Float unsharded);
      ("floor_ops_per_sec", Report.Float floor);
    ]

(* The tuned-spec gate, in three parts, all on klsm-sharded:1024:4
   (docs/TUNING.md's sweep motivates the values: k = 1024 gives each
   stripe and local LSM a ceil(k/S) = 256 budget, +15% over k = 256 at
   T = 4..8 on Sim, and S = 4 stripes split the publish CAS):

   - an ABSOLUTE floor on the Real backend at T = 8: >= 33.4k
     ops/thread/s — the PR 5 sharded figure on the reference box, so the
     tuned spec must not cost throughput at moderate thread counts.  The
     sampling loop takes up to [tuned_reps] compaction-normalized reps and
     passes as soon as one crosses the floor: per-sample wall-clock noise
     on a shared box is +-15%, so a healthy queue crosses within a rep or
     two while a real 20%+ regression still has no realistic path past
     the floor;
   - a full Real thread sweep 1..16 (past 2x the cores of any CI box we
     use, i.e. well into oversubscription) emitted into
     BENCH_throughput.json so the curve is on the record;
   - the FLATNESS gate runs on the simulator (below,
     {!sim_scaling_section}): on an oversubscribed host, Real per-thread
     throughput halves from timesharing alone — T = 16 on an 8-core (or
     1-core CI) box measures the scheduler, not the queue.  The
     simulator's cost model charges CAS contention and cache traffic but
     not timeslices, so its per-thread curve isolates exactly the
     algorithmic scalability the gate is about. *)
let tuned_spec = "klsm-sharded:1024:4"
let tuned_real_floor_per_thread = 33_400.0
let tuned_reps = 10

let real_tuned_section () =
  let module T = Klsm_harness.Throughput.Make (Real) in
  let module R = Klsm_harness.Registry.Make (Real) in
  let threads = 8 in
  let spec =
    match R.parse_spec tuned_spec with Ok s -> s | Error m -> failwith m
  in
  let config =
    {
      T.default_config with
      num_threads = threads;
      prefill = 50_000;
      ops_per_thread = 25_000;
      seed = 42;
    }
  in
  let best = ref 0.0 and reps_used = ref 0 in
  (while
     !reps_used < tuned_reps && !best < tuned_real_floor_per_thread
   do
     Gc.compact ();
     let r = T.run config spec in
     incr reps_used;
     best := Float.max !best r.T.throughput_per_thread
   done);
  let best = !best and reps = !reps_used in
  Printf.printf
    "perf-check real tuned: %.0f ops/thread/s in %d rep(s) (%s, %d threads; \
     floor %.0f)\n%!"
    best reps tuned_spec threads tuned_real_floor_per_thread;
  if best < tuned_real_floor_per_thread then begin
    Printf.eprintf
      "perf-check FAILED: tuned-spec throughput %.0f ops/thread/s under the \
       %.0f floor\n%!"
      best tuned_real_floor_per_thread;
    exit 1
  end;
  (* The oversubscription sweep: one rep per point, smaller totals (the
     points are for the record, not a gate). *)
  let sweep_points =
    List.map
      (fun t ->
        Gc.compact ();
        let cfg =
          {
            T.default_config with
            num_threads = t;
            prefill = 20_000;
            ops_per_thread = max 2_000 (32_000 / t);
            seed = 42;
          }
        in
        let r = T.run cfg spec in
        (t, r.T.throughput_per_thread))
      [ 1; 2; 4; 8; 16 ]
  in
  List.iter
    (fun (t, per) ->
      Printf.printf "perf-check real tuned sweep: T=%-2d %.0f ops/thread/s\n%!"
        t per)
    sweep_points;
  Report.Obj
    [
      ("backend", Report.String "real");
      ("impl", Report.String tuned_spec);
      ("threads", Report.Int threads);
      ("prefill", Report.Int config.T.prefill);
      ("ops_per_thread", Report.Int config.T.ops_per_thread);
      ("reps", Report.Int reps);
      ("ops_per_thread_per_sec_best", Report.Float best);
      ("floor_ops_per_thread_per_sec", Report.Float tuned_real_floor_per_thread);
      ( "thread_sweep",
        Report.List
          (List.map
             (fun (t, per) ->
               Report.Obj
                 [
                   ("threads", Report.Int t);
                   ("ops_per_thread_per_sec", Report.Float per);
                   ("ops_per_sec", Report.Float (per *. float_of_int t));
                 ])
             sweep_points) );
    ]

(* The DESIGN.md §17 batched-delete gate (ISSUE 10 acceptance bar): the
   tuned spec with dbuf=8 — one shared CAS claims a run of 8 items, the
   per-handle deletion buffer serves the next 7 pops privately — against
   the dbuf-off tuned spec as control, on the same light workload the
   tuned sweep records (prefill 20k, 32k total ops split across threads).
   Two floors:

   - T = 8, interleaved median-of-5 (same discipline as
     [real_sharded_section]: alternate control/batched samples with a
     compaction before each, compare medians): >= [batch_real_floor_t8]
     ops/thread/s — the pre-batch T = 8 sweep figure, so batching must
     not cost throughput where the queue was already healthy;
   - T = 16 (2x oversubscription on CI boxes, where the pre-batch sweep
     collapsed to ~20.7k): best-of-up-to-[batch_reps16] compaction-
     normalized reps must clear [batch_real_floor_t16], the same
     pass-on-first-crossing discipline as [real_tuned_section] and for
     the same reason (+-50% wall-clock noise on a loaded shared box; a
     healthy queue crosses within a few reps, a real regression has no
     path past the floor) — the batch claim divides the shared
     copy-and-CAS work per pop by ~B, which is exactly the regime where
     that work dominated.  The T = 16 leg runs 8k ops/thread rather than
     the sweep's 2k: the harness times domain spawn/join inside the
     measured window, and at 2k ops the 16-domain spawn on a small CI
     box dominates the figure — the gate would measure the OS, not the
     queue. *)
let batch_spec = tuned_spec ^ ":dbuf=8"
let batch_real_floor_t8 = 37_200.0
let batch_real_floor_t16 = 24_000.0
let batch_reps = 5
let batch_reps16 = 10

let real_batch_section () =
  let module T = Klsm_harness.Throughput.Make (Real) in
  let module R = Klsm_harness.Registry.Make (Real) in
  let parse s =
    match R.parse_spec s with Ok s -> s | Error m -> failwith m
  in
  let batched = parse batch_spec and control = parse tuned_spec in
  let config ~ops t =
    {
      T.default_config with
      num_threads = t;
      prefill = 20_000;
      ops_per_thread = ops;
      seed = 42;
    }
  in
  let sample ~ops t spec =
    Gc.compact ();
    let r = T.run (config ~ops t) spec in
    r.T.throughput_per_thread
  in
  let sample8 = sample ~ops:4_000 8 and sample16 = sample ~ops:8_000 16 in
  let control_s = Array.make batch_reps 0.0
  and batched_s = Array.make batch_reps 0.0 in
  for i = 0 to batch_reps - 1 do
    control_s.(i) <- sample8 control;
    batched_s.(i) <- sample8 batched
  done;
  let control8 = Stats.median control_s
  and batched8 = Stats.median batched_s in
  Printf.printf
    "perf-check real batch: T=8 %.0f ops/thread/s median-of-%d (%s) vs \
     control %.0f (floor %.0f)\n%!"
    batched8 batch_reps batch_spec control8 batch_real_floor_t8;
  if batched8 < batch_real_floor_t8 then begin
    Printf.eprintf
      "perf-check FAILED: batched T=8 throughput %.0f ops/thread/s under \
       the %.0f floor\n%!"
      batched8 batch_real_floor_t8;
    exit 1
  end;
  let best16 = ref 0.0 and reps16 = ref 0 in
  (while !reps16 < batch_reps16 && !best16 < batch_real_floor_t16 do
     incr reps16;
     best16 := Float.max !best16 (sample16 batched)
   done);
  let best16 = !best16 and reps16 = !reps16 in
  Printf.printf
    "perf-check real batch: T=16 %.0f ops/thread/s in %d rep(s) (floor \
     %.0f)\n%!"
    best16 reps16 batch_real_floor_t16;
  if best16 < batch_real_floor_t16 then begin
    Printf.eprintf
      "perf-check FAILED: batched T=16 throughput %.0f ops/thread/s under \
       the %.0f floor\n%!"
      best16 batch_real_floor_t16;
    exit 1
  end;
  Report.Obj
    [
      ("backend", Report.String "real");
      ("impl", Report.String batch_spec);
      ("control_impl", Report.String tuned_spec);
      ("prefill", Report.Int 20_000);
      ("t8_ops_per_thread", Report.Int 4_000);
      ("t16_ops_per_thread", Report.Int 8_000);
      ("reps", Report.Int batch_reps);
      ("t8_ops_per_thread_per_sec_median", Report.Float batched8);
      ("t8_control_ops_per_thread_per_sec_median", Report.Float control8);
      ("t8_floor_ops_per_thread_per_sec", Report.Float batch_real_floor_t8);
      ("t16_ops_per_thread_per_sec_best", Report.Float best16);
      ("t16_reps", Report.Int reps16);
      ("t16_floor_ops_per_thread_per_sec", Report.Float batch_real_floor_t16);
    ]

(* The fiber-runtime gate (lib/sched effects runtime; DESIGN.md section
   16): the closed-loop driver on the tuned sharded spec, with every task
   exploded into a [1 + fiber_fanout]-fiber tree, must push 100k+ fibers
   through 8 Real domains at >= [fiber_floor_per_thread] fibers/thread/s —
   the same absolute bar as the raw-queue tuned gate above, so multiplexing
   cheap effect-handler fibers over the k-LSM may not cost throughput
   against plain task bodies.  Same sampling discipline as the tuned gate:
   up to [fiber_reps] compaction-normalized reps, pass on the first one
   over the floor.  Every rep also re-asserts the scheduler's conservation
   story at this scale — lost = double = fiber_lost = 0 (per-task lease
   exactly-once AND per-fiber exactly-once; DESIGN.md sections 13/16).
   The steal success rate of the best rep and a thread sweep land in
   BENCH_throughput.json for the record. *)
let fiber_floor_per_thread = 33_400.0
let fiber_reps = 10
let fiber_workers = 8
let fiber_fanout = 7
let fiber_roots = 1_563 (* 8 * 1_563 * (1 + 7) = 100_032 fibers *)

let real_fibers_section () =
  let module CL = Klsm_sched.Closed_loop.Make (Real) in
  let module M = Klsm_sched.Metrics in
  let spec =
    match CL.Registry.parse_spec tuned_spec with
    | Ok s -> s
    | Error m -> failwith m
  in
  let config =
    {
      CL.default_config with
      num_workers = fiber_workers;
      roots_per_worker = fiber_roots;
      fiber_fanout;
      seed = 42;
    }
  in
  let fibers_expected = fiber_workers * fiber_roots * (1 + fiber_fanout) in
  assert (fibers_expected >= 100_000);
  let run_once cfg =
    Gc.compact ();
    let r = CL.run cfg spec in
    if r.CL.lost > 0 || r.CL.double > 0 || r.CL.fiber_lost > 0 || r.CL.gave_up
    then begin
      Printf.eprintf
        "perf-check FAILED: fiber run broke conservation (lost=%d double=%d \
         fiber_lost=%d gave_up=%b)\n%!"
        r.CL.lost r.CL.double r.CL.fiber_lost r.CL.gave_up;
      exit 1
    end;
    r
  in
  let per_thread (r : CL.result) =
    float_of_int r.CL.metrics.M.fibers_completed
    /. r.CL.makespan
    /. float_of_int r.CL.config.CL.num_workers
  in
  let best = ref 0.0 and reps_used = ref 0 in
  let steals = ref 0 and steal_attempts = ref 0 in
  (while !reps_used < fiber_reps && !best < fiber_floor_per_thread do
     let r = run_once config in
     incr reps_used;
     if r.CL.metrics.M.fibers <> fibers_expected then begin
       Printf.eprintf "perf-check FAILED: fiber run created %d fibers, not %d\n%!"
         r.CL.metrics.M.fibers fibers_expected;
       exit 1
     end;
     let per = per_thread r in
     if per > !best then begin
       best := per;
       steals := r.CL.metrics.M.steals;
       steal_attempts := r.CL.metrics.M.steal_attempts
     end
   done);
  let best = !best and reps = !reps_used in
  let steal_rate =
    if !steal_attempts > 0 then
      float_of_int !steals /. float_of_int !steal_attempts
    else 0.0
  in
  Printf.printf
    "perf-check real fibers: %d fibers, %.0f fibers/thread/s in %d rep(s) \
     (%s, %d domains; floor %.0f; steal hit rate %.2f)\n%!"
    fibers_expected best reps tuned_spec fiber_workers fiber_floor_per_thread
    steal_rate;
  if best < fiber_floor_per_thread then begin
    Printf.eprintf
      "perf-check FAILED: fiber runtime %.0f fibers/thread/s under the %.0f \
       floor\n%!"
      best fiber_floor_per_thread;
    exit 1
  end;
  (* Fiber thread sweep: constant per-worker load (one rep per point, for
     the record, not a gate). *)
  let sweep_points =
    List.map
      (fun t ->
        let cfg =
          {
            config with
            CL.num_workers = t;
            roots_per_worker = 400;
            seed = 42;
          }
        in
        let r = run_once cfg in
        (t, r.CL.metrics.M.fibers, per_thread r))
      [ 1; 2; 4; 8 ]
  in
  List.iter
    (fun (t, fibers, per) ->
      Printf.printf
        "perf-check real fibers sweep: T=%-2d %7d fibers %.0f \
         fibers/thread/s\n%!"
        t fibers per)
    sweep_points;
  Report.Obj
    [
      ("backend", Report.String "real");
      ("impl", Report.String tuned_spec);
      ("workers", Report.Int fiber_workers);
      ("fiber_fanout", Report.Int fiber_fanout);
      ("roots_per_worker", Report.Int fiber_roots);
      ("fibers", Report.Int fibers_expected);
      ("reps", Report.Int reps);
      ("fibers_per_thread_per_sec_best", Report.Float best);
      ("floor_fibers_per_thread_per_sec", Report.Float fiber_floor_per_thread);
      ("steal_attempts", Report.Int !steal_attempts);
      ("steals", Report.Int !steals);
      ("steal_success_rate", Report.Float steal_rate);
      ( "thread_sweep",
        Report.List
          (List.map
             (fun (t, fibers, per) ->
               Report.Obj
                 [
                   ("threads", Report.Int t);
                   ("fibers", Report.Int fibers);
                   ("fibers_per_thread_per_sec", Report.Float per);
                 ])
             sweep_points) );
    ]

(* Algorithmic flatness on the simulator (deterministic): per-thread
   throughput at T = 16 must hold >= 85% of T = 8 on the tuned spec.  The
   simulator charges contention through its MESI-style cost model, so a
   contention collapse past T = 8 (the failure mode striping exists to
   prevent) would show here as a sub-0.85 ratio regardless of host core
   count. *)
let sim_flatness_ratio = 0.85

let sim_scaling_section () =
  let module T = Klsm_harness.Throughput.Make (Sim) in
  let module R = Klsm_harness.Registry.Make (Sim) in
  let spec =
    match R.parse_spec tuned_spec with Ok s -> s | Error m -> failwith m
  in
  let run_at t =
    Sim.configure ~seed:42 ~cost:Klsm_backend.Cost_model.default ();
    let config =
      {
        T.default_config with
        num_threads = t;
        prefill = 2_000;
        ops_per_thread = 1_000;
        seed = 42;
      }
    in
    let r = T.run config spec in
    (r.T.throughput_per_thread, Sim.stats ())
  in
  let at8, st8 = run_at 8 in
  let at16, st16 = run_at 16 in
  let ratio = if at8 > 0.0 then at16 /. at8 else 0.0 in
  Printf.printf
    "perf-check sim scaling: per-thread T=16 / T=8 = %.2f (floor %.2f) on \
     %s; writes %d / %d, misses %d / %d\n%!"
    ratio sim_flatness_ratio tuned_spec st8.Sim.writes st16.Sim.writes
    st8.Sim.misses st16.Sim.misses;
  if ratio < sim_flatness_ratio then begin
    Printf.eprintf
      "perf-check FAILED: per-thread throughput fell to %.0f%% of T=8 at \
       T=16 — the striped queue stopped flattening the curve\n%!"
      (100.0 *. ratio);
    exit 1
  end;
  Report.Obj
    [
      ("backend", Report.String "sim");
      ("impl", Report.String tuned_spec);
      ("per_thread_t8", Report.Float at8);
      ("per_thread_t16", Report.Float at16);
      ("ratio", Report.Float ratio);
      ("ratio_floor", Report.Float sim_flatness_ratio);
      ("writes_t8", Report.Int st8.Sim.writes);
      ("writes_t16", Report.Int st16.Sim.writes);
      ("misses_t8", Report.Int st8.Sim.misses);
      ("misses_t16", Report.Int st16.Sim.misses);
    ]

let sim_tick_section (_, spec_text, measured, budget) =
  let module T = Klsm_harness.Throughput.Make (Sim) in
  let module R = Klsm_harness.Registry.Make (Sim) in
  Sim.configure ~seed:42 ~cost:Klsm_backend.Cost_model.default ();
  let spec =
    match R.parse_spec spec_text with Ok s -> s | Error m -> failwith m
  in
  let config =
    {
      T.default_config with
      num_threads = 4;
      prefill = 2_000;
      ops_per_thread = 2_000;
      seed = 42;
    }
  in
  let r = T.run config spec in
  let st = Sim.stats () in
  let ticks = st.Sim.ticks in
  let makespan = Sim.makespan () in
  let consolidations = counter_total r.T.stats "shared.consolidate" in
  let pivots = counter_total r.T.stats "shared.pivot_recompute" in
  let hint_skips = counter_total r.T.stats "stripe.hint_skip" in
  let memo_hits = counter_total r.T.stats "stripe.cache_hit" in
  let memo_misses = counter_total r.T.stats "stripe.cache_miss" in
  Printf.printf
    "perf-check sim %s: %d ticks (measured %d, budget %d), %d writes, %d \
     misses, %d consolidations, %d pivot recomputations, %d hint skips, \
     %d/%d stripe memo hits/misses, makespan %.3f, %.0f ops/s-sim\n%!"
    spec_text ticks measured budget st.Sim.writes st.Sim.misses
    consolidations pivots hint_skips memo_hits memo_misses makespan
    (r.T.throughput_per_thread *. 4.0);
  if ticks > budget then begin
    Printf.eprintf
      "perf-check FAILED: sim tick count %d of %s exceeds budget %d — the \
       merge/pivot or striped publish/race hot paths regressed\n%!"
      ticks spec_text budget;
    exit 1
  end;
  Report.Obj
    [
      ("backend", Report.String "sim");
      ("impl", Report.String (R.spec_name spec));
      ("threads", Report.Int config.T.num_threads);
      ( "shards",
        Report.Int
          (match R.klsm_cfg spec with Some c -> c.R.shards | None -> 1) );
      ("prefill", Report.Int config.T.prefill);
      ("ops_per_thread", Report.Int config.T.ops_per_thread);
      ("ticks", Report.Int ticks);
      ("tick_budget", Report.Int budget);
      ("writes", Report.Int st.Sim.writes);
      ("misses", Report.Int st.Sim.misses);
      ("consolidations", Report.Int consolidations);
      ("pivot_recomputes", Report.Int pivots);
      ("hint_skips", Report.Int hint_skips);
      ("stripe_cache_hits", Report.Int memo_hits);
      ("stripe_cache_misses", Report.Int memo_misses);
      ("makespan", Report.Float makespan);
    ]

let () =
  Obs.set_enabled true;
  let real = real_section () in
  let real_sharded = real_sharded_section () in
  let real_tuned = real_tuned_section () in
  let real_batch = real_batch_section () in
  let real_fibers = real_fibers_section () in
  let sim_ticks =
    List.map (fun ((key, _, _, _) as g) -> (key, sim_tick_section g)) sim_tick_gates
  in
  let sim_scaling = sim_scaling_section () in
  let path = "BENCH_throughput.json" in
  Report.write_json ~path
    (Report.Obj
       ([
          ("benchmark", Report.String "perf-check");
          ("metric", Report.String "ops_per_sec (real) / ticks (sim)");
          ("real", real);
          ("real_sharded", real_sharded);
          ("real_tuned", real_tuned);
          ("real_batch", real_batch);
          ("real_fibers", real_fibers);
        ]
       @ sim_ticks
       @ [ ("sim_scaling", sim_scaling) ]));
  Printf.printf "wrote %s\nperf-check OK\n%!" path
