(* The `make perf-check` gate (wired into `make check`).

   One table of rows and one sampler.  A row names a workload on a
   backend, a spec and a thread count, one metric of the workload's
   samples, and a bound on that metric's median.  The workload is either
   the paper's Figure 3 insert/delete-min mix through [Throughput.run] or
   the fiber closed loop through [Closed_loop.run].  The bound is a floor
   the median must reach, a budget it must stay within, or a ratio it must
   reach against another row's median of the same metric; a row without
   one is recorded, not gated.  Only the rows that read lib/obs counters
   run traced, and the row on the other side of a traced row's ratio:
   every other Real floor is gated on an untraced run, the way the queue
   runs outside this gate.  Tracing a Sim row moves none of its ticks,
   writes or misses (lib/obs never touches the backend).

   The sampler runs every Real row [real_reps] times in interleaved
   rounds, reversing the row order on alternate rounds, with a major-GC
   compaction before each sample: heap growth and machine-load drift
   across the run then fall on every row alike instead of on whichever
   row runs last.  Every Sim row runs once per seed of [sim_seeds], the
   seed of both the simulator and the workload.  The simulator is
   deterministic, so its ticks are an assertable proxy for hot-path work,
   but one seed is one schedule, and a change that moves only the timing
   of the code moves the schedule: on klsm:256 one seed's ticks range
   over ±12% of their median, while the median over the set moves about
   1%.  Every row prints its median,
   quartiles and Stats.summarize's mean ± ci95, and some rows the medians
   of further values: the Sim rows their simulated writes and coherence
   misses, the tick rows their find-min counters, and the traced fiber row
   its steals and refused admissions.  A row may gate further values on
   their medians too, each on a line of its own: the tick rows gate their
   writes, since ticks count work, not shared-memory traffic, and the two
   can move in opposite directions.  Everything lands in
   BENCH_throughput.json; the program exits 1 after writing it if any
   gate failed. *)

module Sim = Klsm_backend.Sim
module Report = Klsm_harness.Report
module Obs = Klsm_obs.Obs
module Stats = Klsm_primitives.Stats

type backend = Real | Sim

type shape =
  | Mix of { prefill : int; ops : int }  (** [ops] per thread *)
  | Fibers of { roots : int; fanout : int }
      (** [roots] per worker, each a [1 + fanout]-fiber tree *)

type bound =
  | Floor of float
  | Budget of float
  | Ratio of string * float  (** at least this share of the named row *)
  | Recorded

type row = {
  key : string;  (** its object in BENCH_throughput.json *)
  backend : backend;
  spec : string;
  threads : int;
  shape : shape;
  metric : string;
  bound : bound;
  also : (string * bound) list;  (** further values gated on their medians *)
  show : string list;  (** further values whose medians are reported *)
  traced : bool;  (** lib/obs is enabled while the row runs *)
}

let row ?(backend = Real) ?(also = []) ?(show = []) ?(traced = backend = Sim)
    key spec ~threads shape metric bound =
  { key; backend; spec; threads; shape; metric; bound; also; show; traced }

let mix prefill ops = Mix { prefill; ops }

(* The tuned spec (docs/TUNING.md): k = 1024 gives each of the S = 4
   stripes and each local LSM a ceil(k/S) = 256 budget, and the stripes
   split the publish CAS. *)
let tuned = "klsm-sharded:1024:4"

let sweep_threads = [ 1; 2; 4; 8; 16 ]

(* What the tick rows report beside their ticks: the run's shared-memory
   traffic, its consolidations and pivot recomputations (a find-min that
   falls back to consolidating on every delete shows here), and the
   striped race's lookups settled by the stripes' bounds and stripe find-mins
   answered from the memo or selected afresh. *)
let find_min_work =
  [
    "writes"; "misses"; "shared.consolidate"; "shared.pivot_recompute";
    "stripe.hint_skip"; "stripe.cache_hit"; "stripe.cache_miss"; "ops_per_s";
  ]

let table =
  [
    (* klsm:256 at T = 8: the block pool must hit (lib/obs [pool.*]);
       its ops/s are also the denominator of the striping ratio. *)
    row "real" "klsm:256" ~threads:8 (mix 50_000 25_000) "pool.hit" (Floor 1.)
      ~traced:true ~show:[ "ops_per_s"; "pool.miss"; "pool.bytes_avoided" ];
    (* Striping must not cost throughput: S = 4 within 5% of S = 1, both
       traced. *)
    row "real_sharded" "klsm-sharded:256:4" ~threads:8 (mix 50_000 25_000)
      "ops_per_s" (Ratio ("real", 0.95)) ~traced:true;
    (* The tuned spec must hold klsm-sharded:256:4's first Real T = 8
       figure (EXPERIMENTS.md, "Contention striping"). *)
    row "real_tuned" tuned ~threads:8 (mix 50_000 25_000) "per_thread"
      (Floor 33_400.);
    (* The fiber runtime (DESIGN.md §16): 8 workers * 1,563 roots * (1 + 7)
       = 100,032 fibers per sample on 8 domains, at the tuned floor, so
       multiplexing effect-handler fibers over the k-LSM may not cost
       throughput against plain task bodies.  Every sample also asserts
       conservation ([fibers_sample]).  Besides its steals the row shows
       [sched.reject], the refused admissions of the worker loop: it is
       the gated row that runs that loop on real domains. *)
    row "real_fibers" tuned ~threads:8
      (Fibers { roots = 1_563; fanout = 7 })
      "per_thread" (Floor 33_400.) ~traced:true
      ~show:[ "steal.attempt"; "steal.success"; "sched.reject" ];
    (* Sim tick budgets on a fixed merge/pivot workload, each 2.5% over
       the median the row read over [sim_seeds] when it was set: klsm:256
       101,647 ticks, klsm-sharded:256:4 68,070.  Under 20 schedule-only
       perturbations (the simulator's seed moved, the workload's kept)
       neither median crossed its budget, and both crossed it under every
       one of them once the merge path charged 5% more ticks
       (EXPERIMENTS.md, "The min bound lives in the array").  Their write
       budgets are 0.1% over the medians the rows read when they were set,
       8,052 and 8,088: the smallest headroom that 20 such perturbations
       never crossed (their medians ranged 8,045-8,052 and 8,083-8,095),
       and one [filled] store per built block adds about 4,000 writes
       (EXPERIMENTS.md, "No filled store on a built block"). *)
    row "sim" "klsm:256" ~backend:Sim ~threads:4 (mix 2_000 2_000) "ticks"
      (Budget 104_200.) ~also:[ ("writes", Budget 8_061.) ]
      ~show:find_min_work;
    row "sim_sharded" "klsm-sharded:256:4" ~backend:Sim ~threads:4
      (mix 2_000 2_000) "ticks" (Budget 69_800.)
      ~also:[ ("writes", Budget 8_097.) ]
      ~show:find_min_work;
    (* Flatness on the simulator: per-thread throughput at T = 16 must
       hold 85% of T = 8.  The cost model charges CAS contention and cache
       traffic but not timeslices, so this isolates the algorithmic
       scalability that Real wall clock on an oversubscribed host cannot. *)
    row "sim_scaling_t8" tuned ~backend:Sim ~threads:8 (mix 2_000 1_000)
      "per_thread" Recorded ~show:[ "writes"; "misses" ];
    row "sim_scaling" tuned ~backend:Sim ~threads:16 (mix 2_000 1_000)
      "per_thread" (Ratio ("sim_scaling_t8", 0.85)) ~show:[ "writes"; "misses" ];
  ]
  (* The oversubscription sweeps, for the record. *)
  @ List.map
      (fun t ->
        row (Printf.sprintf "real_tuned_sweep_t%d" t) tuned ~threads:t
          (mix 20_000 (max 2_000 (32_000 / t)))
          "per_thread" Recorded)
      sweep_threads
  @ List.map
      (fun t ->
        row (Printf.sprintf "real_fibers_sweep_t%d" t) tuned ~threads:t
          (Fibers { roots = 400; fanout = 7 })
          "per_thread" Recorded)
      (List.filter (fun t -> t <= 8) sweep_threads)

let real_reps = 5
let sim_seeds = List.init 40 (fun i -> i + 1)

(* ---------------- sampling ---------------- *)

(* A sample is every value a run produced, by name: [per_thread] and
   [ops_per_s], every Obs counter that fired, and on Sim the run's
   [ticks], [writes] and [misses]. *)
type sample = (string * float) list

let counters (snap : Obs.snapshot) =
  List.map
    (fun (name, per) -> (name, float_of_int (Obs.counter_total per)))
    snap.Obs.counters

let rates row per_thread =
  [
    ("per_thread", per_thread);
    ("ops_per_s", per_thread *. float_of_int row.threads);
  ]

module Mix_on (B : Klsm_backend.Backend_intf.S) = struct
  module T = Klsm_harness.Throughput.Make (B)

  let sample row ~seed ~prefill ~ops =
    let spec =
      match T.Registry.parse_spec row.spec with
      | Ok s -> s
      | Error m -> failwith m
    in
    let config =
      {
        T.default_config with
        num_threads = row.threads;
        prefill;
        ops_per_thread = ops;
        seed;
      }
    in
    let r = T.run config spec in
    rates row r.T.throughput_per_thread @ counters r.T.stats
end

module Real_mix = Mix_on (Klsm_backend.Real)
module Sim_mix = Mix_on (Sim)
module CL = Klsm_sched.Closed_loop.Make (Klsm_backend.Real)

(* Besides its rate, every fiber sample re-asserts the scheduler's
   conservation at this scale: lost = double = fiber_lost = 0 (per-task
   lease and per-fiber exactly-once; DESIGN.md §13/§16), no give-up, and
   every fiber of every root created. *)
let fibers_sample row ~roots ~fanout =
  let spec =
    match CL.Registry.parse_spec row.spec with
    | Ok s -> s
    | Error m -> failwith m
  in
  let r =
    CL.run
      {
        CL.default_config with
        num_workers = row.threads;
        roots_per_worker = roots;
        fiber_fanout = fanout;
        seed = 42;
      }
      spec
  in
  let m = r.CL.metrics in
  let expected = row.threads * roots * (1 + fanout) in
  if
    r.CL.lost > 0 || r.CL.double > 0 || r.CL.fiber_lost > 0 || r.CL.gave_up
    || m.Klsm_sched.Metrics.fibers <> expected
  then begin
    Printf.eprintf
      "perf-check FAILED: %s broke conservation (lost=%d double=%d \
       fiber_lost=%d gave_up=%b fibers=%d of %d)\n%!"
      row.key r.CL.lost r.CL.double r.CL.fiber_lost r.CL.gave_up
      m.Klsm_sched.Metrics.fibers expected;
    exit 1
  end;
  rates row
    (float_of_int m.Klsm_sched.Metrics.fibers_completed
    /. r.CL.makespan /. float_of_int row.threads)
  @ counters r.CL.queue_stats @ counters r.CL.sched_stats

(* [seed] seeds a Sim row's run; every Real row runs at seed 42. *)
let sample ?(seed = 42) row : sample =
  Gc.compact ();
  Obs.set_enabled row.traced;
  match (row.backend, row.shape) with
  | Real, Mix { prefill; ops } -> Real_mix.sample row ~seed ~prefill ~ops
  | Real, Fibers { roots; fanout } -> fibers_sample row ~roots ~fanout
  | Sim, Mix { prefill; ops } ->
      Sim.configure ~seed ~cost:Klsm_backend.Cost_model.default ();
      let values = Sim_mix.sample row ~seed ~prefill ~ops in
      let st = Sim.stats () in
      ("ticks", float_of_int st.Sim.ticks)
      :: ("writes", float_of_int st.Sim.writes)
      :: ("misses", float_of_int st.Sim.misses)
      :: values
  | Sim, Fibers _ -> invalid_arg "perf-check: fiber rows run on Real"

(* Every Sim row once per seed of [sim_seeds], then [real_reps] rounds
   over the Real rows, alternately forwards and backwards. *)
let run_table rows =
  let samples = Hashtbl.create 32 in
  let take ?seed row =
    let prev = Option.value ~default:[] (Hashtbl.find_opt samples row.key) in
    Hashtbl.replace samples row.key (sample ?seed row :: prev)
  in
  let real, sim = List.partition (fun r -> r.backend = Real) rows in
  List.iter (fun row -> List.iter (fun seed -> take ~seed row) sim_seeds) sim;
  for round = 0 to real_reps - 1 do
    List.iter take (if round mod 2 = 0 then real else List.rev real)
  done;
  fun key -> Array.of_list (List.rev (Hashtbl.find samples key))

(* ---------------- decision ---------------- *)

(* One value of every sample; a counter that never fired reads 0. *)
let values (samples : sample array) name =
  Array.map (fun s -> Option.value ~default:0. (List.assoc_opt name s)) samples

let num v =
  if Float.abs v >= 100. || Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let backend_name = function Real -> "real" | Sim -> "sim"

let shape_json row =
  match row.shape with
  | Mix { prefill; ops } ->
      [ ("prefill", Report.Int prefill); ("ops_per_thread", Report.Int ops) ]
  | Fibers { roots; fanout } ->
      [
        ("roots_per_worker", Report.Int roots);
        ("fiber_fanout", Report.Int fanout);
        ("fibers", Report.Int (row.threads * roots * (1 + fanout)));
      ]

(* Judge the median of [row]'s [metric] against [bound]: whether it
   passes, the rule as printed, and the bound's JSON fields. *)
let judge samples_of row metric bound =
  let xs = values (samples_of row.key) metric in
  let median = Stats.median xs in
  match bound with
  | Floor f -> (median >= f, "floor " ^ num f, [ ("floor", Report.Float f) ])
  | Budget b ->
      (median <= b, "budget " ^ num b, [ ("budget", Report.Float b) ])
  | Ratio (other, r) ->
      let base = Stats.median (values (samples_of other) metric) in
      ( median >= r *. base,
        Printf.sprintf "ratio %.3f to %s, floor %.2f" (median /. base) other r,
        [
          ("ratio_to", Report.String other);
          ("ratio", Report.Float (median /. base));
          ("ratio_floor", Report.Float r);
        ] )
  | Recorded -> (true, "recorded", [])

let verdict bound pass =
  match bound with Recorded -> "" | _ -> if pass then ": ok" else ": FAILED"

(* Decide one row on its medians, print it, and return (pass, its JSON). *)
let decide samples_of row =
  let median_of key name = Stats.median (values (samples_of key) name) in
  let xs = values (samples_of row.key) row.metric in
  let s = Stats.summarize xs and median = Stats.median xs in
  let q1 = Stats.percentile xs 25. and q3 = Stats.percentile xs 75. in
  let pass, rule, bound = judge samples_of row row.metric row.bound in
  let shown = List.map (fun n -> (n, median_of row.key n)) row.show in
  Printf.printf
    "perf-check %s: %s %s T=%d %s median %s [q1 %s, q3 %s], mean %s ± %s \
     (n=%d); %s%s%s\n%!"
    row.key (backend_name row.backend) row.spec row.threads row.metric
    (num median) (num q1) (num q3) (num s.Stats.mean) (num s.Stats.ci95)
    s.Stats.n rule (verdict row.bound pass)
    (String.concat ""
       (List.map (fun (n, v) -> Printf.sprintf "; %s %s" n (num v)) shown));
  let fail metric median rule =
    Printf.eprintf "perf-check FAILED: %s %s median %s, %s\n%!" row.key metric
      (num median) rule
  in
  if not pass then fail row.metric median rule;
  let also =
    List.map
      (fun (metric, b) ->
        let ys = values (samples_of row.key) metric in
        let m = Stats.median ys in
        let p, r, fields = judge samples_of row metric b in
        Printf.printf "perf-check %s %s: median %s [q1 %s, q3 %s]; %s%s\n%!"
          row.key metric (num m)
          (num (Stats.percentile ys 25.))
          (num (Stats.percentile ys 75.))
          r (verdict b p);
        if not p then fail metric m r;
        ( p,
          ( metric ^ "_gate",
            Report.Obj
              ((("median", Report.Float m) :: fields)
              @ [ ("pass", Report.Bool p) ]) ) ))
      row.also
  in
  let pass = pass && List.for_all fst also in
  let floats a = Report.List (Array.to_list (Array.map (fun x -> Report.Float x) a)) in
  ( pass,
    ( row.key,
      Report.Obj
        ([
           ("backend", Report.String (backend_name row.backend));
           ("impl", Report.String row.spec);
           ("threads", Report.Int row.threads);
         ]
        @ shape_json row
        @ [
            ("metric", Report.String row.metric);
            ("samples", floats xs);
            ("n", Report.Int s.Stats.n);
            ("median", Report.Float median);
            ("q1", Report.Float q1);
            ("q3", Report.Float q3);
            ("mean", Report.Float s.Stats.mean);
            ("ci95", Report.Float s.Stats.ci95);
          ]
        @ bound
        @ (("pass", Report.Bool pass)
          :: List.map (fun (n, v) -> (n, Report.Float v)) shown)
        @ List.map snd also) ) )

let () =
  let samples_of = run_table table in
  let decided = List.map (decide samples_of) table in
  let path = "BENCH_throughput.json" in
  Report.write_json ~path
    (Report.Obj
       (("benchmark", Report.String "perf-check")
       :: ("real_reps", Report.Int real_reps)
       :: List.map snd decided));
  Printf.printf "wrote %s\n%!" path;
  if List.for_all fst decided then print_endline "perf-check OK" else exit 1
