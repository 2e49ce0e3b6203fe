(** The workload table, the trial scheduler, and the reduction of a run
    to the metrics [BENCHMARK.json] names. *)

open Common
module J = Klsm_harness.Report

type workload = {
  name : string;
  start : params -> acc -> index:int -> traced:bool -> float;
      (** one-off set-up; returns the trial, which returns the seconds it measured *)
  min_trials : int;
  twin : seed:int -> scratch:string -> scale:float -> (Twin.result, string) result;
      (** the simulator twin; [Error] on a wrong answer *)
}

let mix_twin ?(reps = 1) cfg ~seed ~scratch ~scale =
  Twin.pooled ~seed ~reps (fun ~seed -> Twin.run_mix ~seed ~scratch ~scale cfg)

let workloads =
  [
    {
      name = "uniform-mix";
      start = Mix.trial Mix.uniform;
      min_trials = 4;
      twin =
        mix_twin
          {
            Twin.spec = "klsm:256";
            store = false;
            k = 256;
            keys = Workload.Uniform (1 lsl 20);
            universe = 1 lsl 20;
            prefill = 20_000;
            ops_per_thread = 30_000;
          };
    };
    {
      name = "sssp-grid";
      start = (fun p acc -> Sssp_grid.trial (Sssp_grid.init p acc) p acc);
      min_trials = 6;
      twin =
        (fun ~seed ~scratch:_ ~scale ->
          Twin.pooled ~seed ~reps:8 (fun ~seed ->
              Twin.run_sssp ~seed ~scale ~side:96 ~max_weight:100 ~k:Sssp_grid.k));
    };
    {
      name = "sched-fibers";
      start = Sched_fibers.trial;
      min_trials = 4;
      twin =
        (fun ~seed ~scratch:_ ~scale ->
          Twin.pooled ~seed ~reps:2 (fun ~seed -> Twin.run_sched ~seed ~scale ~roots:300));
    };
    {
      name = "spill-descending";
      start = Mix.trial Mix.spill;
      min_trials = 4;
      twin =
        mix_twin ~reps:4
          {
            Twin.spec = Printf.sprintf "klsm:4096+spill:%d" Mix.spill_bytes;
            store = true;
            k = 4096;
            keys = Workload.Descending (1 lsl 20);
            universe = 1 lsl 20;
            prefill = 20_000;
            ops_per_thread = 30_000;
          };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type value = { v : float; n : int; q1 : float; q3 : float }

type result = {
  workload : string;
  e2e : (string * value) list;  (** empty when traced *)
  real : (string * value) list;
      (** the wall-clock numbers a shared host moves too far to bound:
          per-layer metrics [real.*], reported by every run *)
  layers : (string * float) list;  (** empty unless traced *)
  attempted : int;
  failed : int;
  violations : string list;
  trials : int;
  samples : (string * int) list;  (** timed calls and requests behind the percentiles *)
}

let summarize xs =
  let a = Array.of_list xs in
  if a = [||] then { v = nan; n = 0; q1 = nan; q3 = nan }
  else
    { v = Stats.median a; n = Array.length a; q1 = Stats.percentile a 25.; q3 = Stats.percentile a 75. }

let exact v = { v; n = 1; q1 = v; q3 = v }
let ratio a b = if b > 0. then a /. b else 0.

(** Every end-to-end metric the run measured: the median of the set-ups,
    and the twin's. *)
let e2e_values acc (twin : Twin.result option) =
  let sim f = exact (match twin with Some tw -> f tw | None -> nan) in
  let pct pick p = sim (fun tw -> Hist.percentile (pick tw) p) in
  let ins tw = tw.Twin.insert and del tw = tw.Twin.delete in
  [
    ("setup_s", summarize (values acc "setup_s"));
    ("sim8_ops_per_s", sim (fun tw -> tw.Twin.ops_per_s));
    ("sim8_insert_p50_ns", pct ins 50.);
    ("sim8_insert_p99_ns", pct ins 99.);
    ("sim8_delete_p50_ns", pct del 50.);
    ("sim8_delete_p99_ns", pct del 99.);
    ("rank_err_mean", sim (fun tw -> tw.Twin.rank_err_mean));
  ]

let layer_values acc =
  let s = sum acc in
  let kops = s "ops" /. 1e3 in
  let ktasks = s "tasks" /. 1e3 in
  let span name = ratio (s (name ^ "#ns")) (s (name ^ "#count")) in
  let med traced =
    match values ~traced acc "real.ops_per_s" with [] -> 0. | l -> Stats.median (Array.of_list l)
  in
  let untraced = med false and traced = med true in
  [
    ("block.pool_hit_rate", ratio (s "pool.hit") (s "pool.hit" +. s "pool.miss"));
    ("shared.cas_per_kop", ratio (s "shared.cas_attempt") kops);
    ("shared.cas_fail_ratio", ratio (s "shared.cas_fail") (s "shared.cas_attempt"));
    ("shared.insert_ns", span "shared.insert");
    ("shared.find_min_ns", span "shared.find_min");
    ("shared.batch_claim_per_ktask", ratio (s "shared.batch_claim") ktasks);
    ("dist.spill_per_kop", ratio (s "dist.spill") kops);
    ("dist.items_per_spill", ratio (s "dist.spill_items") (s "dist.spill"));
    ( "klsm.local_delete_share",
      ratio (s "klsm.delete_local") (s "klsm.delete_local" +. s "klsm.delete_shared") );
    ("klsm.spy_success_ratio", ratio (s "klsm.spy_success") (s "klsm.spy_attempt"));
    ("klsm.take_race_per_kop", ratio (s "klsm.take_race") kops);
    ("klsm.empty_delete_per_kop", ratio (s "klsm.delete_empty") kops);
    ("stripe.cas_fail_ratio", ratio (s "stripe.cas_fail") (s "shared.cas_attempt"));
    ( "stripe.hint_skip_share",
      ratio (s "stripe.hint_skip")
        (s "stripe.hint_skip" +. s "stripe.cache_hit" +. s "stripe.cache_miss") );
    ("sched.steal_success_ratio", ratio (s "steal.success") (s "steal.attempt"));
    ("sched.suspends_per_task", ratio (s "fiber.suspend") (s "tasks"));
    ("sched.flushes_per_task", ratio (s "sched.flush") (s "tasks"));
    ("sched.empty_pop_share", ratio (s "sched.empty_pop") (s "steal.fallback"));
    ("sched.late_root_share", ratio (s "sched.late") (s "sched.roots"));
    ("sssp.extra_iter_share", ratio (s "sssp.extra") (s "sssp.settled"));
    ("sssp.stale_share", ratio (s "sssp.stale") (s "sssp.stale" +. s "sssp.iterations"));
    ("store.spills_per_kop", ratio (s "store.spill") kops);
    ("gc.minor_words_per_op", ratio (s "gc.minor_words") (s "gc.ops"));
    ("gc.major_per_mop", ratio (s "gc.majors") (s "gc.ops" /. 1e6));
    ("obs.overhead", if untraced > 0. then 1. -. (traced /. untraced) else 0.);
  ]

(** [pick names values missing]: the values of [names], in that order;
    [missing] (a [nan]) for a name the run did not measure, which makes
    the result incorrect. *)
let pick names values missing =
  List.map (fun name -> (name, Option.value ~default:missing (List.assoc_opt name values))) names

(** The [real.*] metrics: the median over untraced trials, 0 for one the
    workload does not measure. *)
let real_values acc =
  List.map
    (fun n -> (n, match values acc n with [] -> exact 0. | xs -> summarize xs))
    [
      "real.ops_per_s";
      "real.wall_ops_per_s";
      "real.insert_p50_ns";
      "real.insert_p99_ns";
      "real.delete_p50_ns";
      "real.delete_p99_ns";
      "real.sojourn_p50_us";
      "real.sojourn_p99_us";
    ]

(** Run [selected] workloads, their trials rotating round-robin so that a
    slow spell of a shared host hits every workload, each until it has
    measured [p.seconds] and run its minimum number of trials.  With
    [trace], every other trial runs with Obs enabled, and the per-layer
    kernels run at the end.  The result holds the metrics [spec] names. *)
let run ?(log = prerr_endline) (spec : Spec.t) p ~trace selected =
  size_minor_heaps ();
  let states =
    List.map
      (fun w ->
        let acc = create_acc () in
        (w, acc, w.start p acc))
      selected
  in
  let pending (w, (acc : acc), _) = acc.measured < p.seconds || acc.trials < w.min_trials in
  let rec loop active =
    if active <> [] then begin
      List.iter
        (fun (w, (acc : acc), trial) ->
          let index = acc.trials in
          let traced = trace && index land 1 = 1 in
          let secs = trial ~index ~traced in
          acc.measured <- acc.measured +. secs;
          acc.trials <- acc.trials + 1;
          if acc.trials mod 5 = 0 then
            log (Printf.sprintf "%s: %d trials, %.1f s measured" w.name acc.trials acc.measured))
        active;
      loop (List.filter pending active)
    end
  in
  loop states;
  let kernels = if trace then Kernels.all p else [] in
  let names l = List.map (fun (m : Spec.metric) -> m.name) l in
  List.map
    (fun (w, (acc : acc), _) ->
      let e2e =
        if trace then []
        else begin
          let twin =
            match w.twin ~seed:p.seed ~scratch:p.scratch ~scale:p.scale with
            | Ok tw ->
                if tw.Twin.rank_err_max > tw.Twin.rho then
                  violation acc "%s twin: max rank error %d exceeds rho + T = %d" w.name
                    tw.Twin.rank_err_max tw.Twin.rho;
                Some tw
            | Error e ->
                violation acc "%s twin: %s" w.name e;
                None
          in
          pick (names spec.e2e) (e2e_values acc twin) (exact nan)
        end
      in
      let real = real_values acc in
      let layers =
        if trace then
          pick (names spec.layers)
            (List.map (fun (n, v) -> (n, v.v)) real @ kernels @ layer_values acc)
            nan
        else []
      in
      {
        workload = w.name;
        e2e;
        real;
        layers;
        attempted = acc.attempted;
        failed = acc.failed;
        violations = List.rev acc.violations;
        trials = acc.trials;
        samples =
          List.map
            (fun k -> (k, int_of_float (sum acc (k ^ ".samples"))))
            [ "insert"; "delete"; "sojourn" ];
      })
    states

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let finite r =
  List.for_all (fun (_, v) -> Float.is_finite v.v) r.e2e
  && List.for_all (fun (_, v) -> Float.is_finite v) r.layers

let correct r = r.violations = [] && r.failed = 0 && finite r

(** The one-line result: every end-to-end metric (untraced) or every
    per-layer metric (traced).  Several workloads are keyed
    ["workload:metric"]. *)
let result_json spec results =
  let several = List.length results > 1 in
  let key r name = if several then r.workload ^ ":" ^ name else name in
  let metric r name v =
    (key r name, J.Obj [ ("value", J.Float v); ("unit", J.String (Spec.unit_of spec name)) ])
  in
  J.Obj
    [
      ("correct", J.Bool (List.for_all correct results));
      ("attempted", J.Int (List.fold_left (fun a r -> a + r.attempted) 0 results));
      ("failed", J.Int (List.fold_left (fun a r -> a + r.failed) 0 results));
      ( "metrics",
        J.Obj
          (List.concat_map
             (fun r ->
               List.map (fun (n, v) -> metric r n v.v) r.e2e
               @ List.map (fun (n, v) -> metric r n v) r.layers)
             results) );
    ]

(** The file [--json] writes and [--compare] reads: everything, with
    sample counts and quartiles. *)
let file_json ~seed ~seconds ~trace results =
  let values l =
    J.Obj
      (List.map
         (fun (n, v) ->
           ( n,
             J.Obj
               [ ("value", J.Float v.v); ("n", J.Int v.n); ("q1", J.Float v.q1); ("q3", J.Float v.q3) ]
           ))
         l)
  in
  J.Obj
    [
      ("seed", J.Int seed);
      ("seconds", J.Float seconds);
      ("trace", J.Bool trace);
      ( "workloads",
        J.Obj
          (List.map
             (fun r ->
               ( r.workload,
                 J.Obj
                   [
                     ("end_to_end", values r.e2e);
                     ("real", values r.real);
                     ("per_layer", J.Obj (List.map (fun (n, v) -> (n, J.Float v)) r.layers));
                     ("attempted", J.Int r.attempted);
                     ("failed", J.Int r.failed);
                     ("trials", J.Int r.trials);
                     ("violations", J.List (List.map (fun s -> J.String s) r.violations));
                   ] ))
             results) );
    ]

let print_lines spec oc results =
  List.iter
    (fun r ->
      List.iter
        (fun (n, v) ->
          Printf.fprintf oc "%s %s %.6g %s n=%d q1=%.6g q3=%.6g\n" r.workload n v.v
            (Spec.unit_of spec n) v.n v.q1 v.q3)
        (r.e2e @ r.real);
      List.iter
        (fun (n, v) ->
          if not (String.starts_with ~prefix:"real." n) then
            Printf.fprintf oc "%s %s %.6g %s\n" r.workload n v (Spec.unit_of spec n))
        r.layers;
      Printf.fprintf oc "%s trials=%d %s attempted=%d failed=%d\n" r.workload r.trials
        (String.concat " " (List.map (fun (k, n) -> Printf.sprintf "%s_samples=%d" k n) r.samples))
        r.attempted r.failed;
      List.iter (fun v -> Printf.fprintf oc "%s VIOLATION %s\n" r.workload v) r.violations)
    results
