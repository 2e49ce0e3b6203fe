(** The paper's synthetic throughput benchmark (§6, Figure 3): threads
    hammer a prefilled queue with a 50-50 mix of inserts (uniform random
    keys) and delete-mins; the reported metric is throughput {e per thread}
    per second, so a flat line is linear scaling.

    Deviations from the paper, both deliberate (DESIGN.md §1.4): runs are
    bounded by an operation count rather than 10 wall seconds (determinism
    — essential under the simulator), and the default prefill is scaled
    down (paper scale reachable through the CLI).

    {b Rank error} (ablation A1 in DESIGN.md).  The paper proves
    rho = T*k but reports quality only indirectly (the SSSP "+iterations"
    numbers).  Given an {!Oracle}, the same run also measures it: every
    key enters the oracle before its queue insert, and every key a delete
    returns is noted after the call, which yields its rank error — how
    many strictly smaller keys were still present.  The maximum must stay
    within rho + slack, and the mean beside the run's throughput shows
    where a configuration sits on the quality/throughput trade.  The
    oracle is sequential, so it needs the [Sim] backend (cooperative
    threads on one domain); it touches no simulated atomic, so the run's
    schedule and throughput are those of the same run without it.

    With [batch = n > 1] a delete is a pull instead: up to [n] keys with
    one [try_delete_min_batch], the way the scheduler's workers pull
    tasks, while an insert still inserts one key — so the queue drains
    about [n] times faster than it fills, and the prefill must cover the
    run.  A pull's keys reach the oracle only when the call returns, so up
    to [T * n] keys other threads already took may still count as
    present: the slack is [T * n] instead of [T]. *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Registry = Registry.Make (B)
  module Xoshiro = Klsm_primitives.Xoshiro
  module Stats = Klsm_primitives.Stats

  type config = {
    num_threads : int;
    prefill : int;
    ops_per_thread : int;
    seed : int;
    workload : Workload.t;  (** key distribution; paper: uniform *)
    batch : int;
        (** keys per delete: 1 = [try_delete_min]; [n > 1] = one pull of
            up to [n] ([try_delete_min_batch]) *)
  }

  let default_config =
    {
      num_threads = 1;
      prefill = 100_000;
      ops_per_thread = 50_000;
      seed = 42;
      workload = Workload.Uniform (1 lsl 28);
      batch = 1;
    }

  type rank_error = {
    deletes : int;  (** keys noted: one per delete, up to [n] per pull *)
    mean_rank_error : float;
    p99_rank_error : float;
    max_rank_error : int;
  }

  type result = {
    spec : Registry.spec;
    config : config;
    total_ops : int;
    elapsed : float;  (** wall (real) or makespan (sim), seconds *)
    throughput_per_thread : float;
    failed_deletes : int;  (** deletes or pulls that returned nothing *)
    rank_error : rank_error option;  (** [Some] when run with an oracle *)
    stats : Klsm_obs.Obs.snapshot;
        (** internal counters accumulated over prefill + timed phase; empty
            unless observability was enabled (lib/obs) *)
  }

  let summarize errors =
    let errs = Array.of_list (List.rev_map float_of_int errors) in
    if Array.length errs = 0 then
      {
        deletes = 0;
        mean_rank_error = 0.;
        p99_rank_error = 0.;
        max_rank_error = 0;
      }
    else
      {
        deletes = Array.length errs;
        mean_rank_error = Stats.mean errs;
        p99_rank_error = Stats.percentile errs 99.;
        max_rank_error = int_of_float (Array.fold_left Float.max 0. errs);
      }

  (** One benchmark run: prefill (untimed), then the timed mixed phase.
      [oracle] (sized by the caller to the workload's key range) is kept
      in step with the queue and yields the run's rank errors. *)
  let run ?oracle config spec =
    let t = config.num_threads in
    if t < 1 then invalid_arg "Throughput.run";
    let instance = Registry.make ~seed:config.seed ~num_threads:t spec in
    let handles = Array.make t None in
    (* Oracle first: an item becomes visible (and deletable by other
       fibers) part-way through the queue insert, so the oracle must
       already know it.  The oracle thus over-approximates the contents by
       at most T in-flight items — a <= T skew on measured rank errors. *)
    let insert h key =
      (match oracle with Some o -> Oracle.insert o key | None -> ());
      h.Registry.insert key 0
    in
    let errors = ref [] in
    let note (key, _) =
      match oracle with
      | Some o -> errors := Oracle.delete o key :: !errors
      | None -> ()
    in
    (* Prefill phase: split across all threads so per-thread structures
       (DLSM, Multi-Queue slots) start realistically populated. *)
    B.parallel_run ~num_threads:t (fun tid ->
        let h = instance.register tid in
        handles.(tid) <- Some h;
        let rng = Xoshiro.create ~seed:(config.seed + (7919 * tid)) in
        let next_key = Workload.generator config.workload rng in
        let share =
          (config.prefill / t) + if tid < config.prefill mod t then 1 else 0
        in
        for _ = 1 to share do
          insert h (next_key ())
        done);
    (* Timed phase. *)
    let failed = Array.make t 0 in
    let t0 = B.time () in
    B.parallel_run ~num_threads:t (fun tid ->
        let h = match handles.(tid) with Some h -> h | None -> assert false in
        let rng = Xoshiro.create ~seed:(config.seed + 13 + (104729 * tid)) in
        let next_key = Workload.generator config.workload rng in
        for _ = 1 to config.ops_per_thread do
          (* The paper's 50-50 mix: a fair coin per operation. *)
          if Xoshiro.float rng < 0.5 then insert h (next_key ())
          else if config.batch <= 1 then begin
            match h.Registry.try_delete_min () with
            | Some kv -> note kv
            | None -> failed.(tid) <- failed.(tid) + 1
          end
          else begin
            match h.Registry.try_delete_min_batch config.batch with
            | [] -> failed.(tid) <- failed.(tid) + 1
            | kvs -> List.iter note kvs
          end
        done);
    let elapsed = B.time () -. t0 in
    let total_ops = t * config.ops_per_thread in
    {
      spec;
      config;
      total_ops;
      elapsed;
      throughput_per_thread =
        (if elapsed > 0. then
           float_of_int total_ops /. elapsed /. float_of_int t
         else Float.nan);
      failed_deletes = Array.fold_left ( + ) 0 failed;
      rank_error = Option.map (fun _ -> summarize !errors) oracle;
      stats = instance.stats ();
    }

  (** Repeat [reps] times with distinct seeds; returns per-rep
      throughputs (for confidence intervals à la the paper's 30 reps). *)
  let run_reps ?(reps = 3) config spec =
    Array.init reps (fun r ->
        (run { config with seed = config.seed + (1009 * r) } spec)
          .throughput_per_thread)
end
