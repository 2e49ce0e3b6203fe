(** The paper's synthetic throughput benchmark (§6, Figure 3): threads
    hammer a prefilled queue with a 50-50 mix of inserts (uniform random
    keys) and delete-mins; the reported metric is throughput {e per thread}
    per second, so a flat line is linear scaling.

    Deviations from the paper, both deliberate (DESIGN.md §1.4): runs are
    bounded by an operation count rather than 10 wall seconds (determinism
    — essential under the simulator), and the default prefill is scaled
    down (paper scale reachable through the CLI). *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Registry = Registry.Make (B)
  module Xoshiro = Klsm_primitives.Xoshiro

  type config = {
    num_threads : int;
    prefill : int;
    ops_per_thread : int;
    seed : int;
    workload : Workload.t;  (** key distribution; paper: uniform *)
  }

  let default_config =
    {
      num_threads = 1;
      prefill = 100_000;
      ops_per_thread = 50_000;
      seed = 42;
      workload = Workload.Uniform (1 lsl 28);
    }

  type result = {
    spec : Registry.spec;
    config : config;
    total_ops : int;
    elapsed : float;  (** wall (real) or makespan (sim), seconds *)
    throughput_per_thread : float;
    failed_deletes : int;  (** delete-mins that returned [None] *)
    stats : Klsm_obs.Obs.snapshot;
        (** internal counters accumulated over prefill + timed phase; empty
            unless observability was enabled (lib/obs) *)
  }

  (** One benchmark run: prefill (untimed), then the timed mixed phase. *)
  let run config spec =
    let t = config.num_threads in
    if t < 1 then invalid_arg "Throughput.run";
    let instance = Registry.make ~seed:config.seed ~num_threads:t spec in
    let handles = Array.make t None in
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
          h.Registry.insert (next_key ()) 0
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
          if Xoshiro.float rng < 0.5 then
            h.Registry.insert (next_key ()) 0
          else begin
            match h.Registry.try_delete_min () with
            | Some _ -> ()
            | None -> failed.(tid) <- failed.(tid) + 1
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
      stats = instance.stats ();
    }

  (** Repeat [reps] times with distinct seeds; returns per-rep
      throughputs (for confidence intervals à la the paper's 30 reps). *)
  let run_reps ?(reps = 3) config spec =
    Array.init reps (fun r ->
        (run { config with seed = config.seed + (1009 * r) } spec)
          .throughput_per_thread)
end
