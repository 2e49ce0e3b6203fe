(* A mini prioritized job server on the scheduling runtime (lib/sched).

   Run with:  dune exec examples/server.exe

   Models a request-processing server: front-end workers accept "requests"
   from an open-loop Poisson arrival stream, tag each with a deadline-style
   priority, and push it through the batched submitter into a shared
   k-LSM(256).  Request handlers may spawn follow-up work (a "logging"
   child task), exercising the task-spawns-task path.  Admission control
   bounds the in-flight population: a refused request waits at its
   front-end worker and is retried (backpressure), so an overloaded server
   slows its intake rather than grows an unbounded backlog.  Only a full
   task table sheds a request.  The run exits 1 on a lost or doubled job,
   on more jobs in flight than the capacity, and when admission never
   refused a request: the capacity is set below the run's unbounded peak
   so that backpressure shows.

   Runs on the deterministic simulator so the output is reproducible; flip
   [B] to [Klsm_backend.Real] for a live multi-domain run. *)

module B = Klsm_backend.Sim
module CL = Klsm_sched.Closed_loop.Make (B)
module Metrics = Klsm_sched.Metrics

let () =
  B.configure ~seed:7 ();
  let config =
    {
      CL.num_workers = 4;
      roots_per_worker = 500;
      (* ~requests/s per front-end worker, virtual time *)
      mode = CL.Open_poisson 300_000.0;
      service = CL.Exponential 48.0;
      (* deadlines cluster around a few hot values, like real traffic *)
      priorities =
        Klsm_harness.Workload.Clustered
          { clusters = 8; spread = 1024; range = 1 lsl 20 };
      fiber_fanout = 0;
      spawn_fanout = 1;
      (* each request spawns one follow-up task *)
      spawn_depth = 1;
      capacity = 24;
      (* Unbounded, this run peaks at 46 jobs in flight; 24 makes bursts
         meet refusals. *)
      batch = 8;
      pull = 1;
      urgency_margin = 4096;
      seed = 7;
      robust = CL.Worker.default_robust;
    }
  in
  let r = CL.run config (CL.Registry.Klsm 256) in
  let m = r.CL.metrics in
  Printf.printf "jobs completed      %d (roots %d + follow-ups %d)\n"
    r.CL.total_tasks m.Metrics.submitted m.Metrics.spawned;
  Printf.printf "makespan            %.2f ms (virtual)\n" (r.CL.makespan *. 1e3);
  Printf.printf "throughput          %.0f jobs/s\n" r.CL.throughput;
  (match m.Metrics.delay with
  | Some d ->
      Printf.printf "queueing delay      mean %.1f us, p99 %.1f us\n"
        (d.mean *. 1e6)
        (m.Metrics.delay_p99 *. 1e6)
  | None -> ());
  Printf.printf "refused (retried)   %d admission attempts\n"
    m.Metrics.rejected;
  Printf.printf "shed (table full)   %d tasks\n" m.Metrics.shed;
  Printf.printf "peak in-flight      %d (capacity %d)\n" r.CL.peak_inflight
    config.CL.capacity;
  Printf.printf "dequeue inversions  %d of %d (relaxation at work)\n"
    m.Metrics.inversions m.Metrics.executed;
  Printf.printf "conservation        lost=%d double=%d\n" r.CL.lost r.CL.double;
  if
    r.CL.lost <> 0 || r.CL.double <> 0
    || r.CL.peak_inflight > config.CL.capacity
    || m.Metrics.rejected = 0
  then exit 1
