(* CLI for the elastic task-scheduling runtime (lib/sched).

   Examples:
     sched --queue klsm:256 --threads 8
     sched --queue klsm:256 --queue multiq:2 --queue linden --threads 8
     sched --arrival open:50000 --service exp:64 --capacity 512
     sched --fanout 2 --depth 3 --tasks 50 --mode real
     sched --fibers 8 --tasks 2000 --mode real   # fiber-tree bodies
     sched --stats --queue klsm:256     # + per-thread internal counters

   --fibers F makes every task body fork and join F child fibers (lib/sched
   runs each body as the root fiber of a work-stealing deque runtime), so
   F is the oversubscription knob: domains stay bounded by --threads while
   the in-flight computation count scales with tasks * (1 + F).

   Runs the closed/open-loop workload driver over each requested queue and
   reports throughput, queueing delay (mean/p99), dequeue slack — the
   scheduler-level view of relaxation-induced priority inversion — and the
   batching/backpressure counters.  Exits non-zero if any task was lost or
   executed twice, a fiber leaked, or the peak in-flight count exceeded
   --capacity. *)

let parse_arrival s =
  match String.lowercase_ascii s with
  | "closed" -> `Closed
  | s when String.length s > 5 && String.sub s 0 5 = "open:" -> (
      match float_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some rate when rate > 0.0 -> `Open rate
      | _ -> failwith ("bad arrival rate in " ^ s))
  | _ -> failwith ("unknown arrival mode " ^ s ^ " (closed | open:RATE)")

let parse_service s =
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "fixed"; n ] -> `Fixed (int_of_string n)
  | [ "uniform"; n ] -> `Uniform (int_of_string n)
  | [ ("exp" | "exponential"); m ] -> `Exp (float_of_string m)
  | _ -> failwith ("unknown service distribution " ^ s ^ " (fixed:N | uniform:N | exp:MEAN)")

let run ~mode ~queues ~threads ~tasks ~arrival ~service ~workload ~fanout
    ~depth ~fibers ~batch ~pull ~margin ~capacity ~seed ~stats ~oversubscribe =
  (* Must happen before any queue is created: lib/obs latches the flag at
     sheet creation. *)
  if stats then Klsm_obs.Obs.set_enabled true;
  (* Domains are not threads: running more workers than cores just
     timeslices whole domains (and their GC) against each other.  On the
     real backend, refuse the silent oversubscription — fibers are the
     oversubscription mechanism now (--fibers). *)
  let threads =
    let recommended = Domain.recommended_domain_count () in
    if mode = `Real && threads > recommended && not oversubscribe then begin
      Printf.eprintf
        "sched: --threads %d exceeds recommended_domain_count (%d); \
         clamping to %d.  Use --fibers to oversubscribe with lightweight \
         fibers instead of domains, or --oversubscribe to force.\n%!"
        threads recommended recommended;
      recommended
    end
    else threads
  in
  let module Go (B : Klsm_backend.Backend_intf.S) = struct
    module CL = Klsm_sched.Closed_loop.Make (B)
    module Report = Klsm_harness.Report

    let specs =
      match queues with
      | [] -> [ CL.Registry.Klsm 256 ]
      | l ->
          List.map
            (fun s ->
              match CL.Registry.parse_spec s with
              | Ok spec -> spec
              | Error msg -> failwith msg)
            l

    let fibers = max 0 fibers

    let config =
      {
        CL.num_workers = threads;
        roots_per_worker = tasks;
        mode =
          (match parse_arrival arrival with
          | `Closed -> CL.Closed
          | `Open rate -> CL.Open_poisson rate);
        service =
          (match parse_service service with
          | `Fixed n -> CL.Fixed n
          | `Uniform n -> CL.Uniform_work n
          | `Exp m -> CL.Exponential m);
        priorities =
          (match Klsm_harness.Workload.parse workload with
          | Some w -> w
          | None -> failwith ("unknown workload " ^ workload));
        spawn_fanout = fanout;
        spawn_depth = depth;
        fiber_fanout = fibers;
        batch;
        pull;
        urgency_margin = margin;
        capacity;
        seed;
        robust = CL.Worker.default_robust;
      }

    let main () =
      let failures = ref 0 in
      let measured = ref [] in
      let rows =
        List.map
          (fun spec ->
            let r = CL.run config spec in
            measured := !measured @ [ (spec, r) ];
            if
              r.CL.lost > 0 || r.CL.double > 0 || r.CL.fiber_lost <> 0
              || r.CL.peak_inflight > capacity
            then incr failures;
            let m = r.CL.metrics in
            let fmean = function
              | Some (s : Klsm_primitives.Stats.summary) -> s.mean
              | None -> Float.nan
            in
            [
              CL.Registry.spec_name spec;
              string_of_int r.CL.total_tasks;
              Printf.sprintf "%.2f" (r.CL.makespan *. 1e3);
              Report.human_float r.CL.throughput;
              Printf.sprintf "%.3f" (fmean m.Klsm_sched.Metrics.delay *. 1e3);
              Printf.sprintf "%.3f" (m.Klsm_sched.Metrics.delay_p99 *. 1e3);
              Printf.sprintf "%.0f" (fmean m.Klsm_sched.Metrics.slack);
              Printf.sprintf "%.0f" m.Klsm_sched.Metrics.slack_p99;
              string_of_int m.Klsm_sched.Metrics.inversions;
              string_of_int m.Klsm_sched.Metrics.flushes;
              string_of_int m.Klsm_sched.Metrics.rejected;
              string_of_int r.CL.peak_inflight;
              string_of_int m.Klsm_sched.Metrics.fibers;
              string_of_int m.Klsm_sched.Metrics.steals;
              Printf.sprintf "%d/%d" r.CL.lost r.CL.double;
            ])
          specs
      in
      Report.section
        (Printf.sprintf
           "Scheduler: %d workers, %d roots/worker, %s arrivals, %s service, \
            %d child fibers/task, backend %s"
           threads tasks arrival service fibers B.name);
      Report.table
        ~header:
          [
            "queue";
            "tasks";
            "makespan ms";
            "tasks/s";
            "delay ms";
            "p99 ms";
            "slack";
            "p99";
            "inversions";
            "flushes";
            "rejected";
            "peak";
            "fibers";
            "steals";
            "lost/dup";
          ]
        rows;
      if stats then
        List.iter
          (fun (spec, (r : CL.result)) ->
            let name = CL.Registry.spec_name spec in
            Klsm_harness.Obs_report.print_table ~name:(name ^ " (queue)")
              r.CL.queue_stats;
            Klsm_harness.Obs_report.print_table ~name:(name ^ " (sched)")
              r.CL.sched_stats)
          !measured;
      if !failures > 0 then begin
        Printf.eprintf
          "FAILURE: tasks lost, double-executed, fibers leaked, or peak \
           in-flight above capacity\n";
        exit 1
      end
  end in
  match mode with
  | `Sim ->
      let module M = Go (Klsm_backend.Sim) in
      M.main ()
  | `Real ->
      let module M = Go (Klsm_backend.Real) in
      M.main ()

open Cmdliner

let mode_conv = Arg.enum [ ("sim", `Sim); ("real", `Real) ]

let mode =
  Arg.(value & opt mode_conv `Sim & info [ "mode" ] ~doc:"Backend: sim or real.")

let queues =
  Arg.(
    value & opt_all string []
    & info [ "queue" ]
        ~doc:
          "Priority queue spec (repeatable): heap, linden, spraylist, \
           multiq:C, klsm:K, dlsm, centralized, hybrid:K.  Default klsm:256.")

let threads =
  Arg.(value & opt int 8 & info [ "threads" ] ~doc:"Worker threads.")

let tasks =
  Arg.(
    value & opt int 250
    & info [ "tasks" ] ~doc:"Root tasks submitted per worker.")

let arrival =
  Arg.(
    value & opt string "closed"
    & info [ "arrival" ] ~doc:"Arrival process: closed | open:RATE (tasks/s per worker).")

let service =
  Arg.(
    value & opt string "fixed:32"
    & info [ "service" ] ~doc:"Service demand: fixed:N | uniform:N | exp:MEAN (work units).")

let workload =
  Arg.(
    value & opt string "uniform"
    & info [ "workload" ]
        ~doc:"Priority distribution: uniform | ascending | descending | clustered.")

let fanout =
  Arg.(value & opt int 0 & info [ "fanout" ] ~doc:"Children spawned per task.")

let depth =
  Arg.(value & opt int 0 & info [ "depth" ] ~doc:"Spawn recursion depth.")

let fibers =
  Arg.(
    value & opt int 0
    & info [ "fibers" ]
        ~doc:
          "Child fibers forked and joined per task body.  0 = straight-line \
           bodies.")

let oversubscribe =
  Arg.(
    value & flag
    & info [ "oversubscribe" ]
        ~doc:
          "Allow --threads above Domain.recommended_domain_count on the \
           real backend (normally clamped with a warning; prefer --fibers).")

let batch =
  Arg.(value & opt int 16 & info [ "batch" ] ~doc:"Submitter buffer size.")

let pull =
  Arg.(
    value & opt int 1
    & info [ "pull" ]
        ~doc:
          "Tasks pulled per shared-queue round trip by each worker (the \
           delete-side counterpart of --batch), at least 1.  On the k-LSMs \
           a pull claims each run of tasks from a stripe with one publish \
           CAS at every stripe count.  The head task starts inline, the \
           rest seed the worker's deque as steal-ready fibers.  1 = one \
           task per round trip, a delete-min.")

let margin =
  Arg.(
    value & opt int 512
    & info [ "margin" ] ~doc:"Urgency margin: flush when an incoming priority undercuts the buffer by more.")

let capacity =
  Arg.(
    value & opt int 4096
    & info [ "capacity" ] ~doc:"Admission bound on in-flight tasks (backpressure).")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Root random seed.")

let stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Enable lib/obs observability and print per-thread internal \
           counter tables (queue internals and sched.* scheduler events; \
           see docs/METRICS.md) after the summary table.")

let cmd =
  let doc = "elastic task-scheduling runtime on relaxed priority queues" in
  Cmd.v (Cmd.info "sched" ~doc)
    Term.(
      const (fun mode queues threads tasks arrival service workload fanout
                 depth fibers batch pull margin capacity seed stats
                 oversubscribe ->
          run ~mode ~queues ~threads ~tasks ~arrival ~service ~workload
            ~fanout ~depth ~fibers ~batch ~pull ~margin ~capacity ~seed ~stats
            ~oversubscribe)
      $ mode $ queues $ threads $ tasks $ arrival $ service $ workload $ fanout
      $ depth $ fibers $ batch $ pull $ margin $ capacity $ seed $ stats
      $ oversubscribe)

let () = exit (Cmd.eval cmd)
