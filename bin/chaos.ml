(* Chaos gate: deterministic fault-injection sweep for CI (lib/chaos).

   Examples:
     chaos                      # 64 seeds + the teeth check
     chaos --seeds 32           # the `make chaos-check` gate
     chaos --plan 'dist.insert.pre_size@4#1:crash' --seed 0xc4a07
                                # replay one reported (seed, plan) pair

   Sweeps seeded fault plans — forced CAS failures, mid-protocol stalls,
   fiber crashes — over queue conservation cases and hardened-scheduler
   cases on the simulator, then runs the teeth check (flips Listing 4's
   publication order and demands the suite catch the planted loss).
   Prints and records, per case kind, how often the random cases reached
   each site their plans are drawn from, and how many runs they claimed
   with one publish CAS (shared.batch_claim).  Writes BENCH_chaos.json and
   exits non-zero on any violation, on a missed teeth check, when some
   fault kind was never exercised, when a drawn site was never reached,
   or when a scheduler kind never claimed a run.
   docs/CHAOS.md documents the plan grammar and the fault-point sites. *)

module Drive = Klsm_chaos.Drive
module Chaos = Klsm_chaos.Chaos
module Report = Klsm_harness.Report

let run ~seeds ~threads ~per_thread ~roots ~seed ~plan ~out ~no_teeth =
  match plan with
  | Some text -> (
      (* Replay mode: one queue case under an explicit plan. *)
      match Chaos.parse_plan text with
      | Error e ->
          Printf.eprintf "bad plan %S: %s\n" text e;
          exit 2
      | Ok plan ->
          let c =
            Drive.queue_case ~seed ~threads ~per_thread ~k:8 plan
          in
          Printf.printf "case=%s seed=0x%x plan=%s faults=%d/%d/%d\n"
            c.Drive.label c.Drive.seed c.Drive.plan_text c.Drive.cas_fails
            c.Drive.stalls c.Drive.crashes;
          List.iter (fun v -> Printf.printf "violation: %s\n" v)
            c.Drive.violations;
          if c.Drive.violations = [] then print_endline "ok";
          exit (if c.Drive.violations = [] then 0 else 1))
  | None ->
      let random, fixed =
        Drive.sweep ~seed0:seed ~threads ~per_thread ~roots ~seeds ()
      in
      let cases = random @ fixed in
      let coverage = Drive.coverage random in
      let claims = Drive.claims random in
      let teeth_caught, _teeth_cases =
        if no_teeth then (true, []) else Drive.teeth ~plans:6 ()
      in
      let cas_fails, stalls, crashes, violations = Drive.totals cases in
      List.iter
        (fun (c : Drive.case_result) ->
          Printf.printf "%-11s seed=0x%-6x c/s/k=%d/%d/%d %s plan=%s\n"
            c.Drive.label c.Drive.seed c.Drive.cas_fails c.Drive.stalls
            c.Drive.crashes
            (if c.Drive.violations = [] then "ok  " else "FAIL")
            c.Drive.plan_text;
          List.iter (fun v -> Printf.printf "      violation: %s\n" v)
            c.Drive.violations)
        cases;
      Printf.printf
        "%d cases: faults %d cas-fail / %d stall / %d crash; violations %d; \
         teeth %s\n"
        (List.length cases) cas_fails stalls crashes violations
        (if no_teeth then "skipped"
         else if teeth_caught then "caught"
         else "MISSED");
      print_endline
        "kind        site                         drawn  fired  visits";
      List.iter
        (fun (r : Drive.coverage) ->
          Printf.printf "%-11s %-28s %5d  %5d  %6d\n" r.kind r.site r.drawn
            r.fired r.visits)
        coverage;
      Printf.printf "run claims:%s\n"
        (String.concat ","
           (List.map (fun (kind, n) -> Printf.sprintf " %s %d" kind n) claims));
      Report.write_json ~path:out
        (Drive.to_json ~teeth_caught ~coverage ~claims cases);
      Printf.printf "wrote %s\n%!" out;
      let kind_missing = cas_fails = 0 || stalls = 0 || crashes = 0 in
      if kind_missing then
        Printf.eprintf "FAILURE: some fault kind was never exercised\n";
      let unvisited =
        List.filter (fun (r : Drive.coverage) -> r.visits = 0) coverage
      in
      List.iter
        (fun (r : Drive.coverage) ->
          Printf.eprintf "FAILURE: %s cases draw %s but never reach it\n"
            r.kind r.site)
        unvisited;
      let unclaimed =
        List.filter
          (fun (kind, n) -> n = 0 && String.starts_with ~prefix:"sched" kind)
          claims
      in
      List.iter
        (fun (kind, _) ->
          Printf.eprintf "FAILURE: %s cases never claimed a run\n" kind)
        unclaimed;
      if violations > 0 then Printf.eprintf "FAILURE: %d violations\n" violations;
      if not teeth_caught then
        Printf.eprintf
          "FAILURE: teeth check missed the planted publication-order bug\n";
      if
        violations > 0 || (not teeth_caught) || kind_missing || unvisited <> []
        || unclaimed <> []
      then exit 1

open Cmdliner

let seeds =
  Arg.(
    value & opt int 64
    & info [ "seeds" ] ~doc:"Number of (seed, plan) sweep cases.")

let threads =
  Arg.(value & opt int 4 & info [ "threads" ] ~doc:"Simulated threads per case.")

let per_thread =
  Arg.(
    value & opt int 400
    & info [ "per-thread" ] ~doc:"Inserts per thread in queue cases.")

let roots =
  Arg.(
    value & opt int 60
    & info [ "roots" ] ~doc:"Root tasks per worker in scheduler cases.")

let seed =
  Arg.(
    value & opt int 0xC4A05
    & info [ "seed" ] ~doc:"Base seed (sweep) or case seed (--plan replay).")

let plan =
  Arg.(
    value & opt (some string) None
    & info [ "plan" ]
        ~doc:
          "Replay a single queue case under this fault plan \
           (site[@hit][#tid]:action, comma-separated; docs/CHAOS.md).")

let out =
  Arg.(
    value & opt string "BENCH_chaos.json"
    & info [ "out" ] ~doc:"Output JSON path.")

let no_teeth =
  Arg.(
    value & flag
    & info [ "no-teeth" ] ~doc:"Skip the planted-bug teeth check.")

let cmd =
  let doc = "deterministic fault-injection sweep over the k-LSM stack" in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const (fun seeds threads per_thread roots seed plan out no_teeth ->
          run ~seeds ~threads ~per_thread ~roots ~seed ~plan ~out ~no_teeth)
      $ seeds $ threads $ per_thread $ roots $ seed $ plan $ out $ no_teeth)

let () = exit (Cmd.eval cmd)
