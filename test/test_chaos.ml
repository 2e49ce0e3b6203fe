(* Tests for lib/chaos: the plan grammar, the fault engine's semantics on
   the simulator (arm-next-CAS, stalls, crashes, fire-once rules), and the
   end-to-end drive cases the chaos gate (bin/chaos.exe) is built from. *)

open Helpers
module Sim = Klsm_backend.Sim
module Chaos = Klsm_chaos.Chaos
module Drive = Klsm_chaos.Drive
module Vfs = Klsm_store.Vfs
module Xoshiro = Klsm_primitives.Xoshiro

(* ---------------- plan grammar ---------------- *)

let roundtrip text =
  match Chaos.parse_plan text with
  | Error e -> Alcotest.failf "parse %S: %s" text e
  | Ok plan -> Chaos.plan_to_string plan

let test_grammar_roundtrip () =
  List.iter
    (fun text -> check_string "roundtrip" text (roundtrip text))
    [
      "dist.insert.pre_size:crash";
      "shared.push_snapshot.before@4:casfail";
      "dist.spy.block@2#3:stall:500";
      "block_array.consolidate#0:casfail,dist.insert.spill@12#1:crash";
      (* The I/O fault verbs (ISSUE 8, docs/CHAOS.md). *)
      "vfs.write@2:torn:9";
      "vfs.write:shortwrite:7";
      "vfs.write:enospc:sticky";
      "vfs.read@3:eio:sticky";
      "vfs.read:bitflip";
      "vfs.rename:droprename";
      "vfs.fsync:fsynclie";
      "vfs.fsyncdir:eio,vfs.remove@2:enospc";
    ]

let test_grammar_rejects () =
  List.iter
    (fun text ->
      match Chaos.parse_plan text with
      | Ok _ -> Alcotest.failf "accepted bad plan %S" text
      | Error _ -> ())
    [
      "no-action";
      "site:explode";
      "site:stall:0";
      "site:stall:x";
      "site@0:crash";
      "site#-1:crash";
      ":crash";
      "vfs.write:torn";
      "vfs.write:torn:x";
      "vfs.write:shortwrite";
      "vfs.read:eio:stickyy";
      "vfs.read:bitflip:3";
    ]

let test_random_plan_covers_kinds () =
  (* Any 3 consecutive sweep indices exercise all three fault kinds — the
     property the acceptance bar of the chaos suite rests on. *)
  let rng = Xoshiro.create ~seed:3 in
  let kinds = Hashtbl.create 4 in
  for k = 0 to 2 do
    List.iter
      (fun (r : Chaos.rule) ->
        let kind =
          match r.Chaos.action with
          | Chaos.Cas_fail -> "casfail"
          | Chaos.Stall _ -> "stall"
          | Chaos.Crash -> "crash"
          | Chaos.Io _ -> "io"
        in
        Hashtbl.replace kinds kind ())
      (Chaos.random_plan ~rng ~sites:Chaos.sites ~num_threads:4 ~rules:1 k)
  done;
  check_int "all three kinds" 3 (Hashtbl.length kinds)

let test_random_plan_never_crashes_tid0 () =
  let rng = Xoshiro.create ~seed:17 in
  for k = 0 to 199 do
    List.iter
      (fun (r : Chaos.rule) ->
        match (r.Chaos.action, r.Chaos.tid) with
        | Chaos.Crash, Some 0 -> Alcotest.fail "generated a tid-0 crash"
        | Chaos.Crash, None -> Alcotest.fail "generated an unfiltered crash"
        | _ -> ())
      (Chaos.random_plan ~rng ~sites:Chaos.sites ~num_threads:4 ~rules:2 k)
  done

(* One plan string drives both engines: [io_rules] compiles the vfs.*
   rules for the Faulty vfs (crash becomes a process death; casfail and
   stall have no I/O meaning), and leaves the simulator rules alone. *)
let test_io_rules_compilation () =
  let plan =
    match
      Chaos.parse_plan
        "vfs.write@3:torn:9,vfs.read:bitflip,vfs.rename:crash,vfs.fsync:casfail,dist.insert.pre_size:crash"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let rules = Chaos.io_rules plan in
  check_int "two io faults + one io crash compile" 3 (List.length rules);
  let f = Vfs.faulty () in
  Vfs.arm f rules;
  let vfs = Vfs.vfs f in
  vfs.Vfs.mkdir_p "/io";
  (* vfs.read:bitflip fires on the first read... *)
  let h = vfs.Vfs.create "/io/a" in
  h.Vfs.h_write "payload";
  h.Vfs.h_close ();
  check_bool "bit flipped on read" true
    (not (String.equal "payload" (vfs.Vfs.read_file "/io/a")));
  check_string "fault spent: second read clean" "payload"
    (vfs.Vfs.read_file "/io/a");
  (* ...vfs.rename:crash is a process death at the rename... *)
  (match vfs.Vfs.rename "/io/a" "/io/b" with
  | () -> Alcotest.fail "compiled vfs crash did not kill the process"
  | exception Vfs.Crashed _ -> ());
  (* ...and vfs.write@3:torn:9 tears the third write of the run. *)
  Vfs.crash f;
  let h = vfs.Vfs.create "/io/c" in
  h.Vfs.h_write "first write intact";
  (match h.Vfs.h_write "second write torn" with
  | () -> Alcotest.fail "torn write did not kill the process"
  | exception Vfs.Crashed _ -> ());
  check_int "every compiled rule fired" 3 (Vfs.injected f)

(* ---------------- engine semantics on the simulator ---------------- *)

(* A rule fires exactly once, on its hit index, only for its thread. *)
let test_rule_fires_once_on_hit () =
  Sim.configure ~seed:1 ();
  let plan = [ Chaos.rule ~tid:1 ~hit:3 "unit.site" (Chaos.Stall 10) ] in
  Chaos.install plan;
  Fun.protect ~finally:Chaos.uninstall (fun () ->
      Sim.parallel_run ~num_threads:2 (fun _tid ->
          for _ = 1 to 10 do
            Sim.fault_point "unit.site"
          done);
      check_int "fired once" 1 (Chaos.fired_count plan);
      check_int "one stall" 1 (Chaos.stats ()).Chaos.stalls)

(* Cas_fail arms the thread's next CAS: it fails spuriously once, then the
   retry (with the same expected value) succeeds. *)
let test_casfail_forces_one_failure () =
  Sim.configure ~seed:1 ();
  let plan = [ Chaos.rule "unit.cas" Chaos.Cas_fail ] in
  Chaos.install plan;
  Fun.protect ~finally:Chaos.uninstall (fun () ->
      Sim.parallel_run ~num_threads:1 (fun _ ->
          let a = Sim.make 0 in
          Sim.fault_point "unit.cas";
          check_bool "armed CAS fails" false (Sim.compare_and_set a 0 1);
          check_int "value untouched" 0 (Sim.get a);
          check_bool "retry succeeds" true (Sim.compare_and_set a 0 1);
          check_int "value updated" 1 (Sim.get a)))

(* A crash kills only the targeted fiber; the run completes and the other
   fibers' work survives. *)
let test_crash_kills_one_fiber () =
  Sim.configure ~seed:1 ();
  let plan = [ Chaos.rule ~tid:1 "unit.crash" Chaos.Crash ] in
  Chaos.install plan;
  Fun.protect ~finally:Chaos.uninstall (fun () ->
      let reached = Array.make 2 false in
      Sim.parallel_run ~num_threads:2 (fun tid ->
          Sim.fault_point "unit.crash";
          reached.(tid) <- true);
      check_bool "survivor finished" true reached.(0);
      check_bool "victim died at the fault point" false reached.(1);
      check_list_int "crashed tid recorded" [ 1 ] (Chaos.crashed_tids ()))

(* ---------------- end-to-end drive cases ---------------- *)

let no_violations (c : Drive.case_result) =
  if c.Drive.violations <> [] then
    Alcotest.failf "case %s seed=0x%x plan=%s violated: %s" c.Drive.label
      c.Drive.seed c.Drive.plan_text
      (String.concat "; " c.Drive.violations)

let test_queue_case_casfail_stall () =
  let plan =
    match
      Chaos.parse_plan
        "shared.push_snapshot.before@2:casfail,dist.insert.pre_size@5#1:stall:200000,dist.spy.block@3:stall:5000"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let c = Drive.queue_case ~seed:42 ~threads:4 ~per_thread:200 ~k:8 plan in
  no_violations c;
  check_bool "cas fault injected" true (c.Drive.cas_fails = 1);
  (* Thread 1 stalls mid-insert while the others drain under the plan,
     run dry and spy its LSM, so the stall drawn on the spy fires.  The
     coverage row of the publish site sums the case's rule and its
     visits. *)
  Alcotest.(check (list (pair string bool)))
    "rules fired"
    [
      ("shared.push_snapshot.before", true);
      ("dist.insert.pre_size", true);
      ("dist.spy.block", true);
    ]
    c.Drive.rules;
  check_bool "spy visited" true
    (Option.value ~default:0 (List.assoc_opt "dist.spy.block" c.Drive.visits)
    >= 3);
  match
    List.find_opt
      (fun (r : Drive.coverage) ->
        r.Drive.kind = "queue" && r.Drive.site = "shared.push_snapshot.before")
      (Drive.coverage [ c ])
  with
  | None -> Alcotest.fail "no coverage row for the publish site"
  | Some r ->
      check_int "drawn" 1 r.Drive.drawn;
      check_int "fired" 1 r.Drive.fired;
      check_int "visits" (List.assoc "shared.push_snapshot.before" c.Drive.visits)
        r.Drive.visits;
      check_bool "publish visited" true (r.Drive.visits > 0)

(* A fixed plan whose rule the workload never reaches is itself a
   violation: the case would otherwise pass while injecting nothing. *)
let test_fixed_plan_must_fire () =
  let plan =
    [ Chaos.rule ~hit:1_000_000 "block_array.consolidate" Chaos.Crash ]
  in
  let c =
    Drive.require_fired plan
      (Drive.queue_case ~seed:46 ~threads:2 ~per_thread:50 ~k:8 plan)
  in
  Alcotest.(check (list string))
    "unfired rule reported"
    [ "planned rule never fired: block_array.consolidate@1000000:crash" ]
    c.Drive.violations

let test_queue_case_crash () =
  let plan = [ Chaos.rule ~tid:2 ~hit:5 "dist.insert.pre_size" Chaos.Crash ] in
  let c = Drive.queue_case ~seed:43 ~threads:4 ~per_thread:200 ~k:8 plan in
  no_violations c;
  check_int "crash injected" 1 c.Drive.crashes

(* The kill-and-restart store case: a crash after the spill's durability
   point must be recovered by Store/Spill.recover with nothing lost,
   duplicated, or resurrected (docs/STORAGE.md failure matrix). *)
let test_store_case_kill_mid_spill () =
  let plan = [ Chaos.rule ~tid:1 ~hit:1 "store.spill" Chaos.Crash ] in
  let c =
    Drive.store_case ~seed:45 ~threads:4 ~per_thread:200 ~k:8 ~threshold:64
      plan
  in
  no_violations c;
  check_int "crash injected" 1 c.Drive.crashes;
  check_bool "recovery reinserted items" true
    (List.assoc "recovered_items" c.Drive.info > 0)

let test_sched_case_crash () =
  let plan =
    [ Chaos.rule ~tid:1 ~hit:4 "sched.execute.post_lease" Chaos.Crash ]
  in
  let c = Drive.sched_case ~seed:44 ~threads:4 ~roots:50 plan in
  no_violations c;
  check_int "crash injected" 1 c.Drive.crashes

(* A crash between a run claim's publish CAS and its takes
   ([shared.batch.claimed], reached only by a claim whose CAS won): the
   claimed ids are pruned from the stripe while their tasks stay
   [Pending], so only the rescue sweep, or a survivor whose older
   snapshot still reaches them, can start them again. *)
let test_sched_crash_inside_claim () =
  List.iter
    (fun sharded ->
      let plan =
        [ Chaos.rule ~tid:1 ~hit:1 "shared.batch.claimed" Chaos.Crash ]
      in
      let c =
        Drive.sched_case ~sharded ~pull:4 ~seed:44 ~threads:4 ~roots:50 plan
      in
      no_violations c;
      check_int "crash injected inside a claim" 1 c.Drive.crashes;
      check_bool "the survivors claimed runs" true
        (List.assoc "batch_claim" c.Drive.info > 0);
      (* No lease expired, so every re-queue came from the rescue of
         [Pending] tasks, the only way back for ids pruned unclaimed. *)
      check_int "no lease expired" 0 (List.assoc "timeouts" c.Drive.info);
      check_bool "the rescue re-enqueued the pruned ids" true
        (List.assoc "reenqueues" c.Drive.info > 0))
    [ true; false ]

(* A spurious failure of a claimed item's take: a Cas_fail armed at
   [shared.batch.claimed] fails the claimer's next CAS, the first take,
   with the item's flag still clear.  The winning publish already pruned
   the run from the stripe, so a take that is not retried would lose that
   item's payload.  One block of 16 goes to stripe 1 of
   klsm-sharded:16:2 (h1's home), as in test_sharded.ml's striped claim
   test, and h0 pulls 8. *)
let test_claim_retries_spurious_take () =
  let module K = Drive.K in
  Sim.configure ~seed:1 ();
  let q = K.create_with ~k:16 ~shards:2 ~num_threads:2 () in
  let plan = [ Chaos.rule "shared.batch.claimed" Chaos.Cas_fail ] in
  let pulled = ref [] and drained = ref [] in
  Chaos.install plan;
  Fun.protect ~finally:Chaos.uninstall (fun () ->
      Sim.parallel_run ~num_threads:1 (fun _ ->
          let h0 = K.register q 0 and h1 = K.register q 1 in
          K.insert_batch h1 (Array.init 16 (fun i -> (i, 100 + i)));
          pulled := K.try_delete_min_batch h0 8;
          let rec drain () =
            match K.try_delete_min h0 with
            | Some kv ->
                drained := kv :: !drained;
                drain ()
            | None -> ()
          in
          drain ());
      check_int "the rule fired" 1 (Chaos.fired_count plan);
      check_int "one CAS failed" 1 (Chaos.stats ()).Chaos.cas_fails);
  let keys = List.map fst in
  check_list_int "the 8 smallest, ascending" (List.init 8 Fun.id)
    (keys !pulled);
  check_bool "each with its payload" true
    (List.for_all (fun (k, v) -> v = 100 + k) !pulled);
  check_list_int "the drain returns the other 8, each once"
    (List.init 8 (fun i -> 8 + i))
    (List.sort compare (keys !drained))

(* The teeth check: with Listing 4's publication order flipped, the same
   conservation oracle must detect the planted loss — the suite can catch
   the bug class it exists for. *)
let test_teeth_catch () =
  let caught, cases = Drive.teeth ~plans:6 () in
  check_int "ran all plans" 6 (List.length cases);
  check_bool "planted publication-order bug caught" true caught;
  (* The flag is restored: a normal crash case must pass again. *)
  test_queue_case_crash ()

let () =
  Alcotest.run "chaos"
    [
      ( "grammar",
        [
          Alcotest.test_case "roundtrip" `Quick test_grammar_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_grammar_rejects;
          Alcotest.test_case "kind coverage" `Quick
            test_random_plan_covers_kinds;
          Alcotest.test_case "no tid-0 crashes" `Quick
            test_random_plan_never_crashes_tid0;
          Alcotest.test_case "io_rules compile for the vfs engine" `Quick
            test_io_rules_compilation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fires once on hit" `Quick
            test_rule_fires_once_on_hit;
          Alcotest.test_case "casfail arms next CAS" `Quick
            test_casfail_forces_one_failure;
          Alcotest.test_case "crash kills one fiber" `Quick
            test_crash_kills_one_fiber;
        ] );
      ( "drive",
        [
          Alcotest.test_case "queue casfail+stall" `Quick
            test_queue_case_casfail_stall;
          Alcotest.test_case "queue crash" `Quick test_queue_case_crash;
          Alcotest.test_case "fixed plan must fire" `Quick
            test_fixed_plan_must_fire;
          Alcotest.test_case "store kill mid-spill" `Quick
            test_store_case_kill_mid_spill;
          Alcotest.test_case "sched crash" `Quick test_sched_case_crash;
          Alcotest.test_case "sched crash inside a run claim" `Quick
            test_sched_crash_inside_claim;
          Alcotest.test_case "a claim retries a spurious take" `Quick
            test_claim_retries_spurious_take;
          Alcotest.test_case "teeth" `Slow test_teeth_catch;
        ] );
    ]
