(** The chaos sweep driver: seeds × fault plans on the simulator, shared
    by [bench chaos] and [bin/chaos.exe].

    Two kinds of cases, both run under an installed {!Chaos} plan:

    - {b queue cases} drive the combined k-LSM directly with uniquely
      tagged payloads while a {!Klsm_harness.Oracle} shadows every insert
      and delete.  After the run the survivors drain the queue and the
      case asserts {e conservation}: every payload whose insert returned
      comes out exactly once (a crashed thread's single in-flight payload
      may vanish with it; payloads it never reached are not owed),
      nothing comes out twice, the oracle never sees a key deleted twice, and the
      structural invariants (strictly decreasing block levels, sorted
      blocks) still hold for the shared array and every surviving
      thread-local LSM.
    - {b sched cases} run a {!Klsm_sched.Closed_loop} workload with the
      robustness knobs on (leases, retries, dead-lettering, supervision)
      and assert that every admitted task reaches a terminal state
      ([lost = 0]), nothing completes twice (the completion log has no
      duplicate ids), and the run makes bounded virtual-time progress
      (no give-up) — the no-deadlock half of the acceptance bar.

    A case is deterministic in (seed, plan): rerunning a reported failure
    replays it exactly (docs/CHAOS.md shows the workflow).

    {!teeth} is the suite's self-test: it flips Listing 4's publication
    order ({!Klsm_core.Dist_lsm.test_only_flip_publication_order}) and
    demands that crash plans aimed between the two writes make the
    conservation check fail — an injector that cannot catch a planted bug
    proves nothing about the absence of real ones. *)

module Sim = Klsm_backend.Sim
module K = Klsm_core.Klsm.Make (Sim)
module Spill = Klsm_store.Spill.Make (Sim)
module Dist_lsm = Klsm_core.Dist_lsm
module Shared = K.Shared_klsm
module Block_array = K.Block_array
module CL = Klsm_sched.Closed_loop.Make (Sim)
module Worker = CL.Worker
module Obs = Klsm_obs.Obs
module Oracle = Klsm_harness.Oracle
module Audit = Klsm_store.Audit
module Report = Klsm_harness.Report
module Xoshiro = Klsm_primitives.Xoshiro

type case_result = {
  label : string;
  seed : int;
  plan_text : string;
  cas_fails : int;  (** faults actually injected, by kind *)
  stalls : int;
  crashes : int;
  violations : string list;  (** empty = the case passed *)
  info : (string * int) list;  (** extra counters for the report *)
}

let key_range = 1 lsl 16

(* ------------------------------------------------------------------ *)
(* Queue-level case                                                    *)
(* ------------------------------------------------------------------ *)

(** Conservation case for the k-LSM ([~shards], default 1 — the paper's
    queue; [~dbuf] switches on the DESIGN.md §17 deletion buffer).  With
    [S > 1] the stripe-publish and migration protocol steps sit under
    fault pressure too — crashes mid-stripe-publish
    ([klsm.spill.publish], [shared.push_snapshot.before]) must not lose
    already-inserted items, and CAS-failure storms on one stripe must only
    slow things down (and trip the migration policy), never break
    conservation.  Structural invariants are asserted per stripe. *)
let queue_case ?(shards = 1) ?(dbuf = 0) ~seed ~threads ~per_thread ~k plan =
  Sim.configure ~seed ();
  let plan_text = Chaos.plan_to_string plan in
  (* Latch counters on for this queue's sheet so the report can show the
     stripe-level fault response (CAS failures absorbed, migrations); the
     sheet records without synchronization, so the schedule is unchanged. *)
  let was_obs = Obs.enabled () in
  Obs.set_enabled true;
  let q = K.create_with ~seed ~k ~shards ~dbuf ~num_threads:threads () in
  Obs.set_enabled was_obs;
  let handles = Array.make threads None in
  let total = threads * per_thread in
  let got = Array.make total 0 in
  (* Conservation is owed only for payloads whose insert returned: a
     crashed thread never reaches its remaining loop iterations, and its
     one in-flight payload (insert entered, not returned) may go either
     way — the item becomes visible part-way through the protocol, so it
     may be delivered once, or vanish with the crasher.  Either is fine;
     delivering it twice is not ([got] catches that regardless). *)
  let submitted = Array.make total false in
  let oracle = Oracle.create ~universe:key_range in
  let oracle_violations = ref 0 in
  let max_rank_error = ref 0 in
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let note_delete dk =
    match Oracle.delete oracle dk with
    | e -> if e > !max_rank_error then max_rank_error := e
    | exception Failure _ -> incr oracle_violations
  in
  Chaos.install plan;
  (try
     Sim.parallel_run ~num_threads:threads (fun tid ->
         let h = K.register q tid in
         handles.(tid) <- Some h;
         let rng = Xoshiro.create ~seed:(seed + (7919 * tid)) in
         for i = 0 to per_thread - 1 do
           let payload = (tid * per_thread) + i in
           let key = Xoshiro.int rng key_range in
           (* Oracle first: the item becomes visible to other threads
              part-way through the insert (same pattern as Quality). *)
           Oracle.insert oracle key;
           K.insert h key payload;
           submitted.(payload) <- true;
           if i land 1 = 1 then
             match K.try_delete_min h with
             | None -> ()
             | Some (dk, v) ->
                 got.(v) <- got.(v) + 1;
                 note_delete dk
         done)
   with Sim.Thread_failure (tid, e) ->
     violation "thread %d failed: %s" tid (Printexc.to_string e));
  let faults = Chaos.stats () in
  let crashed = Chaos.crashed_tids () in
  Chaos.uninstall ();
  let survivors =
    Array.to_list handles
    |> List.filteri (fun tid _ -> not (List.mem tid crashed))
    |> List.filter_map Fun.id
  in
  (* Deletion buffers ([~dbuf]; DESIGN.md §17) live in handles, not in
     the shared structure.  Items in a crashed thread's deletion buffer
     (including the tail of a flush it crashed in the middle of:
     flush_dbuf pops each item only after reinserting it) were already
     claimed out of the stripe by the batch CAS, so the crash consumes
     them and conservation does not owe them — and a crash {e inside} a
     batch claim ([internal_dbuf_pending], the run staged before the
     publish CAS) is exempt in both CAS outcomes: CAS lost means the
     items are still in the stripe (delivered once at most), CAS won
     means they died with the crasher; a double delivery would need two
     winning [Item.take]s on one item, which the flag CAS forbids.
     Survivors' buffers are flushed explicitly before the drain: the
     drainer can spy their LSMs but cannot see their buffers. *)
  Array.iteri
    (fun tid h ->
      match h with
      | Some h when List.mem tid crashed ->
          List.iter
            (fun (_, payload) -> submitted.(payload) <- false)
            (K.internal_dbuf h @ K.internal_dbuf_pending h)
      | _ -> ())
    handles;
  List.iter K.flush_dbuf survivors;
  (* Survivor drain: crashed threads' items must still be reachable
     through spy.  The drainer retries through empty results because spy
     picks random victims (same miss bound as bin/fuzz.ml). *)
  let drained = ref 0 in
  (match survivors with
  | [] -> violation "no surviving thread to drain with"
  | h :: _ ->
      let misses = ref 0 in
      while !misses < 300 do
        match K.try_delete_min h with
        | Some (dk, v) ->
            incr drained;
            got.(v) <- got.(v) + 1;
            note_delete dk;
            misses := 0
        | None -> incr misses
      done);
  if !oracle_violations > 0 then
    violation "oracle: %d deletes of absent keys" !oracle_violations;
  (* Conservation: every submitted payload delivered exactly once; no
     payload (submitted or in-flight) delivered twice. *)
  let lost = ref 0 and dup = ref 0 in
  for p = 0 to total - 1 do
    if got.(p) > 1 then incr dup
    else if got.(p) = 0 && submitted.(p) then incr lost
  done;
  if !lost > 0 then violation "%d payloads lost" !lost;
  if !dup > 0 then violation "%d payloads delivered twice" !dup;
  (* Structural invariants of everything the survivors can still reach
     (Block.check_invariants also asserts the SoA keys mirror and that no
     Retired block is reachable), per stripe. *)
  Array.iteri
    (fun i stripe ->
      try
        match Shared.peek_shared stripe with
        | None -> ()
        | Some arr -> Block_array.check_invariants arr
      with Failure msg -> violation "stripe[%d] invariant: %s" i msg)
    (K.internal_stripes q);
  List.iter
    (fun h ->
      try K.Dist_lsm.check_invariants (K.internal_dist h)
      with Failure msg ->
        violation "dist[%d] invariant: %s" h.K.tid msg)
    survivors;
  (* Pool-reuse safety (paper §4.4 adapted; DESIGN.md §11): a recycled
     block must never be aliased by a published structure.  Collect every
     block physically reachable from the stripe snapshots and the
     surviving thread-local LSMs, and assert it is disjoint (physical
     equality) from every surviving thread's freelist. *)
  let reachable = ref [] in
  Array.iter
    (fun stripe ->
      match Shared.peek_shared stripe with
      | None -> ()
      | Some arr ->
          Array.iter (fun b -> reachable := b :: !reachable)
            (Block_array.blocks arr))
    (K.internal_stripes q);
  List.iter
    (fun h ->
      let d = K.internal_dist h in
      for i = 0 to K.Dist_lsm.size d - 1 do
        match K.Dist_lsm.block_at d i with
        | Some b -> reachable := b :: !reachable
        | None -> ()
      done)
    survivors;
  List.iter
    (fun h ->
      Array.iteri
        (fun lvl free ->
          List.iter
            (fun pb ->
              if List.exists (fun rb -> rb == pb) !reachable then
                violation "pool[%d] level-%d block aliased by a live structure"
                  h.K.tid lvl)
            free)
        h.K.pool.K.Block.Pool.slots)
    survivors;
  let stats = K.stats q in
  let stat name =
    match List.assoc_opt name stats.Obs.counters with
    | Some per -> Array.fold_left ( + ) 0 per
    | None -> 0
  in
  {
    label = (if shards = 1 then "queue" else "shard");
    seed;
    plan_text;
    cas_fails = faults.Chaos.cas_fails;
    stalls = faults.Chaos.stalls;
    crashes = faults.Chaos.crashes;
    violations = List.rev !violations;
    info =
      [
        ("items", total);
        ("drained", !drained);
        ("max_rank_error", !max_rank_error);
        ("crashed_threads", List.length crashed);
        ("stripe_cas_fail", stat "stripe.cas_fail");
        ("stripe_migrate", stat "stripe.migrate");
        ("batch_claim", stat "shared.batch_claim");
        ("dbuf_hit", stat "stripe.dbuf_hit");
        ("dbuf_flush", stat "stripe.dbuf_flush");
      ];
  }

(* ------------------------------------------------------------------ *)
(* Store kill-and-restart case                                         *)
(* ------------------------------------------------------------------ *)

let rm_rf root =
  let rec go p =
    if Sys.is_directory p then begin
      Array.iter (fun n -> go (Filename.concat p n)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists root then go root

(** Kill-and-restart recovery case for the spill tier (docs/STORAGE.md):
    run a spill-enabled combined queue (threshold low enough that most
    shared publications hit the store) under a fault plan aimed at the
    store's own protocol windows — mid-spill, mid-rehydrate, mid-publish —
    then simulate whole-process death: discard every in-RAM structure,
    reopen the same store root, [Spill.recover] into a {e fresh} queue,
    and drain it.  The conservation oracle across the crash boundary:

    - {e no invention}: every recovered payload was actually submitted,
      and comes back under its original key (spill → recover → rehydrate
      is byte-identical);
    - {e no duplication}: no payload is recovered twice, and the recovery
      drain delivers exactly the items the journal called live;
    - {e no resurrection}: a payload delivered {e before} the kill never
      comes back after it (the [R]-before-delivery journal rule);
    - the journal replays clean (no torn lines, no corrupt objects).

    Payloads that were RAM-resident and undelivered at the kill are
    legitimately lost — the crash model loses in-RAM state — so plain
    conservation is {e not} asserted across the boundary; that is exactly
    what distinguishes this case from {!queue_case}. *)
let store_case ~seed ~threads ~per_thread ~k ~threshold plan =
  Sim.configure ~seed ();
  let plan_text = Chaos.plan_to_string plan in
  let root = Filename.temp_dir "klsm-chaos-store" "" in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let spill = Spill.create ~threshold ~num_threads:threads ~root () in
  let q =
    K.create_with ~seed ~k ~num_threads:threads
      ~spill_policy:(Spill.policy spill) ()
  in
  let handles = Array.make threads None in
  let total = threads * per_thread in
  let got = Array.make total 0 in
  (* [key_of.(p) >= 0] means insert [p] was at least {e entered}: a thread
     killed inside its own insert (e.g. mid-spill) can leave that one
     in-flight payload durable, so "known to the store" is gated on entry,
     not on the insert returning. *)
  let key_of = Array.make total (-1) in
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  Chaos.install plan;
  (try
     Sim.parallel_run ~num_threads:threads (fun tid ->
         let h = K.register q tid in
         handles.(tid) <- Some h;
         let rng = Xoshiro.create ~seed:(seed + (7919 * tid)) in
         for i = 0 to per_thread - 1 do
           let payload = (tid * per_thread) + i in
           let key = Xoshiro.int rng key_range in
           key_of.(payload) <- key;
           K.insert h key payload;
           if i land 1 = 1 then
             match K.try_delete_min h with
             | None -> ()
             | Some (_, v) -> got.(v) <- got.(v) + 1
         done)
   with Sim.Thread_failure (tid, e) ->
     violation "thread %d failed: %s" tid (Printexc.to_string e));
  let faults = Chaos.stats () in
  let crashed = Chaos.crashed_tids () in
  Chaos.uninstall ();
  for p = 0 to total - 1 do
    if got.(p) > 1 then violation "payload %d delivered twice pre-kill" p
  done;
  (* The kill: every in-RAM structure is dead.  The journal's appends are
     flushed per record, so closing the channels models a process whose
     fds are reaped mid-run. *)
  Spill.close spill;
  (* Restart: reopen the same root, recover into a fresh single-thread
     queue, and drain it dry. *)
  let spill2 = Spill.create ~threshold ~num_threads:threads ~root () in
  let q2 = K.create_with ~seed ~k ~num_threads:1 () in
  let h2 = K.register q2 0 in
  let audit = Spill.recover spill2 ~link:(fun b -> K.adopt_block h2 b) in
  if audit.Audit.skipped_lines > 0 then
    violation "journal replay skipped %d lines" audit.Audit.skipped_lines;
  (* This case runs on a healthy (Real-vfs) disk: anything recovery had
     to quarantine or write off is a protocol violation here, not an
     environmental condition (bin/torture.exe owns the sick-disk grid). *)
  List.iter
    (fun (e : Audit.entry) ->
      match e.Audit.outcome with
      | Audit.Recovered -> ()
      | Audit.Quarantined why ->
          violation "object %s quarantined: %s" e.Audit.digest why
      | Audit.Lost why -> violation "instance %s lost: %s" e.Audit.iid why)
    audit.Audit.entries;
  (* The audit's books must balance whatever happened
     (recovered + quarantined + lost = spilled, in instances, items and
     bytes). *)
  List.iter (fun v -> violation "%s" v) (Oracle.store_conservation audit);
  let got2 = Array.make total 0 in
  let drained2 = ref 0 in
  let misses = ref 0 in
  while !misses < 300 do
    match K.try_delete_min h2 with
    | Some (dk, v) ->
        incr drained2;
        misses := 0;
        if v < 0 || v >= total || key_of.(v) < 0 then
          violation "recovered unknown payload %d" v
        else begin
          got2.(v) <- got2.(v) + 1;
          if dk <> key_of.(v) then
            violation "payload %d recovered under key %d, inserted as %d" v dk
              key_of.(v)
        end
    | None -> incr misses
  done;
  Spill.close spill2;
  for p = 0 to total - 1 do
    if got2.(p) > 1 then violation "payload %d recovered twice" p;
    if got.(p) > 0 && got2.(p) > 0 then
      violation "payload %d resurrected (delivered pre-kill and recovered)" p
  done;
  if !drained2 <> audit.Audit.recovered_items then
    violation "recovery drain: %d delivered, journal promised %d" !drained2
      audit.Audit.recovered_items;
  let pre_delivered = Array.fold_left ( + ) 0 got in
  {
    label = "store";
    seed;
    plan_text;
    cas_fails = faults.Chaos.cas_fails;
    stalls = faults.Chaos.stalls;
    crashes = faults.Chaos.crashes;
    violations = List.rev !violations;
    info =
      [
        ("items", total);
        ("pre_delivered", pre_delivered);
        ("recovered_blocks", audit.Audit.recovered);
        ("recovered_items", audit.Audit.recovered_items);
        ("crashed_threads", List.length crashed);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Scheduler-level case                                                *)
(* ------------------------------------------------------------------ *)

(* Virtual-time scales (Cost_model.default, nanosecond units): a task body
   is a few ns, a generated stall is 3-150 us — so the lease must sit in
   between, and the liveness timeout above the longest stall. *)
let chaos_robust =
  {
    Worker.lease = 2e-5;
    max_attempts = 6;
    retry_delay = 2e-6;
    task_deadline = infinity;
    liveness_timeout = 5e-4;
    run_deadline = 2e-2;
  }

let sched_case ?(fiber_fanout = 2) ~seed ~threads ~roots plan =
  Sim.configure ~seed ();
  let plan_text = Chaos.plan_to_string plan in
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  Chaos.install plan;
  let result =
    try
      Ok
        (CL.run
           {
             CL.default_config with
             num_workers = threads;
             roots_per_worker = roots;
             service = CL.Fixed 8;
             batch = 4;
             capacity = 256;
             seed;
             robust = chaos_robust;
             (* Fibered bodies so the steal/resume fault sites are live:
                every root forks children its workers can steal. *)
             fiber_fanout;
           }
           (CL.Registry.Klsm 8))
    with e -> Error e
  in
  let faults = Chaos.stats () in
  Chaos.uninstall ();
  match result with
  | Error e ->
      {
        label = "sched";
        seed;
        plan_text;
        cas_fails = faults.Chaos.cas_fails;
        stalls = faults.Chaos.stalls;
        crashes = faults.Chaos.crashes;
        violations = [ "run raised: " ^ Printexc.to_string e ];
        info = [];
      }
  | Ok r ->
      if r.CL.lost > 0 then
        violation "%d tasks lost (no terminal state)" r.CL.lost;
      if r.CL.gave_up then violation "run gave up (run_deadline hit): no progress";
      (* Exactly-once: the completion log must be duplicate-free even when
         faults forced re-deliveries. *)
      let seen = Hashtbl.create 256 in
      Array.iter
        (fun id ->
          if Hashtbl.mem seen id then violation "task %d completed twice" id
          else Hashtbl.add seen id ())
        r.CL.completion_order;
      if
        Array.length r.CL.completion_order + r.CL.dead_lettered
        <> r.CL.total_tasks
      then
        violation "accounting: %d completed + %d dead <> %d allocated"
          (Array.length r.CL.completion_order)
          r.CL.dead_lettered r.CL.total_tasks;
      (* The at-least-once window (docs/CHAOS.md): after a lease times out,
         the supervisor's re-enqueue may race the original worker, so an
         id can be delivered twice (completion stays exactly-once via the
         CAS above).  Each extra delivery — a re-lease that ran the body
         again ([retries]) or a delivery that lost the lease race
         ([double_claims]) — is caused by exactly one re-enqueue push, so
         their sum is bounded by reenqueues; more would mean ids
         multiplying without a supervisor handoff, a real bug. *)
      let extra =
        r.CL.metrics.Klsm_sched.Metrics.retries
        + r.CL.metrics.Klsm_sched.Metrics.double_claims
      in
      if extra > r.CL.metrics.Klsm_sched.Metrics.reenqueues then
        violation
          "%d extra deliveries (%d re-leased, %d lease races) exceed %d \
           reenqueues"
          extra r.CL.metrics.Klsm_sched.Metrics.retries
          r.CL.metrics.Klsm_sched.Metrics.double_claims
          r.CL.metrics.Klsm_sched.Metrics.reenqueues;
      {
        label = "sched";
        seed;
        plan_text;
        cas_fails = faults.Chaos.cas_fails;
        stalls = faults.Chaos.stalls;
        crashes = faults.Chaos.crashes;
        violations = List.rev !violations;
        info =
          [
            ("tasks", r.CL.total_tasks);
            ("completed", Array.length r.CL.completion_order);
            ("dead_lettered", r.CL.dead_lettered);
            ("retries", r.CL.metrics.Klsm_sched.Metrics.retries);
            ("timeouts", r.CL.metrics.Klsm_sched.Metrics.timeouts);
            ("reenqueues", r.CL.metrics.Klsm_sched.Metrics.reenqueues);
            ("worker_deaths", r.CL.metrics.Klsm_sched.Metrics.worker_deaths);
            ("late_completions",
             r.CL.metrics.Klsm_sched.Metrics.late_completions);
            ("double_deliveries", r.CL.double);
            (* > 0 under crashes is the expected signature: a killed
               worker's fibers never finish, and recovery re-runs their
               attempt with fresh ones. *)
            ("fibers_lost", r.CL.fiber_lost);
            ("steals", r.CL.metrics.Klsm_sched.Metrics.steals);
          ];
      }

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)
(* ------------------------------------------------------------------ *)

let queue_sites =
  [
    "shared.push_snapshot.before";
    "shared.push_snapshot.after";
    "dist.insert.pre_size";
    "dist.insert.spill";
    "dist.spy.block";
    "dist.consolidate.pre_size";
    "block_array.consolidate";
  ]

(* The striped queue with its deletion buffer on reaches every queue
   site plus three of its own (spill publish, home migration,
   deletion-buffer flush). *)
let sharded_sites =
  queue_sites @ [ "klsm.spill.publish"; "klsm.migrate"; "klsm.dbuf.flush" ]

(* Scheduler runs have no spill tier, so the store.* fault points never
   fire there; drawing them would only dilute the sched sweep. *)
let sched_sites =
  List.filter
    (fun s -> not (String.length s > 6 && String.sub s 0 6 = "store."))
    Chaos.sites

(** One deterministic plan per seed, alternating case kinds and cycling
    the primary fault kind (see {!Chaos.random_plan}); every third seed
    adds a second rule so multi-fault runs are covered too.  Odd indices
    stress the hardened scheduler; even indices alternate between the
    paper's queue (S = 1) and the striped one with its deletion buffer
    on. *)
let case_for ~threads ~per_thread ~roots ~k i seed =
  let rng = Xoshiro.create ~seed:(seed * 31 + 17) in
  let sched = i mod 2 = 1 in
  let sharded = (not sched) && i mod 4 = 2 in
  let sites =
    if sched then sched_sites
    else if sharded then sharded_sites
    else queue_sites
  in
  let rules = 1 + (if i mod 3 = 0 then 1 else 0) in
  let plan =
    Chaos.random_plan ~rng ~sites ~num_threads:threads ~rules i
  in
  if sched then sched_case ~seed ~threads ~roots plan
  else if sharded then
    (* A modest §17 deletion buffer so the random draw can land on the
       dbuf-flush site (and the buffered-crash exemption gets coverage);
       kp = ceil(k/2) bounds dbuf. *)
    queue_case ~shards:2 ~dbuf:2 ~seed ~threads ~per_thread ~k plan
  else queue_case ~seed ~threads ~per_thread ~k plan

(** Fixed sharded-queue plans the ISSUE's acceptance bar names explicitly
    (appended to every sweep so the gate always exercises them, whatever
    the random site draw does):

    - a crash in the middle of a stripe publish — after the blocks are
      marked published, before/around the installing CAS;
    - a CAS-failure storm concentrated on one stripe: [n] consecutive
      arrivals at the home stripe's publish CAS are forced to fail, which
      both stresses the retry loop and (past {!Klsm_core.Klsm}'s
      migration threshold) forces a home-stripe migration under fire;
    - two deletion-buffer cases ([~dbuf]): a kill with a nonempty buffer
      (mid-flush, the claimed remainder dies with the crasher) and a kill
      at the batch claim's publish CAS itself (the staged run is exempt
      whichever way the CAS went). *)
let sharded_targeted ~threads ~per_thread ~k ~shards ~seed0 =
  (* A storm aimed at one thread: its first [n] arrivals at the publish
     CAS all fail, and (spills all target its home stripe) the home-stripe
     failure streak crosses migrate_threshold = 8 with no intervening
     success to reset it — a deterministic migration under fire. *)
  let storm ?tid n site =
    List.init n (fun i -> Chaos.rule ?tid ~hit:(i + 1) site Chaos.Cas_fail)
  in
  ([
     (* Crash a non-drainer thread mid-stripe-publish, both sides. *)
     [ Chaos.rule ~tid:1 ~hit:2 "klsm.spill.publish" Chaos.Crash ];
     [ Chaos.rule ~tid:2 ~hit:3 "shared.push_snapshot.before" Chaos.Crash ];
     (* CAS storms: one concentrated on thread 1's stripe (must migrate),
        one spread over everyone (must merely survive). *)
     storm ~tid:1 12 "shared.push_snapshot.before";
     storm 12 "shared.push_snapshot.before"
     @ [ Chaos.rule ~tid:3 ~hit:1 "klsm.migrate" (Chaos.Stall 40) ];
   ]
  |> List.mapi (fun i plan ->
         queue_case ~shards ~seed:(seed0 + i) ~threads ~per_thread ~k plan)
  )
  @ [
      (* Kill thread 1 with a nonempty deletion buffer ([~dbuf]; DESIGN.md
         §17): the crash lands inside flush_dbuf, before the first
         reinsert, so the whole buffered remainder — items the batch CAS
         already claimed out of the stripe — dies with the crasher.  The
         exemption above must absorb exactly those items; everything
         already served from the buffer, and everything still in the
         stripes, must survive with no duplicates. *)
      queue_case ~shards ~dbuf:4 ~seed:(seed0 + 4) ~threads ~per_thread ~k
        [ Chaos.rule ~tid:1 ~hit:1 "klsm.dbuf.flush" Chaos.Crash ];
      (* Kill thread 2 in the middle of a batch claim, at the publish CAS
         itself: the staged run ([internal_dbuf_pending]) is in limbo —
         claimed if the CAS won, still queued if it lost — and the
         either-way exemption must hold. *)
      queue_case ~shards ~dbuf:4 ~seed:(seed0 + 5) ~threads ~per_thread ~k
        [ Chaos.rule ~tid:2 ~hit:4 "shared.push_snapshot.before" Chaos.Crash ];
    ]

(** Fixed scheduler plans aimed at the fiber runtime's two crash windows
    (docs/CHAOS.md):

    - a kill {e between steal and resume}: worker 1 wins the steal CAS on
      a victim's fiber and dies before running it — the fiber is gone
      from every deque, so recovery {e must} come from the lease (the
      attempt's live-fiber counter never reaches zero, the lease expires,
      a fresh attempt re-runs the whole body) and completion must stay
      exactly-once;
    - a kill {e at a fiber resumption}: the finisher of an awaited fiber
      dies exactly as it resumes the parked waiter, taking both fibers'
      progress down mid-task;
    - a stall between steal and resume: the stolen fiber is invisible to
      everyone for 40 cost units while its task's lease keeps ticking —
      the late-completion path must absorb the re-lease race. *)
let sched_targeted ~threads ~roots ~seed0 =
  [
    [ Chaos.rule ~tid:1 ~hit:1 "sched.steal" Chaos.Crash ];
    [ Chaos.rule ~tid:2 ~hit:2 "sched.fiber.resume" Chaos.Crash ];
    [ Chaos.rule ~tid:1 ~hit:1 "sched.steal" (Chaos.Stall 40) ];
  ]
  |> List.mapi (fun i plan ->
         sched_case ~fiber_fanout:3 ~seed:(seed0 + i) ~threads ~roots plan)

(** Fixed spill-tier plans (the ISSUE's kill-and-restart acceptance bar),
    every one followed by a full process-death + {!Spill.recover} cycle:

    - a kill {e mid-spill}, after the object file and [S] record are
      durable but before the cold twin links — the items have no live RAM
      pointer (claim-first protocol) and {e must} come back via recovery;
    - a kill {e mid-rehydrate}, before the [R] record — the instance must
      stay live and recover intact;
    - a kill {e mid-publish} with spilled blocks in flight;
    - a stall mid-spill, letting every other thread run against the
      half-spilled state (items claimed, cold twin unpublished). *)
let store_targeted ~threads ~per_thread ~k ~seed0 =
  [
    [ Chaos.rule ~tid:1 ~hit:1 "store.spill" Chaos.Crash ];
    [ Chaos.rule ~tid:2 ~hit:1 "store.rehydrate" Chaos.Crash ];
    [ Chaos.rule ~tid:1 ~hit:2 "shared.push_snapshot.before" Chaos.Crash ];
    [ Chaos.rule ~hit:3 "store.spill" (Chaos.Stall 20_000) ];
  ]
  |> List.mapi (fun i plan ->
         store_case ~seed:(seed0 + i) ~threads ~per_thread ~k ~threshold:64
           plan)

(** Run [seeds] random cases starting at [seed0] (queue / sharded-queue /
    scheduler rotation), then the fixed sharded-queue plans, the fixed
    steal/resume crash plans, then the fixed store kill-and-restart
    plans. *)
let sweep ?(seed0 = 0xC4A05) ?(threads = 4) ?(per_thread = 400) ?(roots = 60)
    ?(k = 8) ~seeds () =
  List.init seeds (fun i ->
      case_for ~threads ~per_thread ~roots ~k i (seed0 + i))
  @ sharded_targeted ~threads ~per_thread ~k ~shards:2 ~seed0:(seed0 + seeds)
  @ sched_targeted ~threads ~roots ~seed0:(seed0 + seeds + 8)
  @ store_targeted ~threads ~per_thread ~k ~seed0:(seed0 + seeds + 16)

(* ------------------------------------------------------------------ *)
(* Teeth: the planted-bug check                                        *)
(* ------------------------------------------------------------------ *)

(** Flip Listing 4's publication order and aim crashes between the two
    (now reversed) writes: the conservation check must catch the planted
    loss on at least one plan.  Returns [(caught, cases)]. *)
let teeth ?(seed0 = 0x7EE7) ?(threads = 4) ?(per_thread = 400) ~plans () =
  Dist_lsm.test_only_flip_publication_order := true;
  let cases =
    Fun.protect
      ~finally:(fun () -> Dist_lsm.test_only_flip_publication_order := false)
      (fun () ->
        List.init plans (fun i ->
            (* Vary the hit index so some crash lands on a merge publish
               (a merge-free insert consumes no blocks, so a crash there
               only strands the crasher's own in-flight item, which the
               fault model forgives).  k = 64 keeps the local LSMs deep
               enough that merges routinely consume multi-item blocks. *)
            let plan =
              [ Chaos.rule ~tid:1 ~hit:(3 + (5 * i)) "dist.insert.pre_size"
                  Chaos.Crash ]
            in
            queue_case ~seed:(seed0 + i) ~threads ~per_thread ~k:64 plan))
  in
  let caught = List.exists (fun c -> c.violations <> []) cases in
  (caught, cases)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let totals cases =
  List.fold_left
    (fun (c, s, k, v) r ->
      ( c + r.cas_fails,
        s + r.stalls,
        k + r.crashes,
        v + List.length r.violations ))
    (0, 0, 0, 0) cases

let case_to_json r =
  Report.Obj
    ([
       ("case", Report.String r.label);
       ("seed", Report.Int r.seed);
       ("plan", Report.String r.plan_text);
       ("cas_fails", Report.Int r.cas_fails);
       ("stalls", Report.Int r.stalls);
       ("crashes", Report.Int r.crashes);
       ( "violations",
         Report.List (List.map (fun v -> Report.String v) r.violations) );
     ]
    @ List.map (fun (name, v) -> (name, Report.Int v)) r.info)

let to_json ?teeth_caught cases =
  let cas_fails, stalls, crashes, violations = totals cases in
  Report.Obj
    ([
       ("benchmark", Report.String "chaos");
       ("backend", Report.String Sim.name);
       ("cases", Report.Int (List.length cases));
       ("cas_fails", Report.Int cas_fails);
       ("stalls", Report.Int stalls);
       ("crashes", Report.Int crashes);
       ("violations", Report.Int violations);
     ]
    @ (match teeth_caught with
      | None -> []
      | Some caught -> [ ("teeth_caught", Report.Bool caught) ])
    @ [ ("results", Report.List (List.map case_to_json cases)) ])
