(** The chaos sweep driver: seeds × fault plans on the simulator, run by
    [bin/chaos.exe].

    Two kinds of cases, both run under an installed {!Chaos} plan:

    - {b queue cases} drive the combined k-LSM directly with uniquely
      tagged payloads while a {!Klsm_harness.Oracle} shadows every insert
      and delete.  Each thread ends by draining the queue under the plan,
      spying the others once it runs dry; after the run a survivor drains
      what is left and the case asserts {e conservation}: every payload
      whose insert returned comes out exactly once (a crashed thread's
      single in-flight payload may vanish with it; payloads it never
      reached are not owed),
      nothing comes out twice, the oracle never sees a key deleted twice, and the
      structural invariants (strictly decreasing block levels, sorted
      blocks) still hold for the shared array and every surviving
      thread-local LSM.
    - {b sched cases} run a {!Klsm_sched.Closed_loop} workload with the
      robustness knobs on (leases, retries, dead-lettering, supervision)
      on [klsm:8] or [klsm-sharded:8:2], workers pulling 4 ids per round
      trip, and assert that every admitted task reaches a terminal state
      ([lost = 0]), nothing completes twice (the completion log has no
      duplicate ids), and the run makes bounded virtual-time progress
      (no give-up) — the no-deadlock half of the acceptance bar.  A pull
      claims a run of ids with one publish CAS, so a crash between that
      CAS and the takes prunes ids whose tasks stay [Pending]: the rescue
      sweep must recover them.

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
  visits : (string * int) list;
      (** fault-point arrivals per site ({!Chaos.visits}) *)
  rules : (string * bool) list;  (** each planned rule's site, and if it fired *)
}

(* What the case's run reached: its fault-point arrivals per site and the
   fate of each planned rule.  Read before the next {!Chaos.install}. *)
let reach plan =
  (Chaos.visits (), List.map (fun r -> (r.Chaos.site, r.Chaos.fired)) plan)

let key_range = 1 lsl 16

(* ------------------------------------------------------------------ *)
(* Queue-level case                                                    *)
(* ------------------------------------------------------------------ *)

(** Conservation case for the k-LSM ([~shards], default 1 — the paper's
    queue).  With [S > 1] the stripe-publish protocol steps sit under
    fault pressure too — crashes mid-stripe-publish ([klsm.spill.publish],
    [shared.push_snapshot.before]) must not lose already-inserted items,
    and CAS-failure storms on one stripe must only slow things down, never
    break conservation.  Structural invariants are asserted per stripe. *)
let queue_case ?(shards = 1) ~seed ~threads ~per_thread ~k plan =
  Sim.configure ~seed ();
  let plan_text = Chaos.plan_to_string plan in
  (* Latch counters on for this queue's sheet so the report can show the
     stripe-level fault response (CAS failures absorbed); the sheet
     records without synchronization, so the schedule is unchanged. *)
  let was_obs = Obs.enabled () in
  Obs.set_enabled true;
  let q = K.create_with ~seed ~k ~shards ~num_threads:threads () in
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
  (* Delete until [h] misses 300 times in a row.  Once its own LSM and the
     shared component run dry, a delete consolidates its LSM and spies the
     others' (spy picks random victims, hence the miss bound, the same as
     bin/fuzz.ml's). *)
  let drained = ref 0 in
  let drain h =
    let misses = ref 0 in
    while !misses < 300 do
      match K.try_delete_min h with
      | Some (dk, v) ->
          incr drained;
          got.(v) <- got.(v) + 1;
          note_delete dk;
          misses := 0
      | None -> incr misses
    done
  in
  (* Structural invariants of every stripe's published array (blocks,
     pivots, ends and the array's bound; Block.check_invariants also
     asserts the SoA keys mirror and that no Retired block is reachable)
     and of the thread-local LSMs of [hs].  A published array's checks
     hold while other threads run, so a thread may make them mid-run; an
     LSM's hold between its owner's operations, so mid-run only its owner
     may check it. *)
  let check_structures ~phase hs =
    Array.iteri
      (fun i stripe ->
        try
          match Shared.peek_shared stripe with
          | None -> ()
          | Some arr -> Block_array.check_invariants ~published:true arr
        with Failure msg ->
          violation "%s: stripe[%d] invariant: %s" phase i msg)
      (K.internal_stripes q);
    List.iter
      (fun h ->
        try K.Dist_lsm.check_invariants (K.internal_dist h)
        with Failure msg ->
          violation "%s: dist[%d] invariant: %s" phase h.K.tid msg)
      hs
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
              part-way through the insert (same pattern as Throughput's
              rank oracle). *)
           Oracle.insert oracle key;
           K.insert h key payload;
           submitted.(payload) <- true;
           if i land 1 = 1 then
             match K.try_delete_min h with
             | None -> ()
             | Some (dk, v) ->
                 got.(v) <- got.(v) + 1;
                 note_delete dk
         done;
         (* Before its drain empties them, the thread checks the arrays
            the stripes publish and its own LSM. *)
         check_structures ~phase:"before drain" [ h ];
         (* Drain under the plan, so the spy and the consolidation
            before it run with faults armed. *)
         drain h)
   with Sim.Thread_failure (tid, e) ->
     violation "thread %d failed: %s" tid (Printexc.to_string e));
  let faults = Chaos.stats () in
  let visits, rules = reach plan in
  let crashed = Chaos.crashed_tids () in
  Chaos.uninstall ();
  let survivors =
    Array.to_list handles
    |> List.filteri (fun tid _ -> not (List.mem tid crashed))
    |> List.filter_map Fun.id
  in
  (* Survivor drain, faults off: whatever the in-plan drains left — the
     items of a thread that crashed, or that a stall held back — must
     still be reachable through spy. *)
  (match survivors with
  | [] -> violation "no surviving thread to drain with"
  | h :: _ -> drain h);
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
  check_structures ~phase:"after drain" survivors;
  (* Pool-reuse safety (paper §4.4 adapted; DESIGN.md §11): a recycled
     array must never belong to a block a published structure reaches.
     Collect every block physically reachable from the stripe snapshots
     and the surviving thread-local LSMs, and assert that no array pair in
     a surviving thread's freelist is one of theirs (physical
     equality of either array). *)
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
  let owns (rb : _ K.Block.t) (items, keys) =
    rb.K.Block.keys == keys
    ||
    match rb.K.Block.payload with
    | K.Block.Resident a -> a == items
    | K.Block.Spilled _ -> false
  in
  List.iter
    (fun h ->
      Array.iteri
        (fun lvl free ->
          List.iter
            (fun pair ->
              if List.exists (fun rb -> owns rb pair) !reachable then
                violation "pool[%d] level-%d arrays aliased by a live structure"
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
    visits;
    rules;
    violations = List.rev !violations;
    info =
      [
        ("items", total);
        ("drained", !drained);
        ("max_rank_error", !max_rank_error);
        ("crashed_threads", List.length crashed);
        ("stripe_cas_fail", stat "stripe.cas_fail");
        ("batch_claim", stat "shared.batch_claim");
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
  let visits, rules = reach plan in
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
    visits;
    rules;
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
    liveness_timeout = 5e-4;
    run_deadline = 2e-2;
  }

(** Scheduler case on [klsm:8], or with [~sharded] on
    [klsm-sharded:8:2].  Workers pull [pull] ids per round trip
    ([Closed_loop.config.pull]; default 1, the scheduler's own default):
    a pull of more than one whose minimum sits in a stripe claims a run
    with one publish CAS ({!Klsm_core.Klsm.try_delete_min_batch}), a pull
    of one takes a single item. *)
let sched_case ?(fiber_fanout = 2) ?(sharded = false) ?(pull = 1) ~seed
    ~threads ~roots plan =
  Sim.configure ~seed ();
  let label = if sharded then "sched-shard" else "sched" in
  let plan_text = Chaos.plan_to_string plan in
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  Chaos.install plan;
  (* Counters on, so the report shows the run claims the plan ran
     against; the sheets record without synchronization, so the schedule
     is unchanged. *)
  let was_obs = Obs.enabled () in
  Obs.set_enabled true;
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
             pull;
             capacity = 256;
             seed;
             robust = chaos_robust;
             (* Fibered bodies so the steal/resume fault sites are live:
                every root forks children its workers can steal. *)
             fiber_fanout;
           }
           (if sharded then CL.Registry.klsm_sharded 8 2
            else CL.Registry.Klsm 8))
    with e -> Error e
  in
  Obs.set_enabled was_obs;
  let faults = Chaos.stats () in
  let visits, rules = reach plan in
  Chaos.uninstall ();
  match result with
  | Error e ->
      {
        label;
        seed;
        plan_text;
        cas_fails = faults.Chaos.cas_fails;
        stalls = faults.Chaos.stalls;
        crashes = faults.Chaos.crashes;
        visits;
        rules;
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
      let stat name =
        match List.assoc_opt name r.CL.queue_stats.Obs.counters with
        | Some per -> Array.fold_left ( + ) 0 per
        | None -> 0
      in
      {
        label;
        seed;
        plan_text;
        cas_fails = faults.Chaos.cas_fails;
        stalls = faults.Chaos.stalls;
        crashes = faults.Chaos.crashes;
        visits;
        rules;
        violations = List.rev !violations;
        info =
          [
            ("tasks", r.CL.total_tasks);
            ("batch_claim", stat "shared.batch_claim");
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

(* A queue case's threads drain the queue under the plan, so their
   deletes run dry and spy ([dist.spy.block]) after consolidating their
   own LSM ([dist.consolidate.pre_size]). *)
let queue_sites =
  [
    "shared.push_snapshot.before";
    "shared.push_snapshot.after";
    "dist.insert.pre_size";
    "dist.insert.spill";
    "dist.consolidate.pre_size";
    "dist.spy.block";
    "block_array.consolidate";
  ]

(* The striped queue reaches every queue site plus its spill publish.
   Its cases delete one item at a time, so they claim no run; the sched
   kinds cover a claim's window ([shared.batch.claimed]). *)
let sharded_sites = queue_sites @ [ "klsm.spill.publish" ]

(* Scheduler runs have no spill tier, and every task enters the queue
   through [insert_batch], which publishes a block to the stripe without
   a thread-local insert: the store.* fault points and dist.insert.spill
   never fire there; drawing them would only dilute the sched sweep.
   Half of each kind's cases pull one id per round trip, which takes
   single items and leaves them dead in the stripe for
   block_array.consolidate; the other half pull 4, which claims runs and
   reaches shared.batch.claimed. *)
let sched_sites =
  List.filter
    (fun s ->
      s <> "dist.insert.spill"
      && not (String.length s > 6 && String.sub s 0 6 = "store."))
    Chaos.sites

(** One deterministic plan per seed, alternating case kinds and cycling
    the primary fault kind (see {!Chaos.random_plan}); every third seed
    adds a second rule so multi-fault runs are covered too.  Odd indices
    stress the hardened scheduler, alternating between [klsm:8] and
    [klsm-sharded:8:2], and within each of those between pulls of 4 and
    pulls of one; even indices alternate between the paper's queue
    (S = 1) and the striped one (S = 2). *)
let case_for ~threads ~per_thread ~roots ~k i seed =
  let rng = Xoshiro.create ~seed:(seed * 31 + 17) in
  let sched = i mod 2 = 1 in
  let sharded = i mod 4 >= 2 in
  let sites =
    if sched then sched_sites
    else if sharded then sharded_sites
    else queue_sites
  in
  let rules = 1 + (if i mod 3 = 0 then 1 else 0) in
  let plan =
    Chaos.random_plan ~rng ~sites ~num_threads:threads ~rules i
  in
  if sched then
    sched_case ~sharded ~pull:(if i / 4 mod 2 = 0 then 4 else 1) ~seed
      ~threads ~roots plan
  else
    queue_case
      ~shards:(if sharded then 2 else 1)
      ~seed ~threads ~per_thread ~k plan

(** [r], the result of a case run on the fixed [plan], with a violation
    for every rule of [plan] that never fired.  A fixed plan aims at its
    sites on purpose, so a rule that never fires means the workload
    stopped reaching that site, and the case would pass while injecting
    nothing there.  Generated plans are exempt: their hit indices are
    drawn blind. *)
let require_fired plan r =
  match List.filter (fun rule -> not rule.Chaos.fired) plan with
  | [] -> r
  | missed ->
      let miss rule =
        "planned rule never fired: " ^ Chaos.rule_to_string rule
      in
      { r with violations = r.violations @ List.map miss missed }

(** Fixed sharded-queue plans the ISSUE's acceptance bar names explicitly
    (appended to every sweep so the gate always exercises them, whatever
    the random site draw does):

    - a crash in the middle of a stripe publish — after the blocks are
      marked published, before/around the installing CAS;
    - CAS-failure storms: [n] consecutive arrivals at the publish CAS are
      forced to fail, once concentrated on one thread's home stripe and
      once spread over every thread — each lost CAS is retried on the
      same stripe (Listing 3), and conservation must survive the storm;
    - two spy cases: thread 1 stalls in an insert while the others
      drain, run dry and spy its LSM, and the first thief is killed
      between the blocks it copies (the copies share their items with the
      victim, so nothing may be lost or delivered twice) or stalled there
      until the victim wakes and deletes under it;
    - two thread-local consolidation cases at k = 64: a kill of thread 1,
      and a stall of the first arrival, after a consolidation published
      its rebuilt blocks and before it shrank [size].  At k = 8 a thread
      that runs dry seldom holds a slot (its LSM holds at most 3 items at
      S = 2, and a spill empties it), so it never consolidates; at k = 64
      its LSM holds up to 31 items, spies take them, and the owner finds
      its slots dead. *)
let sharded_targeted ~threads ~per_thread ~k ~shards ~seed0 =
  (* A storm of [n] consecutive forced failures at [site], optionally
     aimed at one thread. *)
  let storm ?tid n site =
    List.init n (fun i -> Chaos.rule ?tid ~hit:(i + 1) site Chaos.Cas_fail)
  in
  ([
     (* Crash a non-drainer thread mid-stripe-publish, both sides. *)
     [ Chaos.rule ~tid:1 ~hit:2 "klsm.spill.publish" Chaos.Crash ];
     [ Chaos.rule ~tid:2 ~hit:3 "shared.push_snapshot.before" Chaos.Crash ];
     (* CAS storms: one concentrated on thread 1's stripe, one spread
        over everyone. *)
     storm ~tid:1 12 "shared.push_snapshot.before";
     storm 12 "shared.push_snapshot.before";
   ]
  |> List.mapi (fun i plan ->
         require_fired plan
           (queue_case ~shards ~seed:(seed0 + i) ~threads ~per_thread ~k plan))
  )
  @ ([
       [
         Chaos.rule ~tid:1 ~hit:5 "dist.insert.pre_size" (Chaos.Stall 200_000);
         Chaos.rule "dist.spy.block" Chaos.Crash;
       ];
       [
         Chaos.rule ~tid:1 ~hit:5 "dist.insert.pre_size" (Chaos.Stall 50_000);
         Chaos.rule "dist.spy.block" (Chaos.Stall 100_000);
       ];
     ]
    |> List.mapi (fun i plan ->
           require_fired plan
             (queue_case ~shards ~seed:(seed0 + 6 + i) ~threads ~per_thread ~k
                plan)))
  @ ([
       [ Chaos.rule ~tid:1 ~hit:1 "dist.consolidate.pre_size" Chaos.Crash ];
       [ Chaos.rule ~hit:1 "dist.consolidate.pre_size" (Chaos.Stall 50_000) ];
     ]
    |> List.mapi (fun i plan ->
           require_fired plan
             (queue_case ~shards ~seed:(seed0 + 8 + i) ~threads ~per_thread
                ~k:64 plan)))

(** Fixed plans aimed at the shared array's consolidation
    ([block_array.consolidate]) on the paper's queue.  A find-min
    re-pivots a candidate set that ran dry and re-selects a candidate
    lost to a concurrent take, so a queue case consolidates a few times
    per thread, not on every delete, and a generated rule there with a
    high hit index may never fire.  These plans keep the site under fault
    pressure whatever the draw: a crash mid-consolidation (the snapshot
    is private, so nothing may be lost), a CAS failure armed on entry
    (the thread's next publish loses and is retried), and a stall that
    lets every other thread run ahead of the stalled snapshot. *)
let consolidate_targeted ~threads ~per_thread ~k ~seed0 =
  [
    [ Chaos.rule ~tid:1 ~hit:1 "block_array.consolidate" Chaos.Crash ];
    [ Chaos.rule ~hit:2 "block_array.consolidate" Chaos.Cas_fail ];
    [ Chaos.rule ~tid:2 ~hit:1 "block_array.consolidate" (Chaos.Stall 20_000) ];
  ]
  |> List.mapi (fun i plan ->
         require_fired plan
           (queue_case ~seed:(seed0 + i) ~threads ~per_thread ~k plan))

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
      the late-completion path must absorb the re-lease race;
    - a kill {e inside a run claim}, on [klsm:8] and on
      [klsm-sharded:8:2] with pulls of 4: worker 1 dies after its claim's
      publish CAS pruned a run of ids from the stripe and before it took
      them, so their tasks stay [Pending] where no stripe holds them, and
      the rescue sweep (or a survivor's older snapshot) must bring them
      back, exactly once.

    The first three pull one id per round trip, as the scheduler does by
    default. *)
let sched_targeted ~threads ~roots ~seed0 =
  ([
     [ Chaos.rule ~tid:1 ~hit:1 "sched.steal" Chaos.Crash ];
     [ Chaos.rule ~tid:2 ~hit:2 "sched.fiber.resume" Chaos.Crash ];
     [ Chaos.rule ~tid:1 ~hit:1 "sched.steal" (Chaos.Stall 40) ];
   ]
  |> List.mapi (fun i plan ->
         require_fired plan
           (sched_case ~fiber_fanout:3 ~seed:(seed0 + i) ~threads ~roots plan)))
  @ List.mapi
      (fun i sharded ->
        let plan =
          [ Chaos.rule ~tid:1 ~hit:1 "shared.batch.claimed" Chaos.Crash ]
        in
        require_fired plan
          (sched_case ~sharded ~pull:4 ~seed:(seed0 + 3 + i) ~threads ~roots
             plan))
      [ false; true ]

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
         require_fired plan
           (store_case ~seed:(seed0 + i) ~threads ~per_thread ~k ~threshold:64
              plan))

(** Run [seeds] random cases starting at [seed0] (queue / sharded-queue /
    scheduler rotation), then the fixed sharded-queue plans, the fixed
    steal/resume crash plans, the fixed store kill-and-restart plans, then
    the fixed consolidation plans.  Every rule of a fixed plan must fire
    ({!require_fired}).  Returns the random cases and the fixed ones
    apart: {!coverage} reads only the former. *)
let sweep ?(seed0 = 0xC4A05) ?(threads = 4) ?(per_thread = 400) ?(roots = 60)
    ?(k = 8) ~seeds () =
  ( List.init seeds (fun i ->
        case_for ~threads ~per_thread ~roots ~k i (seed0 + i)),
    sharded_targeted ~threads ~per_thread ~k ~shards:2 ~seed0:(seed0 + seeds)
    @ sched_targeted ~threads ~roots ~seed0:(seed0 + seeds + 8)
    @ store_targeted ~threads ~per_thread ~k ~seed0:(seed0 + seeds + 16)
    @ consolidate_targeted ~threads ~per_thread ~k ~seed0:(seed0 + seeds + 24)
  )

(** One row of the random sweep's coverage table: over the cases of one
    kind, how many rules were drawn on [site], how many of them fired, and
    how often the runs reached the site at all. *)
type coverage = {
  kind : string;  (** a case label *)
  site : string;
  drawn : int;
  fired : int;
  visits : int;
}

(* Every case kind of the random sweep, with the sites its plans are
   drawn from ({!case_for}). *)
let kinds =
  [
    ("queue", queue_sites);
    ("shard", sharded_sites);
    ("sched", sched_sites);
    ("sched-shard", sched_sites);
  ]

(** The table for [cases] (random cases, as {!sweep} returns them): one
    row per case kind and site of the list that kind's plans are drawn
    from ({!case_for}).  A row with no visits names a site the kind's
    workload never reaches, so every rule drawn there is wasted. *)
let coverage cases =
  List.concat_map
    (fun (kind, sites) ->
      let mine = List.filter (fun (c : case_result) -> c.label = kind) cases in
      let sum f = List.fold_left (fun acc c -> acc + f c) 0 mine in
      let count site keep c =
        List.length (List.filter (fun (s, f) -> s = site && keep f) c.rules)
      in
      List.map
        (fun site ->
          {
            kind;
            site;
            drawn = sum (count site (fun _ -> true));
            fired = sum (count site Fun.id);
            visits =
              sum (fun c ->
                  Option.value (List.assoc_opt site c.visits) ~default:0);
          })
        sites)
    kinds

(** Run claims ([shared.batch_claim]) per case kind of [cases]: a kind at
    0 never claimed a run under its plans, so no fault of theirs can have
    landed between a claim's publish CAS and its takes. *)
let claims cases =
  List.map
    (fun (kind, _) ->
      ( kind,
        List.fold_left
          (fun acc c ->
            if c.label <> kind then acc
            else
              acc + Option.value ~default:0 (List.assoc_opt "batch_claim" c.info))
          0 cases ))
    kinds

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

let coverage_to_json r =
  Report.Obj
    [
      ("kind", Report.String r.kind);
      ("site", Report.String r.site);
      ("drawn", Report.Int r.drawn);
      ("fired", Report.Int r.fired);
      ("visits", Report.Int r.visits);
    ]

let to_json ?teeth_caught ?(coverage = []) ?(claims = []) cases =
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
    @ [
        ( "claims",
          Report.Obj (List.map (fun (kind, n) -> (kind, Report.Int n)) claims) );
        ("coverage", Report.List (List.map coverage_to_json coverage));
        ("results", Report.List (List.map case_to_json cases));
      ])
