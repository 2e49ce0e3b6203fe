(** Per-worker scheduling metrics.

    Each worker owns one {!worker} record and mutates it without
    synchronization (records are read only after [parallel_run] joins), so
    metric collection adds no contention — essential under the simulator,
    where every atomic access is charged coherence cost and would distort
    the very schedule being measured.

    Two series are recorded per executed task:

    - {b queueing delay}: seconds between submission and the start of
      execution — the latency the layer above the queue actually sees;
    - {b slack}: the priority-inversion magnitude at dequeue, measured as
      [max 0 (p_prev - p)] where [p_prev] is the priority of the task
      started immediately before (globally).  A relaxed queue serving
      out of order produces positive slack; the mean/p99 of this series is
      an oracle-free lower bound on rank error that works on the real
      backend too (the exact rank-error experiment lives in
      {!Klsm_harness.Quality}). *)

module Stats = Klsm_primitives.Stats

(** Growable float series; amortized O(1) push, no boxing beyond the
    float array itself. *)
type series = { mutable data : float array; mutable len : int }

let series () = { data = Array.make 64 0.0; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

type worker = {
  mutable executed : int;
  mutable submitted : int;  (** root tasks admitted by this worker *)
  mutable spawned : int;  (** children spawned by tasks this worker ran *)
  mutable flushes : int;  (** submitter buffer flushes *)
  mutable urgent_flushes : int;  (** flushes forced by priority inversion *)
  mutable rejected : int;  (** admission-control rejections (backpressure) *)
  mutable empty_pops : int;  (** delete-mins that found nothing *)
  mutable double_claims : int;
      (** lost lease/claim races; 0 unless faults force re-deliveries *)
  mutable shed : int;  (** admitted tasks dropped at a full task table *)
  mutable timeouts : int;  (** lease expiries this worker detected *)
  mutable retries : int;  (** bodies executed with attempt number > 1 *)
  mutable reenqueues : int;  (** parked/lost tasks this worker re-queued *)
  mutable late_completions : int;
      (** bodies that finished after the task's fate was sealed elsewhere *)
  mutable worker_deaths : int;  (** peers this worker declared dead *)
  mutable fibers : int;  (** fibers this worker created (roots + forks) *)
  mutable fibers_completed : int;
      (** fiber thunks that finished on this worker — equals the summed
          [fibers] after a fault-free run (per-fiber exactly-once) *)
  mutable fiber_suspends : int;  (** awaits/yields that actually parked *)
  mutable fiber_resumes : int;  (** parked fibers continued by this worker *)
  mutable steal_attempts : int;  (** Deque.steal calls on victims *)
  mutable steals : int;  (** attempts that took a fiber *)
  mutable steal_fallbacks : int;
      (** scheduling steps that found deque and victims dry and fell back
          to the shared queue's delete-min *)
  delays : series;  (** queueing delay per executed task, seconds *)
  slacks : series;  (** dequeue priority inversion per task, key units *)
}

let fresh_worker () =
  {
    executed = 0;
    submitted = 0;
    spawned = 0;
    flushes = 0;
    urgent_flushes = 0;
    rejected = 0;
    empty_pops = 0;
    double_claims = 0;
    shed = 0;
    timeouts = 0;
    retries = 0;
    reenqueues = 0;
    late_completions = 0;
    worker_deaths = 0;
    fibers = 0;
    fibers_completed = 0;
    fiber_suspends = 0;
    fiber_resumes = 0;
    steal_attempts = 0;
    steals = 0;
    steal_fallbacks = 0;
    delays = series ();
    slacks = series ();
  }

let create ~num_workers = Array.init num_workers (fun _ -> fresh_worker ())

type summary = {
  executed : int;
  submitted : int;
  spawned : int;
  flushes : int;
  urgent_flushes : int;
  rejected : int;
  empty_pops : int;
  double_claims : int;
  shed : int;
  timeouts : int;
  retries : int;
  reenqueues : int;
  late_completions : int;
  worker_deaths : int;
  fibers : int;
  fibers_completed : int;
  fiber_suspends : int;
  fiber_resumes : int;
  steal_attempts : int;
  steals : int;
  steal_fallbacks : int;
  delay : Stats.summary option;  (** [None] when nothing executed *)
  delay_p99 : float;
  slack : Stats.summary option;
  slack_p99 : float;
  inversions : int;  (** executed tasks with strictly positive slack *)
}

let summarize (workers : worker array) =
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 workers in
  let concat f =
    Array.concat (Array.to_list (Array.map (fun w -> to_array (f w)) workers))
  in
  let delays = concat (fun w -> w.delays) in
  let slacks = concat (fun w -> w.slacks) in
  let opt_summary a = if Array.length a = 0 then None else Some (Stats.summarize a) in
  let p99 a = if Array.length a = 0 then 0.0 else Stats.percentile a 99.0 in
  {
    executed = sum (fun w -> w.executed);
    submitted = sum (fun w -> w.submitted);
    spawned = sum (fun w -> w.spawned);
    flushes = sum (fun w -> w.flushes);
    urgent_flushes = sum (fun w -> w.urgent_flushes);
    rejected = sum (fun w -> w.rejected);
    empty_pops = sum (fun w -> w.empty_pops);
    double_claims = sum (fun w -> w.double_claims);
    shed = sum (fun w -> w.shed);
    timeouts = sum (fun w -> w.timeouts);
    retries = sum (fun w -> w.retries);
    reenqueues = sum (fun w -> w.reenqueues);
    late_completions = sum (fun w -> w.late_completions);
    worker_deaths = sum (fun w -> w.worker_deaths);
    fibers = sum (fun w -> w.fibers);
    fibers_completed = sum (fun w -> w.fibers_completed);
    fiber_suspends = sum (fun w -> w.fiber_suspends);
    fiber_resumes = sum (fun w -> w.fiber_resumes);
    steal_attempts = sum (fun w -> w.steal_attempts);
    steals = sum (fun w -> w.steals);
    steal_fallbacks = sum (fun w -> w.steal_fallbacks);
    delay = opt_summary delays;
    delay_p99 = p99 delays;
    slack = opt_summary slacks;
    slack_p99 = p99 slacks;
    inversions = Array.fold_left (fun acc s -> if s > 0.0 then acc + 1 else acc) 0 slacks;
  }
