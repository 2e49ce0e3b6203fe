(** The timing backend: {!Klsm_backend.Real}'s atomics, [tick], [yield]
    and [name = "real"], with the three changes a clean timed window needs.

    - [parallel_run] hands the bodies to a persistent pool of domains
      instead of spawning and joining one domain per thread on every call,
      and every participant waits at a start barrier before its body runs,
      so a window timed inside the bodies contains queue work only.
    - [time] reads [CLOCK_MONOTONIC] through bechamel's stub, not
      [Unix.gettimeofday].  Obs spans and the scheduler's delay metrics
      read it too, since they take their clock from the backend.
    - [self] has its own domain-local key.  A pool domain keeps its thread
      index only while it runs a body, and reads [-1] between runs.

    The pool grows to the largest thread count ever requested and its
    domains are joined at exit.  Idle domains block on a condition
    variable, so they cost nothing while another phase (the simulator
    twin, a drain) runs on the main domain.  Nested or concurrent
    [parallel_run] calls are rejected. *)

include Klsm_backend.Real

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let time () = float_of_int (now_ns ()) *. 1e-9

let self_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)
let self () = Domain.DLS.get self_key

type job = {
  body : int -> unit;
  n : int;
  arrived : int Atomic.t;  (** start barrier *)
  finished : int Atomic.t;  (** pool participants done (tid >= 1) *)
  errors : exn option array;
}

let lock = Mutex.create ()
let wake = Condition.create ()
let all_done = Condition.create ()
let generation = ref 0
let current : job option ref = ref None
let stopping = ref false
let workers : unit Domain.t list ref = ref []
let size = ref 0
let busy = Atomic.make false

(* Participants spin at the barrier; past a few thousand pauses one of
   them is probably descheduled (more threads than cores), so sleep
   instead of burning the core it needs. *)
let await_all counter n =
  let spins = ref 0 in
  while Atomic.get counter < n do
    incr spins;
    if !spins < 4096 then Domain.cpu_relax () else Unix.sleepf 1e-5
  done

let participate j tid =
  Atomic.incr j.arrived;
  await_all j.arrived j.n;
  match j.body tid with () -> () | exception e -> j.errors.(tid) <- Some e

let rec worker_loop tid seen =
  Mutex.lock lock;
  while !generation = seen && not !stopping do
    Condition.wait wake lock
  done;
  let gen = !generation and job = !current and stop = !stopping in
  Mutex.unlock lock;
  if not stop then begin
    (match job with
    | Some j when tid < j.n ->
        Domain.DLS.set self_key tid;
        participate j tid;
        Domain.DLS.set self_key (-1);
        if Atomic.fetch_and_add j.finished 1 = j.n - 2 then begin
          Mutex.lock lock;
          Condition.broadcast all_done;
          Mutex.unlock lock
        end
    | _ -> ());
    worker_loop tid gen
  end

let shutdown () =
  Mutex.lock lock;
  stopping := true;
  Condition.broadcast wake;
  Mutex.unlock lock;
  List.iter Domain.join !workers;
  workers := [];
  size := 0

(* Grow the pool to [n] domains (thread indices 1..n).  A new domain
   starts at the current generation, so it waits for the next job. *)
let ensure n =
  if !size = 0 && n > 0 then at_exit shutdown;
  while !size < n do
    let tid = !size + 1 in
    let gen = !generation in
    workers := Domain.spawn (fun () -> worker_loop tid gen) :: !workers;
    incr size
  done

let pool_size () = !size

let parallel_run ~num_threads body =
  if num_threads < 1 then invalid_arg "parallel_run: num_threads < 1";
  if not (Atomic.compare_and_set busy false true) then
    invalid_arg "Pool_backend.parallel_run: nested or concurrent call";
  let saved = Domain.DLS.get self_key in
  let j =
    {
      body;
      n = num_threads;
      arrived = Atomic.make 0;
      finished = Atomic.make 0;
      errors = Array.make num_threads None;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set self_key saved;
      Atomic.set busy false)
    (fun () ->
      if num_threads > 1 then begin
        ensure (num_threads - 1);
        Mutex.lock lock;
        current := Some j;
        incr generation;
        Condition.broadcast wake;
        Mutex.unlock lock
      end;
      Domain.DLS.set self_key 0;
      participate j 0;
      if num_threads > 1 then begin
        Mutex.lock lock;
        while Atomic.get j.finished < num_threads - 1 do
          Condition.wait all_done lock
        done;
        current := None;
        Mutex.unlock lock
      end;
      Array.iteri
        (fun tid e ->
          match e with Some e -> raise (Thread_failure (tid, e)) | None -> ())
        j.errors)
