(** Deployment backend: [Stdlib.Atomic] + [Domain]. See {!Backend_intf}. *)

let name = "real"

type 'a atomic = 'a Atomic.t

let make = Atomic.make
let get = Atomic.get
let set = Atomic.set
let compare_and_set = Atomic.compare_and_set
let exchange = Atomic.exchange
let fetch_and_add = Atomic.fetch_and_add
let tick _ = ()
let cpu_relax = Domain.cpu_relax

let relax_n n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

(* A genuine scheduling yield: on machines with fewer cores than domains
   (this container has one), spinning with cpu_relax alone starves the
   domain that holds the work for a whole OS timeslice.  A sub-millisecond
   sleep releases the core. *)
let yield () = Unix.sleepf 1e-4

(* Fault injection is a simulator facility; deployment code pays nothing. *)
let fault_point _ = ()

exception Thread_failure of int * exn

(* One worker per domain, so domain-local storage is the right carrier for
   the dynamic thread index (unlike on Sim, where every virtual thread
   shares one domain and [self] must come from the scheduler). *)
let self_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)
let self () = Domain.DLS.get self_key

let parallel_run ~num_threads body =
  if num_threads < 1 then invalid_arg "parallel_run: num_threads < 1";
  let wrap tid () =
    let saved = Domain.DLS.get self_key in
    Domain.DLS.set self_key tid;
    let r = try Ok (body tid) with e -> Error (tid, e) in
    Domain.DLS.set self_key saved;
    r
  in
  if num_threads = 1 then
    match wrap 0 () with Ok () -> () | Error (tid, e) -> raise (Thread_failure (tid, e))
  else begin
    (* Thread 0 runs on the calling domain so that [parallel_run] composes
       with callers that already hold per-run state on the current stack. *)
    let domains =
      Array.init (num_threads - 1) (fun i -> Domain.spawn (wrap (i + 1)))
    in
    let r0 = wrap 0 () in
    let results = Array.map Domain.join domains in
    let reraise = function
      | Ok () -> ()
      | Error (tid, e) -> raise (Thread_failure (tid, e))
    in
    reraise r0;
    Array.iter reraise results
  end

(* CLOCK_MONOTONIC through bechamel's stub: leases, deadlines and Obs
   spans subtract two reads, which a wall clock stepped by NTP or an
   operator could make negative. *)
let time () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
