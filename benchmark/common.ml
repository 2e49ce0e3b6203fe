(** What every workload shares: the backend and the functors applied to
    it, the run parameters, per-thread call records, and the accumulator
    a workload's trials report into. *)

module Pb = Pool_backend
module R = Klsm_harness.Registry.Make (Pb)
module Obs = Klsm_obs.Obs
module Workload = Klsm_harness.Workload
module Xoshiro = Klsm_primitives.Xoshiro
module Stats = Klsm_primitives.Stats
module Padded = Klsm_primitives.Padded

(** Closed-loop client threads of every Real workload: the reference host
    has two cores, and at most two OS threads drive the load. *)
let threads = 2

type params = {
  seed : int;
  seconds : float;  (** measured time this workload gets *)
  scale : float;  (** 1.0 = full size; the smoke run uses 1/50 *)
  scratch : string;  (** directory for store roots, inside the checkout *)
}

(** [sized p n] scales a full-size count, keeping it at least 1. *)
let sized p n = max 1 (int_of_float (Float.round (float_of_int n *. p.scale)))

(** Durations shrink with the scale too, so the smoke run stays short. *)
let duration p s = s *. p.scale

(** Seconds of CPU the whole process has used, all domains together. *)
let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(** Minor-heap words allocated so far by all domains. *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(** One key source per thread.  A descending shape shares one counter
    among the threads, so every key drawn is below every key drawn before
    it, by whichever thread: each insert is a new global minimum. *)
let key_sources keys ~seed ~threads =
  match keys with
  | Workload.Descending start ->
      let next = Atomic.make start in
      Array.make threads (fun () -> Atomic.fetch_and_add next (-1) - 1)
  | _ ->
      Array.init threads (fun tid ->
          Workload.generator keys (Xoshiro.create ~seed:(seed + (7919 * tid))))

(* ------------------------------------------------------------------ *)
(* Accumulator                                                         *)
(* ------------------------------------------------------------------ *)

type acc = {
  samples : (string, float list) Hashtbl.t;  (** per-trial values, untraced trials *)
  traced : (string, float list) Hashtbl.t;  (** per-trial values, traced trials *)
  sums : (string, float) Hashtbl.t;
      (** raw totals the per-layer metrics are ratios of: Obs counters,
          span counts and nanoseconds, op and task counts *)
  mutable attempted : int;
  mutable failed : int;
  mutable violations : string list;
  mutable trials : int;
  mutable measured : float;  (** seconds of measured work so far *)
}

let create_acc () =
  {
    samples = Hashtbl.create 16;
    traced = Hashtbl.create 16;
    sums = Hashtbl.create 64;
    attempted = 0;
    failed = 0;
    violations = [];
    trials = 0;
    measured = 0.;
  }

(** Record one trial's value of a metric. *)
let sample acc ~traced name v =
  let tbl = if traced then acc.traced else acc.samples in
  Hashtbl.replace tbl name (v :: Option.value ~default:[] (Hashtbl.find_opt tbl name))

(** The values recorded for a metric by the untraced or the traced trials. *)
let values ?(traced = false) acc name =
  Option.value ~default:[] (Hashtbl.find_opt (if traced then acc.traced else acc.samples) name)

let add acc name v =
  Hashtbl.replace acc.sums name (v +. Option.value ~default:0. (Hashtbl.find_opt acc.sums name))

let sum acc name = Option.value ~default:0. (Hashtbl.find_opt acc.sums name)

let violation acc fmt =
  Printf.ksprintf (fun s -> acc.violations <- s :: acc.violations) fmt

(** Fold an Obs snapshot into the totals: counter [c] adds to ["c"], span
    [s] to ["s#count"] and ["s#ns"]. *)
let add_snapshot acc (snap : Obs.snapshot) =
  List.iter
    (fun (name, per) -> add acc name (float_of_int (Obs.counter_total per)))
    snap.Obs.counters;
  List.iter
    (fun (name, (d : Obs.span_data)) ->
      add acc (name ^ "#count") (float_of_int (Obs.counter_total d.Obs.count));
      add acc (name ^ "#ns") (Array.fold_left ( +. ) 0. d.Obs.ns))
    snap.Obs.spans

let counter (snap : Obs.snapshot) name =
  match List.assoc_opt name snap.Obs.counters with
  | Some per -> Obs.counter_total per
  | None -> 0

(** Counters and spans of [after] minus those of [before]. *)
let delta (before : Obs.snapshot) (after : Obs.snapshot) =
  let sub a b = Array.mapi (fun i x -> x - if i < Array.length b then b.(i) else 0) a in
  {
    after with
    Obs.counters =
      List.map
        (fun (n, per) ->
          match List.assoc_opt n before.Obs.counters with
          | Some b -> (n, sub per b)
          | None -> (n, per))
        after.Obs.counters;
    spans =
      List.map
        (fun (n, (d : Obs.span_data)) ->
          match List.assoc_opt n before.Obs.spans with
          | Some b ->
              ( n,
                {
                  Obs.count = sub d.Obs.count b.Obs.count;
                  ns = Array.mapi (fun i x -> x -. b.Obs.ns.(i)) d.Obs.ns;
                } )
          | None -> (n, d))
        after.Obs.spans;
  }

(* ------------------------------------------------------------------ *)
(* Per-thread records                                                  *)
(* ------------------------------------------------------------------ *)

(** One thread's record of a timed phase.  Each record is copied onto its
    own cache lines, so two threads' counters never share one. *)
type tstate = {
  ins : Hist.t;  (** insert-call latency, ns *)
  del : Hist.t;  (** delete-call latency, ns *)
  req : Hist.t;  (** open-loop root, due time to completion, ns *)
  mutable inserts : int;  (** items inserted *)
  mutable deletes : int;  (** items deleted *)
  mutable fails : int;  (** empty deletes while >= 1e4 items were queued *)
  mutable key_sum : int;  (** inserted minus deleted keys (wrapping) *)
  mutable roots : int;  (** open-loop arrivals generated *)
  mutable late : int;  (** arrivals generated later than one mean gap *)
}

let fresh_tstate () =
  Padded.copy_as_padded
    {
      ins = Hist.create ();
      del = Hist.create ();
      req = Hist.create ();
      inserts = 0;
      deletes = 0;
      fails = 0;
      key_sum = 0;
      roots = 0;
      late = 0;
    }

(** The records of the Real workloads' {!threads} threads. *)
let tstates = Array.init threads (fun _ -> fresh_tstate ())

let reset ts =
  Array.iter
    (fun s ->
      Hist.clear s.ins;
      Hist.clear s.del;
      Hist.clear s.req;
      s.inserts <- 0;
      s.deletes <- 0;
      s.fails <- 0;
      s.key_sum <- 0;
      s.roots <- 0;
      s.late <- 0)
    ts

let total ts f = Array.fold_left (fun a s -> a + f s) 0 ts
let merged = Hist.create ()

let merge picks =
  Hist.clear merged;
  Array.iter (fun s -> List.iter (fun pick -> Hist.merge_into ~dst:merged (pick s)) picks) tstates;
  merged

(** Record the threads' merged insert and delete histograms as
    [real.insert_p50_ns] ... [real.delete_p99_ns]; nothing for a kind with
    no timed call. *)
let sample_calls acc ~traced =
  List.iter
    (fun (kind, pick) ->
      let h = merge [ pick ] in
      if Hist.count h > 0 then begin
        sample acc ~traced ("real." ^ kind ^ "_p50_ns") (Hist.percentile h 50.);
        sample acc ~traced ("real." ^ kind ^ "_p99_ns") (Hist.percentile h 99.);
        if not traced then add acc (kind ^ ".samples") (float_of_int (Hist.count h))
      end)
    [ ("insert", fun s -> s.ins); ("delete", fun s -> s.del) ]

(** Record the threads' merged open-loop request times as
    [real.sojourn_p50_us] / [real.sojourn_p99_us]. *)
let sample_sojourn acc ~traced =
  let h = merge [ (fun s -> s.req) ] in
  if Hist.count h > 0 then begin
    sample acc ~traced "real.sojourn_p50_us" (Hist.percentile h 50. /. 1e3);
    sample acc ~traced "real.sojourn_p99_us" (Hist.percentile h 99. /. 1e3);
    if not traced then add acc "sojourn.samples" (float_of_int (Hist.count h))
  end

(** Record [ops] done in a phase as [real.ops_per_s], per second of CPU
    time the {!threads} client threads were given ([cpu], process-wide,
    over [threads]), and as [real.wall_ops_per_s], per wall second.  The
    guest's CPU time leaves out the time the hypervisor runs other guests
    on its cores, which on a shared host moves wall-clock rates by a
    factor of up to 5 between runs. *)
let sample_rate acc ~traced ~ops ~cpu ~wall =
  sample acc ~traced "real.ops_per_s" (float_of_int ops /. (cpu /. float_of_int threads));
  sample acc ~traced "real.wall_ops_per_s" (float_of_int ops /. wall)

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

(** Every trial compacts before its set-up and again before its timed
    phase, so one trial's garbage does not bill the next one. *)
let compact () = Gc.compact ()

(** Minor-heap words of each domain that runs a workload.  A minor
    collection stops every domain, and waits for one asleep in [yield] to
    wake.  With the default 256k words it fell in about 1% of
    [sched-fibers]' queue calls, so their p99 was the collector's pause
    and the host's wake-up latency, not the queue's; with 2M words it
    falls in under 0.3%. *)
let minor_heap_words = 1 lsl 21

(** Give the calling domain and every pool domain {!minor_heap_words}. *)
let size_minor_heaps () =
  Pb.parallel_run ~num_threads:threads (fun _ ->
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words })

(** A start barrier for the threads of one [parallel_run], with an abort
    flag: a thread that raises sets it, so its peers stop waiting. *)
let enter ~abort counter =
  Atomic.incr counter;
  let spins = ref 0 in
  while Atomic.get counter < threads && not (Atomic.get abort) do
    incr spins;
    if !spins < 4096 then Domain.cpu_relax () else Unix.sleepf 1e-5
  done

(** Delete until the queue reports empty; returns the count and key sum. *)
let rec drain try_delete n sum =
  match try_delete () with
  | Some (k, _) -> drain try_delete (n + 1) (sum + k)
  | None -> (n, sum)

let rm_rf path =
  let rec go path =
    match Sys.is_directory path with
    | true ->
        Array.iter (fun e -> go (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  go path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end
