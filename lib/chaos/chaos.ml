(** Deterministic fault injection for the simulator backend.

    The queue's correctness rests on fragile multi-step publication
    protocols — Listing 4's merge → publish-block → publish-size order in
    {!Klsm_core.Dist_lsm}, the snapshot CAS dance of
    {!Klsm_core.Shared_klsm} — and relaxed-queue bugs in those protocols
    surface only under adversarial schedules (Gruber, arXiv:1509.07053).
    [Sim.Random_preempt] reorders accesses but never {e crashes} or
    indefinitely delays a fiber; this module closes that gap.

    A {!plan} is a list of {!rule}s, each naming a fault {e site} (a
    [Backend_intf.fault_point] call threaded through the sensitive steps;
    the catalogue lives in [docs/CHAOS.md]), an optional thread filter, a
    1-based hit index, and an {!action}:

    - [Cas_fail]: the thread's next CAS fails spuriously (charged and
      recorded as an ordinary lost race) — exercises every retry loop;
    - [Stall n]: the thread loses [n] relax-units of virtual time mid-
      protocol, letting every other thread run ahead and observe the
      half-published state;
    - [Crash]: the fiber dies on the spot ([Sim.kill_current]) — the
      simulated thread never publishes the rest of the protocol, ever.

    Rules fire at most once, so every plan injects a finite amount of
    chaos and a fault-free suffix remains in which the survivors must
    still drain the structure — the liveness half of every chaos check.

    Everything is deterministic: rule matching consumes no randomness, and
    plan {e generation} ({!random_plan}) draws from a seeded {!Xoshiro}
    stream, so a failing (seed, plan) pair replays exactly. *)

module Sim = Klsm_backend.Sim
module Xoshiro = Klsm_primitives.Xoshiro
module Obs = Klsm_obs.Obs
module Vfs = Klsm_store.Vfs

(* Observability (lib/obs; docs/METRICS.md): faults actually injected,
   counted on the faulting thread's shard. *)
let c_cas_fail = Obs.counter "chaos.cas_fail"
let c_stall = Obs.counter "chaos.stall"
let c_crash = Obs.counter "chaos.crash"

type action =
  | Cas_fail
  | Stall of int
  | Crash
  | Io of Vfs.fault
      (** an I/O fault for a [vfs.*] site (docs/CHAOS.md); carried by the
          same grammar, executed by the {!Vfs} engine via {!io_rules}
          rather than by the simulator's fault hook *)

type rule = {
  site : string;  (** fault-point name (docs/CHAOS.md) *)
  tid : int option;  (** restrict to one simulated thread; [None] = any *)
  hit : int;  (** fire on the n-th matching arrival, 1-based *)
  action : action;
  mutable seen : int;  (** matching arrivals so far (run state) *)
  mutable fired : bool;  (** rules fire at most once (run state) *)
}

type plan = rule list

let rule ?tid ?(hit = 1) site action =
  if hit < 1 then invalid_arg "Chaos.rule: hit < 1";
  { site; tid; hit; action; seen = 0; fired = false }

(** The fault-point sites placed across the stack, one per sensitive
    protocol step (kept in sync with docs/CHAOS.md). *)
let sites =
  [
    "shared.push_snapshot.before";
    "shared.push_snapshot.after";
    "shared.batch.claimed";
    "dist.insert.pre_size";
    "dist.insert.spill";
    "dist.spy.block";
    "dist.consolidate.pre_size";
    "block_array.consolidate";
    "klsm.spill.publish";
    "store.spill";
    "store.rehydrate";
    "store.recover";
    "sched.execute.post_lease";
    "sched.execute.pre_complete";
    "sched.steal";
    "sched.fiber.resume";
  ]

(** The I/O operation sites of the {!Vfs} seam (docs/CHAOS.md).  These are
    not [Backend_intf.fault_point] calls — rules naming them are compiled
    by {!io_rules} into the Faulty vfs's own engine, which injects at the
    I/O operation itself (below the store API) instead of between protocol
    steps. *)
let io_sites = Vfs.sites

let is_io_site site =
  String.length site >= 4 && String.equal (String.sub site 0 4) "vfs."

(* ---- plan grammar: site[@hit][#tid]:action, comma-separated ---- *)

let action_to_string = function
  | Cas_fail -> "casfail"
  | Stall n -> Printf.sprintf "stall:%d" n
  | Crash -> "crash"
  | Io f -> Vfs.fault_name f

let rule_to_string r =
  let hit = if r.hit = 1 then "" else Printf.sprintf "@%d" r.hit in
  let tid = match r.tid with None -> "" | Some t -> Printf.sprintf "#%d" t in
  Printf.sprintf "%s%s%s:%s" r.site hit tid (action_to_string r.action)

let plan_to_string plan = String.concat "," (List.map rule_to_string plan)

let parse_action s =
  match String.split_on_char ':' s with
  | [ "casfail" ] -> Ok Cas_fail
  | [ "crash" ] -> Ok Crash
  | [ "stall"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> Ok (Stall n)
      | _ -> Error (Printf.sprintf "bad stall count %S" n))
  | [ "eio" ] -> Ok (Io (Vfs.Eio false))
  | [ "eio"; "sticky" ] -> Ok (Io (Vfs.Eio true))
  | [ "enospc" ] -> Ok (Io (Vfs.Enospc false))
  | [ "enospc"; "sticky" ] -> Ok (Io (Vfs.Enospc true))
  | [ "shortwrite"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> Ok (Io (Vfs.Short_write n))
      | _ -> Error (Printf.sprintf "bad short-write prefix %S" n))
  | [ "torn"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> Ok (Io (Vfs.Torn_write n))
      | _ -> Error (Printf.sprintf "bad torn-write prefix %S" n))
  | [ "bitflip" ] -> Ok (Io Vfs.Bit_flip)
  | [ "fsynclie" ] -> Ok (Io Vfs.Fsync_lie)
  | [ "droprename" ] -> Ok (Io Vfs.Drop_rename)
  | _ ->
      Error
        (Printf.sprintf
           "unknown action %S \
            (casfail|stall:N|crash|eio[:sticky]|enospc[:sticky]|shortwrite:N|torn:N|bitflip|fsynclie|droprename)"
           s)

let parse_rule s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "rule %S has no ':action'" s)
  | Some i -> (
      let head = String.sub s 0 i in
      let action = String.sub s (i + 1) (String.length s - i - 1) in
      match parse_action action with
      | Error e -> Error e
      | Ok action -> (
          let head, tid =
            match String.index_opt head '#' with
            | None -> (head, Ok None)
            | Some j -> (
                let t = String.sub head (j + 1) (String.length head - j - 1) in
                ( String.sub head 0 j,
                  match int_of_string_opt t with
                  | Some t when t >= 0 -> Ok (Some t)
                  | _ -> Error (Printf.sprintf "bad tid %S" t) ))
          in
          let site, hit =
            match String.index_opt head '@' with
            | None -> (head, Ok 1)
            | Some j -> (
                let h = String.sub head (j + 1) (String.length head - j - 1) in
                ( String.sub head 0 j,
                  match int_of_string_opt h with
                  | Some h when h >= 1 -> Ok h
                  | _ -> Error (Printf.sprintf "bad hit index %S" h) ))
          in
          match (tid, hit) with
          | Error e, _ | _, Error e -> Error e
          | Ok tid, Ok hit ->
              if site = "" then Error (Printf.sprintf "rule %S has no site" s)
              else Ok (rule ?tid ~hit site action)))

let parse_plan s =
  let parts =
    List.filter (fun p -> p <> "") (String.split_on_char ',' (String.trim s))
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match parse_rule (String.trim p) with
        | Ok r -> go (r :: acc) rest
        | Error e -> Error e)
  in
  go [] parts

(* ---- the installed engine ---- *)

type stats = {
  mutable cas_fails : int;
  mutable stalls : int;
  mutable crashes : int;
  mutable crashed_tids : int list;
}

let empty_stats () = { cas_fails = 0; stalls = 0; crashes = 0; crashed_tids = [] }

let installed : plan ref = ref []
let st = empty_stats ()

(* Fault-point arrivals per site since the last {!install}, whether or
   not a rule names the site. *)
let arrivals : (string, int) Hashtbl.t = Hashtbl.create 16
let obs_handles : Obs.handle array ref = ref [||]

(** Faults injected since the last {!install}. *)
let stats () =
  { st with crashed_tids = st.crashed_tids }

(** Threads killed by [Crash] rules since the last {!install}. *)
let crashed_tids () = st.crashed_tids

(** Fault-point arrivals per site since the last {!install}, by site
    name: the sites a run reached, planned or not. *)
let visits () =
  List.sort compare (Hashtbl.fold (fun s n acc -> (s, n) :: acc) arrivals [])

let obs_for tid =
  let hs = !obs_handles in
  if tid >= 0 && tid < Array.length hs then hs.(tid) else Obs.null_handle

(* The handler runs on the faulting fiber.  Stalls and armed CAS failures
   happen immediately; a crash is deferred to the end of the matching scan
   (it raises) so one arrival can satisfy several rules. *)
let handler site =
  Hashtbl.replace arrivals site
    (1 + Option.value (Hashtbl.find_opt arrivals site) ~default:0);
  let tid = Sim.current_tid () in
  let crash = ref false in
  List.iter
    (fun r ->
      if r.site = site && (r.tid = None || r.tid = Some tid) then begin
        r.seen <- r.seen + 1;
        if (not r.fired) && r.seen = r.hit then begin
          r.fired <- true;
          match r.action with
          | Cas_fail ->
              st.cas_fails <- st.cas_fails + 1;
              Obs.incr (obs_for tid) c_cas_fail;
              Sim.arm_cas_failure ()
          | Stall n ->
              st.stalls <- st.stalls + 1;
              Obs.incr (obs_for tid) c_stall;
              Sim.relax_n n
          | Crash ->
              st.crashes <- st.crashes + 1;
              st.crashed_tids <- tid :: st.crashed_tids;
              Obs.incr (obs_for tid) c_crash;
              crash := true
          | Io _ ->
              (* I/O faults belong to the Vfs engine ({!io_rules}); at a
                 simulator fault point they have nothing to act on. *)
              ()
        end
      end)
    !installed;
  if !crash then Sim.kill_current ()

(** Install [plan] as the simulator's fault hook (resetting rule state and
    fault statistics).  [?obs] supplies per-thread observability handles so
    injected faults land on the [chaos.*] counters.  Call {!uninstall}
    when done — typically via [Fun.protect]. *)
let install ?(obs = [||]) plan =
  List.iter
    (fun r ->
      r.seen <- 0;
      r.fired <- false)
    plan;
  st.cas_fails <- 0;
  st.stalls <- 0;
  st.crashes <- 0;
  st.crashed_tids <- [];
  Hashtbl.reset arrivals;
  obs_handles := obs;
  installed := plan;
  Sim.set_fault_hook (Some handler)

let uninstall () =
  Sim.set_fault_hook None;
  installed := [];
  obs_handles := [||]

(** Number of rules that actually fired. *)
let fired_count plan =
  List.fold_left (fun acc r -> if r.fired then acc + 1 else acc) 0 plan

(* ---- seeded plan generation ---- *)

(** [random_plan ~rng ~sites ~num_threads ~rules k] draws [rules] rules
    over the given sites.  The [k]-th plan of a sweep cycles its primary
    fault kind through casfail/stall/crash so a sweep of >= 3 plans always
    exercises every kind (the acceptance bar of the chaos suite); hit
    indices and thread filters come from the seeded stream. *)
let random_plan ~rng ~sites ~num_threads ~rules k =
  if rules < 1 then invalid_arg "Chaos.random_plan: rules < 1";
  let sites = Array.of_list sites in
  if Array.length sites = 0 then invalid_arg "Chaos.random_plan: no sites";
  List.init rules (fun i ->
      let site = sites.(Xoshiro.int rng (Array.length sites)) in
      let action =
        match (k + i) mod 3 with
        | 0 -> Cas_fail
        | 1 -> Stall (1_000 + Xoshiro.int rng 50_000)
        | _ -> Crash
      in
      let tid =
        (* Never crash thread 0 in generated plans: drivers use a fixed
           surviving thread to empty the queue after the run. *)
        match action with
        | Crash -> Some (1 + Xoshiro.int rng (max 1 (num_threads - 1)))
        | _ ->
            if Xoshiro.int rng 2 = 0 then None
            else Some (Xoshiro.int rng num_threads)
      in
      let hit = 1 + Xoshiro.int rng 24 in
      rule ?tid ~hit site action)

(* ---- compiling the I/O half of a plan ---- *)

(** Compile the [vfs.*] rules of [plan] into the Faulty vfs's own engine
    ([Vfs.arm]).  [Crash] on an I/O site becomes the vfs-level process
    death ([Vfs.Crash] → {!Vfs.Crashed}); [Io f] passes through; [casfail]
    and [stall] have no I/O meaning and are dropped.  Thread filters are
    ignored — the vfs engine injects at the I/O operation, below any
    notion of simulated thread.  Non-[vfs.*] rules are left for
    {!install} to run through the simulator hook, so one plan string can
    drive both engines. *)
let io_rules plan =
  List.filter_map
    (fun r ->
      if not (is_io_site r.site) then None
      else
        match r.action with
        | Io f -> Some (Vfs.rule ~hit:r.hit r.site f)
        | Crash -> Some (Vfs.rule ~hit:r.hit r.site Vfs.Crash)
        | Cas_fail | Stall _ -> None)
    plan
