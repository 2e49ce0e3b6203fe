(** Lightweight fibers on OCaml 5 effects — the execution substrate the
    rewritten {!Worker} multiplexes over a handful of domains.

    A fiber is a thunk plus a lifecycle cell.  Running it under
    [Effect.Deep.match_with] with the single {!Suspend} effect (the par-ml
    pattern) makes "block until that other fiber finishes" a constant-cost
    operation: the blocked computation is captured as a one-shot
    continuation and parked {e inside the awaited fiber's state cell}, so
    whichever worker finishes that fiber resumes the waiter inline — no
    polling, no per-fiber OS resources, millions of fibers per domain.

    {2 Lifecycle}

    {v
      Initial th --(a worker picks it up)--> Running --> Return v / Raise e
           \                                   /
            Join (k, _) ... Join (k', _) -----    (waiters stack on top)
    v}

    The cell holds the whole story at once: a [Join] chain of suspended
    waiters over the underlying [Initial]/[Running] phase.  Every
    transition is a CAS, so a waiter racing the fiber's completion either
    installs its continuation (and is resumed by the finisher) or observes
    the terminal state and continues immediately.  [Return]/[Raise] are
    sticky; a one-shot continuation can never be resumed twice because it
    is reachable from exactly one [Join] node and the terminal [exchange]
    empties the chain.

    Continuations may be resumed on a different worker (and, on the Real
    backend, a different domain) than the one that captured them — legal
    for OCaml one-shot continuations, and the whole point: a stolen fiber
    carries its blocked computation with it.

    Crash-fault discipline: {!Klsm_backend.Sim.kill_current} unwinds the
    virtual thread with an exception, and a worker crash must not be
    mistaken for a fiber's own failure — [run] catches only non-fatal
    exceptions into [Raise]; a kill propagates through every nested fiber
    frame and takes the worker down mid-protocol, leaving [Running] ghosts
    for lease supervision to recover (docs/CHAOS.md). *)

[@@@alert "-unstable"]

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Obs = Klsm_obs.Obs
  module Padded = Klsm_primitives.Padded

  (* Observability (docs/METRICS.md).  Declared here, incremented through
     the worker's per-thread handle via {!hooks}. *)
  let c_spawn = Obs.counter "fiber.spawn"
  let c_suspend = Obs.counter "fiber.suspend"
  let c_resume = Obs.counter "fiber.resume"

  type 'a continuation = ('a, unit) Effect.Deep.continuation

  type _ Effect.t +=
    | Suspend : ('a continuation -> unit) -> 'a Effect.t
          (** [perform (Suspend ef)] parks the current fiber: [ef] runs in
              the scheduler's frame with the captured continuation and
              decides where it goes (a [Join] cell, the local deque). *)

  type 'a state =
    | Initial of (unit -> 'a)  (** created, not yet picked up *)
    | Join of 'a continuation * 'a state
        (** a waiter parked on this fiber, stacked over the phase below *)
    | Running  (** some worker owns the body right now *)
    | Return of 'a  (** finished; sticky *)
    | Raise of exn  (** finished exceptionally; sticky *)

  type 'a t = 'a state B.atomic

  (** A unit of deque work: start a fresh fiber, or resume a yielded
      one. *)
  type work =
    | Work : 'a t -> work
    | Resume : unit continuation -> work

  (** Scheduler callbacks for the suspension/resumption events, so the
      worker can feed its per-thread metrics and obs handle without this
      module knowing about either. *)
  type hooks = { on_suspend : unit -> unit; on_resume : unit -> unit }

  let no_hooks = { on_suspend = ignore; on_resume = ignore }

  (* The state cell is the only contended word of a fiber (the thunk is
     reached through it), so pad it: fibers are created in bursts and
     would otherwise share lines with their siblings. *)
  let create th : 'a t = Padded.copy_as_padded (B.make (Initial th))

  let make_handler () =
    {
      Effect.Deep.retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend ef ->
              Some (fun (k : (a, _) Effect.Deep.continuation) -> ef k)
          (* Not ours (e.g. the simulator's preemption Yield): decline, so
             it forwards to the enclosing handler.  The continuation it
             captures spans our frames too — resumption flows back through
             them transparently. *)
          | _ -> None);
    }

  let handler = make_handler ()

  (* Exceptions that mean "this worker is dying", not "this fiber
     failed": they must unwind the whole virtual thread, never be
     captured as a fiber outcome. *)
  let fatal = function
    | Klsm_backend.Sim.Killed | Out_of_memory | Stack_overflow -> true
    | _ -> false

  let suspend ef = Effect.perform (Suspend ef)

  (* Walk a Join chain: [true] iff the underlying phase is a live thunk
     nobody has claimed yet. *)
  let rec thunk_of : type a. a state -> (unit -> a) option = function
    | Initial th -> Some th
    | Join (_, rest) -> thunk_of rest
    | Running | Return _ | Raise _ -> None

  let rec mark_running : type a. a state -> a state = function
    | Initial _ -> Running
    | Join (k, rest) -> Join (k, mark_running rest)
    | (Running | Return _ | Raise _) as s -> s

  (* Claim the thunk (waiters may already have stacked Join nodes over
     it — a parent can await a child that is still sitting in a deque). *)
  let rec try_start (st : 'a t) =
    let was = B.get st in
    match thunk_of was with
    | None -> None
    | Some th ->
        if B.compare_and_set st was (mark_running was) then Some th
        else try_start st

  (* Resume every waiter stacked on a just-finished fiber, inline on the
     finisher's stack.  Each continue runs the waiter until it returns or
     suspends again; its handler frames travel with the continuation. *)
  let rec dispatch : type a. hooks -> a state -> a state -> unit =
   fun hooks res -> function
    | Join (k, rest) ->
        B.fault_point "sched.fiber.resume";
        hooks.on_resume ();
        (match res with
        | Return v -> Effect.Deep.continue k v
        | Raise e -> Effect.Deep.discontinue k e
        | _ -> assert false);
        dispatch hooks res rest
    | Initial _ | Running | Return _ | Raise _ -> ()

  let finish hooks (st : 'a t) (res : 'a state) =
    dispatch hooks res (B.exchange st res)

  let run_thunk hooks (st : 'a t) th =
    let res =
      match th () with
      | v -> Return v
      | exception e when not (fatal e) -> Raise e
    in
    finish hooks st res

  (** Execute one work item.  [Work]: claim and run the fiber's thunk
      under the effect handler (a no-op if another worker got it first —
      safe under re-delivery).  [Resume]: continue a yielded fiber; the
      continuation reinstates its own handler frames, so no fresh
      [match_with] is needed. *)
  let run hooks = function
    | Work st ->
        Effect.Deep.match_with
          (fun () ->
            match try_start st with
            | Some th -> run_thunk hooks st th
            | None -> ())
          () handler
    | Resume k ->
        B.fault_point "sched.fiber.resume";
        hooks.on_resume ();
        Effect.Deep.continue k ()

  (** Block the calling fiber until [st] finishes; returns its value or
      re-raises its exception.  Fast path: already terminal, no
      suspension.  Slow path: park this continuation in a [Join] node; the
      finishing worker resumes us inline.  Must run inside {!run} (the
      [Suspend] effect needs its handler). *)
  let await hooks (st : 'a t) : 'a =
    match B.get st with
    | Return v -> v
    | Raise e -> raise e
    | Initial _ | Running | Join _ ->
        hooks.on_suspend ();
        suspend (fun (k : 'a continuation) ->
            let rec install () =
              let was = B.get st in
              match was with
              | Return v ->
                  (* finished while we were suspending: resume at once *)
                  B.fault_point "sched.fiber.resume";
                  hooks.on_resume ();
                  Effect.Deep.continue k v
              | Raise e ->
                  B.fault_point "sched.fiber.resume";
                  hooks.on_resume ();
                  Effect.Deep.discontinue k e
              | Initial _ | Running | Join _ ->
                  if not (B.compare_and_set st was (Join (k, was))) then
                    install ()
            in
            install ())

  (** Cooperative reschedule: park the calling fiber as a [Resume] work
      item via [requeue] (the worker passes its own deque push), letting
      the worker serve other work — the shape a fiber blocked on a
      spilled-block fetch (lib/store) or any slow external edge uses. *)
  let yield hooks ~requeue =
    hooks.on_suspend ();
    suspend (fun (k : unit continuation) -> requeue (Resume k))
end
