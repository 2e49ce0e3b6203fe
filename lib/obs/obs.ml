(** Low-overhead observability for queue internals.

    The paper's evaluation (§5, Figures 3-4) explains throughput differences
    by {e internal} behaviour — shared-component consolidations, CAS retries
    on the snapshot pointer, spy traffic — which externally visible
    throughput cannot separate.  This module provides the counters and span
    timers the instrumented structures report into, designed so that the
    instrumentation itself cannot perturb the measurement:

    - {b per-thread sharding}: every registered thread writes to its own
      shard — plain (non-atomic) [int]/[float] arrays, never shared cells —
      so counting adds no coherence traffic on the real backend and no
      simulated cost on the simulator (the simulator charges only accesses
      routed through its [atomic] cells);
    - {b false-sharing padding}: shards are separately allocated and padded
      to more than a cache line on both ends, so two threads' shards never
      share a line even when the allocator places them adjacently;
    - {b no-ops when disabled}: the enabled flag is latched into each sheet
      at creation; a disabled handle short-circuits on one immutable record
      field ([on = false]), which is branch-predicted away — the hot path
      is unperturbed, and on the simulator a disabled and an enabled run
      execute byte-identical schedules (asserted by [test/test_obs.ml]).

    Counter and span {e names} are interned into a global table at module
    initialization time (each instrumented functor interns its names when
    instantiated).  Interning is idempotent and must happen before threads
    start — which it does, since OCaml runs module initializers on the main
    thread before [parallel_run] is reachable.

    Span timers read the clock through the [now] function the owning
    structure supplies ([B.time] of its backend), so on the simulator spans
    measure deterministic {e virtual} nanoseconds and on the real backend
    [CLOCK_MONOTONIC] nanoseconds.

    See [docs/METRICS.md] for the reference of every counter and span the
    repository emits and how each maps to the paper's listings. *)

(* ------------------------------------------------------------------ *)
(* Global enable flag and name interning                               *)
(* ------------------------------------------------------------------ *)

let enabled_flag = ref false

(** Enable/disable observability for sheets created {e from now on};
    existing sheets keep the state latched at their creation. *)
let set_enabled b = enabled_flag := b

let enabled () = !enabled_flag

(** Fixed capacity of the intern tables.  Every shard allocates this many
    slots, so registration after sheet creation stays safe (new counters
    simply index into already-allocated space). *)
let max_counters = 192

let max_spans = 48

type counter = int
type span = int

let counter_names = Array.make max_counters ""
let num_counters = ref 0
let span_names = Array.make max_spans ""
let num_spans = ref 0

let intern table count cap kind name =
  let rec find i = if i >= !count then -1 else if table.(i) = name then i else find (i + 1) in
  match find 0 with
  | -1 ->
      if !count >= cap then
        failwith (Printf.sprintf "Obs: too many %s (max %d)" kind cap);
      let id = !count in
      table.(id) <- name;
      incr count;
      id
  | id -> id

(** Intern a counter name; idempotent.  Call at module-init time. *)
let counter name = intern counter_names num_counters max_counters "counters" name

(** Intern a span name; idempotent.  Call at module-init time. *)
let span name = intern span_names num_spans max_spans "spans" name

let counter_name (c : counter) = counter_names.(c)

(* ------------------------------------------------------------------ *)
(* Sheets, shards, handles                                             *)
(* ------------------------------------------------------------------ *)

(* A cache line is 64 B = 8 words; [pad] words of dead space on both ends
   of every shard array keep two threads' counters off any shared line
   regardless of allocator adjacency. *)
let pad = 8

type shard = {
  c : int array;  (** [pad] dead slots, then one slot per counter id *)
  sp_count : int array;
  sp_ns : float array;
}

let fresh_shard () =
  {
    c = Array.make (max_counters + (2 * pad)) 0;
    sp_count = Array.make (max_spans + (2 * pad)) 0;
    sp_ns = Array.make (max_spans + (2 * pad)) 0.0;
  }

(* The shared shard behind every disabled handle: writes are unreachable
   (guarded by [on]), so sharing is safe and keeps disabled sheets
   allocation-free per thread. *)
let dead_shard = fresh_shard ()

type handle = { on : bool; now : unit -> float; sh : shard }

(** The always-disabled handle: instrumented structures default to it so
    observability stays strictly opt-in. *)
let null_handle = { on = false; now = (fun () -> 0.0); sh = dead_shard }

type sheet = {
  threads : int;
  on : bool;  (** latched from {!enabled} at creation *)
  now : unit -> float;
  shards : shard array;
}

(** [create_sheet ~now ~num_threads ()] builds one sheet with one shard per
    thread slot.  [now] is the owning backend's clock ([B.time]); it is
    only consulted by span timers.  The global {!enabled} flag is latched
    here: a sheet created while disabled stays disabled (and costs one
    predictable branch per event). *)
let create_sheet ?(now = fun () -> 0.0) ~num_threads () =
  if num_threads < 1 then invalid_arg "Obs.create_sheet: num_threads < 1";
  let on = !enabled_flag in
  {
    threads = num_threads;
    on;
    now;
    shards =
      (if on then Array.init num_threads (fun _ -> fresh_shard ())
       else Array.make num_threads dead_shard);
  }

(** Per-thread handle; the only value the hot path touches. *)
let handle sheet ~tid =
  if tid < 0 || tid >= sheet.threads then invalid_arg "Obs.handle: tid";
  { on = sheet.on; now = sheet.now; sh = sheet.shards.(tid) }

(* ------------------------------------------------------------------ *)
(* Hot path                                                            *)
(* ------------------------------------------------------------------ *)

let incr (h : handle) (c : counter) = if h.on then h.sh.c.(pad + c) <- h.sh.c.(pad + c) + 1

let add (h : handle) (c : counter) n =
  if h.on then h.sh.c.(pad + c) <- h.sh.c.(pad + c) + n

(** Start a span: returns the clock reading to pass to {!span_end} ([0.]
    when disabled — never inspected in that case). *)
let span_begin (h : handle) = if h.on then h.now () else 0.0

(** Close a span opened by {!span_begin}: accumulates the elapsed time (in
    nanoseconds) and the completion count. *)
let span_end (h : handle) (s : span) t0 =
  if h.on then begin
    h.sh.sp_count.(pad + s) <- h.sh.sp_count.(pad + s) + 1;
    h.sh.sp_ns.(pad + s) <- h.sh.sp_ns.(pad + s) +. ((h.now () -. t0) *. 1e9)
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type span_data = { count : int array; ns : float array }  (** per thread *)

(** A type-erased, structure-independent view of one sheet: per-thread
    values for every counter/span that fired at least once, in
    registration order.  Plain data — safe to hold after the queue is
    gone, serialize, or diff. *)
type snapshot = {
  threads : int;
  counters : (string * int array) list;
  spans : (string * span_data) list;
}

let counter_total per_thread = Array.fold_left ( + ) 0 per_thread

(** Read the sheet.  Call after [parallel_run] joins (shards are written
    without synchronization by their owning threads). *)
let snapshot sheet =
  let counters = ref [] in
  for id = !num_counters - 1 downto 0 do
    let per = Array.map (fun sh -> sh.c.(pad + id)) sheet.shards in
    if counter_total per <> 0 then
      counters := (counter_names.(id), per) :: !counters
  done;
  let spans = ref [] in
  for id = !num_spans - 1 downto 0 do
    let count = Array.map (fun sh -> sh.sp_count.(pad + id)) sheet.shards in
    if counter_total count <> 0 then
      spans :=
        ( span_names.(id),
          { count; ns = Array.map (fun sh -> sh.sp_ns.(pad + id)) sheet.shards }
        )
        :: !spans
  done;
  { threads = sheet.threads; counters = !counters; spans = !spans }

(** The snapshot of a disabled (or untouched) sheet. *)
let empty_snapshot ~threads = { threads; counters = []; spans = [] }

(** Zero every shard (e.g. between benchmark phases on one queue). *)
let reset sheet =
  if sheet.on then
    Array.iter
      (fun sh ->
        Array.fill sh.c 0 (Array.length sh.c) 0;
        Array.fill sh.sp_count 0 (Array.length sh.sp_count) 0;
        Array.fill sh.sp_ns 0 (Array.length sh.sp_ns) 0.0)
      sheet.shards
