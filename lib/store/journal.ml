(** The crash-recovery journal (docs/STORAGE.md).

    The durable state of a spill-enabled queue is a {e multiset of live
    spilled-block instances}, and the journal is its event log.  Every
    spilled block gets a fresh {b instance id} [t<tid>.<seq>] (unique per
    journal lifetime), and two record kinds move an instance through its
    life cycle:

    - [S <iid> <digest> <level> <count>] — block instance [iid] with the
      given content digest became durable and live (appended {e after} the
      object file is on disk, {e before} the in-RAM queue links the spilled
      block);
    - [R <iid> <digest>] — instance [iid] was rehydrated: its items are
      back in RAM and may be delivered from there (appended {e before} any
      rehydrated item can be returned by a delete-min).

    Spilled items are claimed before they are serialized, so a cold block
    leaves the live set only by rehydration or by exclusion from a
    checkpoint.  An instance is live iff its [S] has no matching [R].
    [Spill.recover] replays the log and reinserts exactly the live
    instances — the ordering of appends above is what makes "no lost, no
    duplicated, no resurrected" hold across a kill at {e any} point
    (failure matrix in docs/STORAGE.md).

    {b Layout}: each thread appends its [S] records to its own
    [spill-<tid>.log] (single-writer, no locking); [R] can fire on any
    thread and goes to a shared [events.log] under a mutex; checkpoints write
    [epoch.log].  Replay order across files is irrelevant — liveness is a
    per-instance predicate.

    {b Torn tails}: every line carries an 8-hex-char SHA-256 checksum over
    its payload.  A crash mid-append leaves a torn last line, which replay
    detects and skips; records are self-contained so nothing else is lost.
    Replay is line-by-line salvage, never all-or-nothing: a file with bad
    lines is re-read once (transient read corruption heals; persistent
    rot doesn't) and the surviving lines are used either way.  A file
    that cannot be read at all is counted in [replay.unreadable_files] —
    recovery then refuses to checkpoint (never compact what could not be
    fully read) and {!open_journal} refuses to mint instance ids over it.

    {b Checkpoints} ([epoch.log], written by recovery when the queue is
    quiescent) compact the log: the live instances are rewritten — with
    their {e original} instance ids — under a new epoch header, then the
    per-thread and event logs are deleted.  Keeping original ids makes the
    checkpoint idempotent under crashes: if the process dies between the
    epoch rename and the log deletions, replay sees some instances twice
    (epoch + old log) and deduplicates by id.  In strict mode the journal
    directory is fsynced {e between} the epoch rename and the log
    deletions — deleting the only copy of the live set before its
    replacement is durable is how a power loss loses everything.  Fresh
    writers scan existing records at open time and continue above the
    largest sequence number seen, so ids never recycle.

    All I/O goes through the {!Vfs} seam (default: the passthrough). *)

type record =
  | Spill of { iid : string; digest : string; level : int; count : int }
  | Rehydrate of { iid : string; digest : string }
  | Epoch of int  (** checkpoint generation header *)

module Obs = Klsm_obs.Obs

(* Same interned name as Store/Spill (docs/METRICS.md). *)
let c_io_error = Obs.counter "store.io_error"

(* A log writer remembers whether its last append failed: a short write
   leaves a torn tail that the {e next} append would otherwise glue onto,
   corrupting an innocent record along with the torn one (found by
   bin/torture.exe's shortwrite grid).  A tainted writer terminates the
   tail with a bare newline before the next record; replay skips blank
   lines for free. *)
type writer = { wh : Vfs.handle; mutable torn_tail : bool }

type t = {
  dir : string;
  num_threads : int;
  fsync : bool;
  vfs : Vfs.t;
  writers : writer option array;  (** per-tid spill log, lazily opened *)
  next_seq : int array;
  mutable events : writer option;  (** shared rehydrate log *)
  ev_mutex : Mutex.t;
  mutable obs : Obs.handle;  (** sink for [store.io_error] increments *)
}

let dir j = j.dir
let set_obs j h = j.obs <- h
let note_io_error j = Obs.incr j.obs c_io_error

let spill_log dir tid = Filename.concat dir (Printf.sprintf "spill-%d.log" tid)
let events_log dir = Filename.concat dir "events.log"
let epoch_log dir = Filename.concat dir "epoch.log"

(* ---- line format ---- *)

let payload_of_record = function
  | Spill { iid; digest; level; count } ->
      Printf.sprintf "S %s %s %d %d" iid digest level count
  | Rehydrate { iid; digest } -> Printf.sprintf "R %s %s" iid digest
  | Epoch gen -> Printf.sprintf "E %d" gen

let line_of_record r =
  let p = payload_of_record r in
  Printf.sprintf "%s %s\n" p (Sha256.line_checksum p)

(** Parse one line; [None] for torn, corrupt, or foreign lines. *)
let record_of_line line =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some i ->
      let payload = String.sub line 0 i in
      let crc = String.sub line (i + 1) (String.length line - i - 1) in
      if not (String.equal crc (Sha256.line_checksum payload)) then None
      else begin
        match String.split_on_char ' ' payload with
        | [ "S"; iid; digest; level; count ] -> (
            match (int_of_string_opt level, int_of_string_opt count) with
            | Some level, Some count when count >= 0 ->
                Some (Spill { iid; digest; level; count })
            | _ -> None)
        | [ "R"; iid; digest ] -> Some (Rehydrate { iid; digest })
        | [ "E"; gen ] ->
            Option.map (fun g -> Epoch g) (int_of_string_opt gen)
        | _ -> None
      end

(* ---- replay ---- *)

type replay = {
  records : record list;
  torn_lines : int;  (** unparseable lines skipped (torn tails, rot) *)
  unreadable_files : int;  (** journal files whose read itself failed *)
  reread_retries : int;  (** files re-read after bad lines or a failed read *)
}

let parse_content content =
  let records = ref [] and bad = ref 0 in
  List.iter
    (fun line ->
      if String.length line > 0 then begin
        match record_of_line line with
        | Some r -> records := r :: !records
        | None -> incr bad
      end)
    (String.split_on_char '\n' content);
  (List.rev !records, !bad)

(* Read one journal file, salvaging line-by-line.  A read error or a
   file with bad lines gets exactly one retry: transient faults (the
   Faulty vfs's one-shot EIO or bit flip, a real disk's soft error)
   heal on the second read; persistent damage is taken as-is.  The
   better of the two attempts wins. *)
let read_one vfs path =
  if not (vfs.Vfs.file_exists path) then (Some [], 0, 0)
  else
    let attempt () =
      match vfs.Vfs.read_file path with
      | content -> Some (parse_content content)
      | exception Sys_error _ -> None
    in
    match attempt () with
    | Some (records, 0) -> (Some records, 0, 0)
    | first -> (
        (* Something was off — bad lines or a failed read.  Retry once. *)
        match (first, attempt ()) with
        | _, Some (records, 0) -> (Some records, 0, 1)
        | Some (r1, b1), Some (r2, b2) ->
            if b2 < b1 then (Some r2, b2, 1) else (Some r1, b1, 1)
        | Some (r1, b1), None -> (Some r1, b1, 1)
        | None, Some (r2, b2) -> (Some r2, b2, 1)
        | None, None -> (None, 0, 1))

(** Every record under [dir] (epoch first, then per-thread spill logs, then
    events), with salvage accounting.  Never raises on torn or unreadable
    state — recovery's totality starts here. *)
let read_all ?(vfs = Vfs.real) ~dir () =
  let records = ref [] in
  let torn = ref 0 and unreadable = ref 0 and rereads = ref 0 in
  let file path =
    let recs, bad, retried = read_one vfs path in
    torn := !torn + bad;
    rereads := !rereads + retried;
    match recs with
    | Some rs -> records := !records @ rs
    | None -> incr unreadable
  in
  file (epoch_log dir);
  if vfs.Vfs.file_exists dir then
    Array.iter
      (fun name ->
        if
          String.length name > 6
          && String.sub name 0 6 = "spill-"
          && Filename.check_suffix name ".log"
        then file (Filename.concat dir name))
      (vfs.Vfs.readdir dir);
  file (events_log dir);
  {
    records = !records;
    torn_lines = !torn;
    unreadable_files = !unreadable;
    reread_retries = !rereads;
  }

type live = { iid : string; digest : string; level : int; count : int }

(** The live instance multiset: spilled, deduplicated by instance id (a
    checkpoint interrupted before log deletion replays some [S] twice), and
    not rehydrated.  Order follows first [S] appearance. *)
let live_instances records =
  let spilled = Hashtbl.create 64 in
  let dead = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun r ->
      match r with
      | Spill { iid; digest; level; count } ->
          if not (Hashtbl.mem spilled iid) then begin
            Hashtbl.replace spilled iid { iid; digest; level; count };
            order := iid :: !order
          end
      | Rehydrate { iid; _ } -> Hashtbl.replace dead iid ()
      | Epoch _ -> ())
    records;
  List.filter_map
    (fun iid ->
      if Hashtbl.mem dead iid then None else Hashtbl.find_opt spilled iid)
    (List.rev !order)

let max_epoch records =
  List.fold_left (fun acc r -> match r with Epoch g -> max acc g | _ -> acc) 0
    records

(* ---- writers ---- *)

let iid_seq iid =
  (* "t<tid>.<seq>" -> (tid, seq); None for ids we didn't mint. *)
  match String.index_opt iid '.' with
  | Some i when String.length iid > 1 && iid.[0] = 't' -> (
      match
        ( int_of_string_opt (String.sub iid 1 (i - 1)),
          int_of_string_opt
            (String.sub iid (i + 1) (String.length iid - i - 1)) )
      with
      | Some tid, Some seq -> Some (tid, seq)
      | _ -> None)
  | _ -> None

(** Open the journal under [dir] for [num_threads] writer slots.  Existing
    records (a prior run's epoch or logs) are scanned so new instance ids
    start above anything already on disk; if any journal file cannot be
    read even after a retry this {e refuses to open} ([Sys_error]) —
    minting ids over records we could not see risks recycling a live
    instance id, the one corruption replay cannot detect.  [fsync] forces
    an fsync per append — the strict durability mode; the default flushes
    to the OS, which the crash model of the chaos tests (process kill, not
    power loss) makes sufficient and keeps the spill path off the fsync
    cliff. *)
let open_journal ?(fsync = false) ?(vfs = Vfs.real) ~dir ~num_threads () =
  vfs.Vfs.mkdir_p dir;
  let next_seq = Array.make num_threads 0 in
  let replay = read_all ~vfs ~dir () in
  if replay.unreadable_files > 0 then
    raise
      (Sys_error
         (Printf.sprintf
            "%s: %d journal file(s) unreadable at open; refusing to mint \
             instance ids over records we could not see"
            dir replay.unreadable_files));
  List.iter
    (fun r ->
      match r with
      | Spill { iid; _ } | Rehydrate { iid; _ } -> (
          match iid_seq iid with
          | Some (tid, seq) when tid >= 0 && tid < num_threads ->
              if seq >= next_seq.(tid) then next_seq.(tid) <- seq + 1
          | _ -> ())
      | Epoch _ -> ())
    replay.records;
  {
    dir;
    num_threads;
    fsync;
    vfs;
    writers = Array.make num_threads None;
    next_seq;
    events = None;
    ev_mutex = Mutex.create ();
    obs = Obs.null_handle;
  }

let append_handle j w r =
  if w.torn_tail then begin
    (* The previous append failed and may have left a torn tail on this
       log; terminate it so this record starts on a fresh line.  The
       taint clears only once a write goes through. *)
    w.wh.Vfs.h_write "\n";
    w.torn_tail <- false
  end;
  (match w.wh.Vfs.h_write (line_of_record r) with
  | () -> ()
  | exception e ->
      w.torn_tail <- true;
      raise e);
  if j.fsync then w.wh.Vfs.h_fsync ()

(** Record a spill on [tid]'s private log; returns the fresh instance id.
    Single-writer per log: no locking, no cross-thread coherence. *)
let append_spill j ~tid ~digest ~level ~count =
  if tid < 0 || tid >= j.num_threads then invalid_arg "Journal: tid";
  let w =
    match j.writers.(tid) with
    | Some w -> w
    | None ->
        let w =
          { wh = j.vfs.Vfs.open_append (spill_log j.dir tid); torn_tail = false }
        in
        j.writers.(tid) <- Some w;
        w
  in
  let iid = Printf.sprintf "t%d.%d" tid j.next_seq.(tid) in
  j.next_seq.(tid) <- j.next_seq.(tid) + 1;
  append_handle j w (Spill { iid; digest; level; count });
  iid

let append_event j r =
  Mutex.lock j.ev_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock j.ev_mutex)
    (fun () ->
      let w =
        match j.events with
        | Some w -> w
        | None ->
            let w =
              { wh = j.vfs.Vfs.open_append (events_log j.dir); torn_tail = false }
            in
            j.events <- Some w;
            w
      in
      append_handle j w r)

(** Record a rehydration.  Must land on disk {e before} any item decoded
    from the object is observable by a delete-min — the no-resurrection
    half of the recovery argument. *)
let append_rehydrate j ~iid ~digest = append_event j (Rehydrate { iid; digest })

let close_writers j =
  Array.iteri
    (fun i w ->
      match w with
      | Some w ->
          (try w.wh.Vfs.h_close () with _ -> ());
          j.writers.(i) <- None
      | None -> ())
    j.writers;
  (match j.events with
  | Some w ->
      (try w.wh.Vfs.h_close () with _ -> ());
      j.events <- None
  | None -> ())

let close j = close_writers j

(** Compact the journal to exactly [live] (original instance ids kept; see
    the module header for why that makes an interrupted checkpoint safe):
    write [epoch.log] via temp + rename, then delete the per-thread and
    event logs.  In strict mode the directory is fsynced after the rename
    and {e before} the deletions — the old logs are the only durable copy
    of the live set until the new epoch's rename is on media.  Caller
    must be quiescent (recovery is). *)
let checkpoint j ~live =
  let replay = read_all ~vfs:j.vfs ~dir:j.dir () in
  let gen = 1 + max_epoch replay.records in
  let tmp = epoch_log j.dir ^ ".tmp" in
  let h = j.vfs.Vfs.create tmp in
  (try
     h.Vfs.h_write (line_of_record (Epoch gen));
     List.iter
       (fun { iid; digest; level; count } ->
         h.Vfs.h_write (line_of_record (Spill { iid; digest; level; count })))
       live;
     h.Vfs.h_fsync ();
     h.Vfs.h_close ()
   with e ->
     (try h.Vfs.h_close () with _ -> ());
     (try j.vfs.Vfs.remove tmp with Sys_error _ -> note_io_error j);
     raise e);
  j.vfs.Vfs.rename tmp (epoch_log j.dir);
  if j.fsync then j.vfs.Vfs.fsync_dir j.dir;
  close_writers j;
  Array.iter
    (fun name ->
      let stale =
        (String.length name > 6 && String.sub name 0 6 = "spill-"
        && Filename.check_suffix name ".log")
        || String.equal name "events.log"
      in
      if stale then begin
        try j.vfs.Vfs.remove (Filename.concat j.dir name)
        with Sys_error _ ->
          (* Stale-but-undeletable logs are harmless (replay dedups by
             iid); counted so a sick disk shows up (docs/METRICS.md). *)
          note_io_error j
      end)
    (j.vfs.Vfs.readdir j.dir);
  if j.fsync then j.vfs.Vfs.fsync_dir j.dir;
  gen
