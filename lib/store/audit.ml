(** The recovery audit report (docs/STORAGE.md "Failure model").

    [Spill.recover] is {e total}: it never aborts, it classifies.  Every
    live journal instance it finds ends up in exactly one bucket —

    - {b Recovered}: object read, digest verified, codec decoded, cold
      block relinked into the fresh queue;
    - {b Quarantined}: the bytes exist but cannot be trusted (digest
      mismatch, codec corruption, journal/object disagreement); the file
      was moved to [<root>/quarantine/<digest>] next to a [.why] note and
      the instance was released by {e exclusion from the checkpoint};
    - {b Lost}: the bytes cannot currently be produced at all (missing
      file, persistent I/O errors after backoff); the instance is kept
      live in the checkpoint so a later recovery on a healthier disk can
      still retry it.

    The report is the machine-readable record of that classification —
    counts, item and byte accounting per bucket, retry/IO-error tallies —
    and the conservation oracle ([Klsm_harness.Oracle.store_conservation])
    checks its books: [recovered + quarantined + lost = spilled], in
    instances, items and bytes, with the per-entry lines summing to the
    totals.  [bin/torture.exe] asserts this across every cell of the fault
    grid. *)

type classification =
  | Recovered
  | Quarantined of string  (** why the bytes are untrustworthy *)
  | Lost of string  (** why the bytes are currently unproducible *)

type entry = {
  iid : string;  (** journal instance id, [t<tid>.<seq>] *)
  digest : string;
  level : int;
  count : int;  (** items the journal claims for this instance *)
  bytes : int;  (** encoded object size implied by [count] *)
  outcome : classification;
}

type t = {
  spilled : int;  (** live instances found in the journal replay *)
  recovered : int;
  quarantined : int;
  lost : int;
  spilled_items : int;
  recovered_items : int;
  quarantined_items : int;
  lost_items : int;
  spilled_bytes : int;
  recovered_bytes : int;
  quarantined_bytes : int;
  lost_bytes : int;
  retries : int;  (** backoff-mediated I/O retries during classification *)
  io_errors : int;  (** I/O errors observed (including each retried one) *)
  skipped_lines : int;  (** unparseable journal lines (torn tails) *)
  unreadable_files : int;  (** journal files that failed to read at all *)
  reread_retries : int;  (** journal files re-read after bad lines *)
  checkpoint_ok : bool;
      (** the compacting checkpoint landed (always skipped, and [false],
          when any journal file was unreadable — never compact what could
          not be fully read) *)
  gc_ran : bool;
      (** object GC ran — only when the pass was fully clean (no
          quarantined, lost, skipped or unreadable state) *)
  gc_reclaimed : int;
  entries : entry list;  (** one line per live instance, replay order *)
}

let classification_name = function
  | Recovered -> "recovered"
  | Quarantined _ -> "quarantined"
  | Lost _ -> "lost"

let classification_reason = function
  | Recovered -> ""
  | Quarantined why | Lost why -> why

(** Fully clean: every instance recovered and nothing about the journal
    itself was suspect.  This is the (only) state in which recovery lets
    GC loose on the object directory. *)
let clean t =
  t.quarantined = 0 && t.lost = 0 && t.skipped_lines = 0
  && t.unreadable_files = 0 && t.checkpoint_ok

let summary t =
  Printf.sprintf
    "spilled=%d recovered=%d quarantined=%d lost=%d items=%d/%d/%d/%d \
     bytes=%d/%d/%d/%d retries=%d io_errors=%d skipped=%d unreadable=%d \
     checkpoint=%b gc=%b"
    t.spilled t.recovered t.quarantined t.lost t.spilled_items
    t.recovered_items t.quarantined_items t.lost_items t.spilled_bytes
    t.recovered_bytes t.quarantined_bytes t.lost_bytes t.retries t.io_errors
    t.skipped_lines t.unreadable_files t.checkpoint_ok t.gc_ran

(* JSON without a JSON library, in the hand-rolled style of lib/harness's
   Report emitter, which this library cannot depend on.  Digests and iids
   are hex/alnum, reasons are our own messages; escape the two characters
   that could break a string anyway. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b " "
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let entry_to_json e =
  Printf.sprintf
    {|{"iid":"%s","digest":"%s","level":%d,"count":%d,"bytes":%d,"outcome":"%s","reason":"%s"}|}
    (json_escape e.iid) (json_escape e.digest) e.level e.count e.bytes
    (classification_name e.outcome)
    (json_escape (classification_reason e.outcome))

let to_json t =
  Printf.sprintf
    {|{"spilled":%d,"recovered":%d,"quarantined":%d,"lost":%d,"spilled_items":%d,"recovered_items":%d,"quarantined_items":%d,"lost_items":%d,"spilled_bytes":%d,"recovered_bytes":%d,"quarantined_bytes":%d,"lost_bytes":%d,"retries":%d,"io_errors":%d,"skipped_lines":%d,"unreadable_files":%d,"reread_retries":%d,"checkpoint_ok":%b,"gc_ran":%b,"gc_reclaimed":%d,"entries":[%s]}|}
    t.spilled t.recovered t.quarantined t.lost t.spilled_items
    t.recovered_items t.quarantined_items t.lost_items t.spilled_bytes
    t.recovered_bytes t.quarantined_bytes t.lost_bytes t.retries t.io_errors
    t.skipped_lines t.unreadable_files t.reread_retries t.checkpoint_ok
    t.gc_ran t.gc_reclaimed
    (String.concat "," (List.map entry_to_json t.entries))
