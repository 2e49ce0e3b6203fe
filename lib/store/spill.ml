(** The spill policy and crash recovery glue (docs/STORAGE.md).

    [Spill.Make (B)] sits between a queue's distributed LSMs and its shared
    component(s): the queue applies {!maybe_spill} to every block it is
    about to publish into a shared component, and blocks whose serialized
    size reaches the configured threshold are evicted to the
    content-addressed {!Store} — the in-RAM block is replaced by a cold
    {!Block.spilled} twin whose [keys] mirror stays resident, so every
    shared-component decision path is unchanged and only item selection on
    delete-min rehydrates (see {!Block.items}).

    {b The claim-first protocol.}  Items in a block can be aliased from
    other blocks (spies copy item {e pointers}, paper §4.2), so a spill
    cannot just serialize and drop: a RAM alias could deliver an item that
    recovery would later restore (resurrection).  Instead the spiller first
    {e claims} every alive item with the same test-and-set a delete-min
    uses.  From that point no RAM alias can deliver them; the claimed
    (key, value) pairs are then serialized, made durable, journaled, and
    reborn inside the cold block.  Between the claim and the cold block's
    publication the items are transiently invisible — the same transient
    the paper accepts between a DistLSM spill's two linearization points —
    and a kill inside that window is exactly the journal's department:
    after the [S] record the items are recoverable even though no RAM
    pointer survives; before it, they were never durable and the crash
    model permits losing them (in-RAM state dies with the process).

    {b Ordering obligations} (the failure matrix in docs/STORAGE.md):
    object file before [S] record; [S] record before the cold block links;
    [R] record before any rehydrated item is observable.  Each is a
    one-line invariant here and one row of the recovery proof. *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Item = Klsm_core.Item.Make (B)
  module Block = Klsm_core.Block.Make (B)
  module Obs = Klsm_obs.Obs
  module Backoff = Klsm_primitives.Backoff
  module Xoshiro = Klsm_primitives.Xoshiro

  (* Observability (lib/obs; docs/METRICS.md).  Rehydration can run on any
     thread but is attributed to the shard of the thread that spilled the
     block; the lost-update race on those plain counters is benign (counts
     may undercount under concurrent rehydrates, never corrupt). *)
  let c_spill = Obs.counter "store.spill"
  let c_spill_items = Obs.counter "store.spill_items"
  let c_spill_bytes = Obs.counter "store.spill_bytes"
  let c_spill_skip = Obs.counter "store.spill_skip"
  let c_rehydrate = Obs.counter "store.rehydrate"
  let c_rehydrate_memo = Obs.counter "store.rehydrate_memo"
  let c_recover_blocks = Obs.counter "store.recover_blocks"
  let c_recover_items = Obs.counter "store.recover_items"
  let c_io_error = Obs.counter "store.io_error"
  let c_retry = Obs.counter "store.retry"
  let c_quarantine = Obs.counter "store.quarantine"
  let c_lost = Obs.counter "store.lost"
  let sp_spill = Obs.span "store.spill"
  let sp_rehydrate = Obs.span "store.rehydrate"
  let sp_recover = Obs.span "store.recover"

  type t = {
    store : Store.t;
    journal : Journal.t;
    threshold : int;  (** spill blocks whose encoding is at least this *)
    obs : Obs.sheet;
  }

  (** Open (creating if needed) a spill tier rooted at [root].  A prior
      run's journal under the same root is preserved — {!recover} replays
      it; fresh instance ids continue above it either way.  [fsync]
      selects strict (media) durability for both objects and journal
      appends; the default flushes to the OS, sufficient for the
      process-kill crash model.  [vfs] is the I/O seam threaded to both
      the store and the journal (default: the passthrough; tests hand in
      a Faulty adversary, docs/CHAOS.md). *)
  let create ?(threshold = 1 lsl 20) ?fsync ?vfs ~num_threads ~root () =
    if threshold < 0 then invalid_arg "Spill.create: negative threshold";
    let store = Store.open_store ?fsync ?vfs ~root () in
    let journal =
      Journal.open_journal ?fsync ?vfs ~dir:(Store.journal_dir root)
        ~num_threads ()
    in
    let obs = Obs.create_sheet ~now:B.time ~num_threads () in
    (* Store/Journal report their swallowed I/O errors into this sheet
       (attributed to shard 0 — the counter is a health signal, not a
       per-thread attribution). *)
    Store.set_obs store (Obs.handle obs ~tid:0);
    Journal.set_obs journal (Obs.handle obs ~tid:0);
    { store; journal; threshold; obs }

  let store t = t.store
  let journal t = t.journal
  let threshold t = t.threshold

  (** Internal-counter snapshot; merged into the owning queue's stats by
      the harness registry. *)
  let stats t = Obs.snapshot t.obs

  let close t = Journal.close t.journal

  (* ---- block codec ---- *)

  let magic = "KLSMBLK1"
  let header_bytes = 24
  let bytes_per_item = 16

  (** Size {!maybe_spill} compares against the threshold. *)
  let encoded_size ~count = header_bytes + (bytes_per_item * count)

  (** Serialize claimed (key, value) pairs (descending keys, [int]
      payloads): magic, level, count, then fixed-width little-endian
      pairs.  The encoding is canonical — same pairs, same bytes — which
      is what makes content addressing dedup equal blocks. *)
  let encode ~level pairs =
    let n = Array.length pairs in
    let b = Bytes.create (encoded_size ~count:n) in
    Bytes.blit_string magic 0 b 0 8;
    Bytes.set_int64_le b 8 (Int64.of_int level);
    Bytes.set_int64_le b 16 (Int64.of_int n);
    Array.iteri
      (fun i (k, v) ->
        Bytes.set_int64_le b (header_bytes + (bytes_per_item * i)) (Int64.of_int k);
        Bytes.set_int64_le b (header_bytes + (bytes_per_item * i) + 8) (Int64.of_int v))
      pairs;
    Bytes.unsafe_to_string b

  (** Decode a serialized block; raises {!Store.Corrupt} on any structural
      mismatch (bad magic, impossible count, wrong length, ascending
      keys).  Callers have already digest-verified the bytes, so a failure
      here means an encoder/decoder bug, not disk rot — it is still a
      checked failure, never a wrong answer. *)
  let decode bytes =
    let len = String.length bytes in
    if len < header_bytes || not (String.equal (String.sub bytes 0 8) magic) then
      raise (Store.Corrupt "block: bad magic");
    let level = Int64.to_int (String.get_int64_le bytes 8) in
    let n = Int64.to_int (String.get_int64_le bytes 16) in
    if n < 0 || len <> encoded_size ~count:n then
      raise (Store.Corrupt "block: bad length");
    let pairs =
      Array.init n (fun i ->
          ( Int64.to_int
              (String.get_int64_le bytes (header_bytes + (bytes_per_item * i))),
            Int64.to_int
              (String.get_int64_le bytes (header_bytes + (bytes_per_item * i) + 8))
          ))
    in
    for i = 0 to n - 2 do
      if fst pairs.(i) < fst pairs.(i + 1) then
        raise (Store.Corrupt "block: keys not descending")
    done;
    (level, pairs)

  (* ---- cold blocks ---- *)

  (* Build the in-RAM twin of a durable block instance.  [fetch] runs at
     most once per instance (Block's claim CAS), on whichever thread's
     delete-min selects into the block first.  [verify] controls digest
     re-verification on the fetch: blocks spilled by this same process
     skip it (the bytes went through temp-write + rename moments ago, and
     re-hashing tens of kilobytes would double the spill cycle's CPU
     cost), while blocks adopted across a crash boundary always verify —
     the disk had the whole outage to rot them. *)
  let cold_block p ~obs ~verify ~iid ~digest ~level ~keys ~filter =
    let n = Array.length keys in
    let fetch () =
      B.fault_point "store.rehydrate";
      let t0 = Obs.span_begin obs in
      let bytes = Store.get ~verify p.store digest in
      let level', pairs = decode bytes in
      ignore level';
      if Array.length pairs <> n then
        raise
          (Store.Corrupt
             (Printf.sprintf "block %s: %d items serialized, %d expected"
                digest (Array.length pairs) n));
      Array.iteri
        (fun i (k, _) ->
          if k <> keys.(i) then
            raise
              (Store.Corrupt
                 (Printf.sprintf "block %s: resident key mirror diverges at %d"
                    digest i)))
        pairs;
      (* Journal the rehydration BEFORE any decoded item can escape: once
         an item is deliverable from RAM, this instance must never be
         recovered again (no resurrection). *)
      Journal.append_rehydrate p.journal ~iid ~digest;
      Store.decr_ref p.store digest;
      let items = Array.map (fun (k, v) -> Item.make k v) pairs in
      Obs.incr obs c_rehydrate;
      Obs.span_end obs sp_rehydrate t0;
      items
    in
    Block.spilled ~level ~keys ~filter ~ident:digest
      ~note_memo:(fun () -> Obs.incr obs c_rehydrate_memo)
      ~fetch

  (* ---- the policy ---- *)

  (** The eviction policy, applied by the queue wherever a block is about
      to enter a shared component.  Returns the block unchanged when it is
      below the threshold (or already spilled); otherwise claims its alive
      items, persists them, and returns the cold twin to publish in its
      place. *)
  let maybe_spill p ~alive ~tid block =
    if Block.is_spilled block then block
    else begin
      let f = Block.filled block in
      if encoded_size ~count:f < p.threshold || f = 0 then block
      else begin
        let obs = Obs.handle p.obs ~tid in
        let t0 = Obs.span_begin obs in
        let items = Block.items block in
        (* Claim pass: from here on no RAM alias (spy copies, snapshot
           readers) can deliver these items. *)
        let ks = Array.make f 0 and vs = Array.make f 0 in
        let n = ref 0 in
        for i = 0 to f - 1 do
          let it = items.(i) in
          if alive it && Item.take it then begin
            ks.(!n) <- Item.key it;
            vs.(!n) <- Item.value it;
            incr n
          end
        done;
        if !n = 0 then begin
          (* Everything died under us — nothing durable to create; hand the
             (now fully dead) block back to be merged away. *)
          Obs.incr obs c_spill_skip;
          block
        end
        else begin
          let pairs = Array.init !n (fun i -> (ks.(i), vs.(i))) in
          let bytes = encode ~level:(Block.level block) pairs in
          let digest = Store.put p.store bytes in
          Store.incr_ref p.store digest;
          (* Durability point: object on disk, then the S record.  A kill
             after this line loses no items (recovery replays the S); a
             kill before it loses only items that were never durable. *)
          let iid =
            Journal.append_spill p.journal ~tid ~digest
              ~level:(Block.level block) ~count:!n
          in
          B.fault_point "store.spill";
          Obs.incr obs c_spill;
          Obs.add obs c_spill_items !n;
          Obs.add obs c_spill_bytes (String.length bytes);
          let cold =
            cold_block p ~obs ~verify:false ~iid ~digest
              ~level:(Block.level block) ~keys:(Array.sub ks 0 !n)
              ~filter:(Block.filter block)
          in
          Obs.span_end obs sp_spill t0;
          cold
        end
      end
    end

  (** The queue-facing policy closure ({!Klsm_core.Klsm.create_with}'s
      [?spill_policy] shape). *)
  let policy p ~alive ~tid block = maybe_spill p ~alive ~tid block

  (* ---- recovery ---- *)

  (** Rebuild the durable state after a crash: replay the journal, verify
      and reload every live block instance as a {e cold} block (items stay
      on disk until selected), hand each to [link] (typically
      [Klsm.adopt_block]), seed the store's refcounts, checkpoint the
      journal, and — only when the pass was fully clean — GC unreferenced
      objects.  Idempotent: recovering twice from the same root rebuilds
      the same queue.

      {b Totality.}  This function classifies, it does not abort: every
      live instance ends the pass as exactly one {!Audit.classification} —

      - transient I/O errors are retried (up to 3 times) behind the
        decorrelated-jitter [Backoff] from lib/primitives, so a soft read
        error or one-shot bit flip heals instead of failing the pass;
      - bytes that exist but cannot be trusted (digest mismatch, codec
        corruption, journal/object disagreement on count or level) are
        {e quarantined}: moved to [<root>/quarantine/<digest>] with a
        [.why] sidecar, and released durably by {e exclusion from the
        checkpoint} — no [L] record is needed, and a crash between the
        move and the checkpoint re-classifies them from the quarantine
        directory on the next pass;
      - bytes that cannot currently be produced at all (missing object,
        persistent errors) are {e lost}: their journal entries stay live
        in the checkpoint so a later recovery on a healthier disk — or
        after restoring the object from a replica — retries them;
      - a linking failure downgrades an already-verified instance back to
        lost (its checkpoint entry is live, nothing durable changed).

      The checkpoint is skipped entirely when any journal file was
      unreadable (never compact what could not be fully read), and GC runs
      only on a fully {!Audit.clean} pass.  The only exception that can
      escape is {!Vfs.Crashed} — the injected process death, which is not
      a failure of recovery but another crash for the next recovery to
      handle (bin/torture.exe exercises exactly that). *)
  let recover p ~link =
    let obs = Obs.handle p.obs ~tid:0 in
    let t0 = Obs.span_begin obs in
    B.fault_point "store.recover";
    let vfs = Store.vfs p.store in
    let retries = ref 0 and io_errors = ref 0 in
    let rng = Xoshiro.create ~seed:0x5EED1057 in
    let with_retries f =
      let b = Backoff.create ~min:1 ~max:64 ~jitter:rng () in
      let rec go attempt =
        match f () with
        | v -> Ok v
        | exception (Vfs.Crashed _ as e) -> raise e
        | exception e ->
            incr io_errors;
            Obs.incr obs c_io_error;
            if attempt >= 3 then Error e
            else begin
              incr retries;
              Obs.incr obs c_retry;
              Backoff.once b ~relax:B.relax_n;
              go (attempt + 1)
            end
      in
      go 0
    in
    let replay =
      Journal.read_all ~vfs ~dir:(Journal.dir p.journal) ()
    in
    (* Journal files that needed a re-read or stayed unreadable are I/O
       incidents too; fold them into the same health counters. *)
    io_errors := !io_errors + replay.Journal.unreadable_files;
    Obs.add obs c_io_error replay.Journal.unreadable_files;
    retries := !retries + replay.Journal.reread_retries;
    Obs.add obs c_retry replay.Journal.reread_retries;
    let live = Journal.live_instances replay.Journal.records in
    (* Phase 1: classify every live instance. *)
    let classify (li : Journal.live) =
      let fetch () =
        let bytes = Store.get p.store li.Journal.digest in
        let level, pairs = decode bytes in
        if Array.length pairs <> li.Journal.count then
          raise
            (Store.Corrupt
               (Printf.sprintf
                  "object %s: journal claims %d items, object decodes %d"
                  li.Journal.digest li.Journal.count (Array.length pairs)));
        if level <> li.Journal.level then
          raise
            (Store.Corrupt
               (Printf.sprintf
                  "object %s: journal claims level %d, object decodes %d"
                  li.Journal.digest li.Journal.level level));
        (level, Array.map fst pairs)
      in
      match with_retries fetch with
      | Ok (level, keys) -> `Recovered (level, keys)
      | Error (Store.Corrupt msg) -> (
          (* The bytes exist but cannot be trusted.  Preserve the
             evidence and release the instance by exclusion from the
             checkpoint below. *)
          match Store.quarantine p.store ~digest:li.Journal.digest ~why:msg with
          | _qpath -> `Quarantined msg
          | exception (Vfs.Crashed _ as e) -> raise e
          | exception e ->
              (* Couldn't even move it aside (e.g. the quarantine write
                 itself fails on a dying disk): keep the entry live for a
                 later, healthier pass. *)
              incr io_errors;
              Obs.incr obs c_io_error;
              `Lost
                (Printf.sprintf "%s; quarantine failed: %s" msg
                   (Printexc.to_string e)))
      | Error e ->
          if Store.quarantined p.store li.Journal.digest then
            (* A previous pass moved this object aside and died before its
               checkpoint landed; the quarantine directory is the durable
               half of that decision. *)
            `Quarantined "object already in quarantine"
          else `Lost (Printexc.to_string e)
    in
    let classified = List.map (fun li -> (li, ref (classify li))) live in
    (* Phase 2: checkpoint BEFORE linking, keeping recovered + lost
       (quarantined instances are released by exclusion).  Linking can
       itself rehydrate a cold block — adoption may merge it into an
       existing level — and the [R] record that emits must land in a log
       the checkpoint does not delete: an epoch written after such a
       rehydration would resurrect an instance whose items already
       escaped into RAM. *)
    let keep =
      List.filter_map
        (fun (li, c) ->
          match !c with `Recovered _ | `Lost _ -> Some li | `Quarantined _ -> None)
        classified
    in
    let checkpoint_ok =
      if replay.Journal.unreadable_files > 0 then false
      else
        match Journal.checkpoint p.journal ~live:keep with
        | _gen -> true
        | exception (Vfs.Crashed _ as e) -> raise e
        | exception _ ->
            incr io_errors;
            Obs.incr obs c_io_error;
            false
    in
    (* Phase 3: link the recovered instances as cold blocks (always
       verified on fetch — they crossed a crash boundary).  Linking can
       rehydrate eagerly: adoption may merge the new block into an
       existing level, fetching {e other} cold blocks whose [R] records
       then land mid-merge.  A transient fault on any of those fetches
       must therefore be retried {e here}, with the same block — a
       successful fetch is memoized on its block and the claim of a
       failed one is released, so the retry re-runs only the fetches
       that failed and never double-journals.  Abandoning the adopt
       instead would strand already-rehydrated items: their [R] records
       are durable, so no later pass can see them again (found by
       bin/torture.exe's transient-EIO grid).  Only after the retry
       budget is exhausted is the instance downgraded to lost: its
       checkpoint entry is live, so nothing durable is forgotten. *)
    let blocks = ref 0 and items = ref 0 in
    List.iter
      (fun ((li : Journal.live), c) ->
        match !c with
        | `Recovered (level, keys) -> (
            Store.incr_ref p.store li.Journal.digest;
            (* No thread of this process inserted these items, so no
               thread's local ordering covers them: the empty filter. *)
            let b =
              cold_block p ~obs ~verify:true ~iid:li.Journal.iid
                ~digest:li.Journal.digest ~level ~keys
                ~filter:Klsm_primitives.Bloom.empty
            in
            match with_retries (fun () -> link b) with
            | Ok () ->
                incr blocks;
                items := !items + Array.length keys
            | Error e ->
                Store.decr_ref p.store li.Journal.digest;
                c := `Lost (Printf.sprintf "link failed: %s" (Printexc.to_string e)))
        | _ -> ())
      classified;
    (* Phase 4: the audit books. *)
    let entries =
      List.map
        (fun ((li : Journal.live), c) ->
          let outcome =
            match !c with
            | `Recovered _ -> Audit.Recovered
            | `Quarantined why -> Audit.Quarantined why
            | `Lost why -> Audit.Lost why
          in
          {
            Audit.iid = li.Journal.iid;
            digest = li.Journal.digest;
            level = li.Journal.level;
            count = li.Journal.count;
            bytes = encoded_size ~count:li.Journal.count;
            outcome;
          })
        classified
    in
    let tally pred =
      List.fold_left
        (fun (n, it, by) (e : Audit.entry) ->
          if pred e.Audit.outcome then (n + 1, it + e.Audit.count, by + e.Audit.bytes)
          else (n, it, by))
        (0, 0, 0) entries
    in
    let spilled, spilled_items, spilled_bytes = tally (fun _ -> true) in
    let recovered, recovered_items, recovered_bytes =
      tally (function Audit.Recovered -> true | _ -> false)
    in
    let quarantined, quarantined_items, quarantined_bytes =
      tally (function Audit.Quarantined _ -> true | _ -> false)
    in
    let lost, lost_items, lost_bytes =
      tally (function Audit.Lost _ -> true | _ -> false)
    in
    (* Phase 5: GC, and only on a fully clean pass — with anything
       quarantined, lost, torn or unreadable in play, reclaiming
       "unreferenced" objects risks eating evidence or a retryable
       instance. *)
    let gc_ran, gc_reclaimed =
      if
        quarantined = 0 && lost = 0
        && replay.Journal.torn_lines = 0
        && replay.Journal.unreadable_files = 0
        && checkpoint_ok
      then
        match Store.gc p.store with
        | n -> (true, n)
        | exception (Vfs.Crashed _ as e) -> raise e
        | exception _ ->
            incr io_errors;
            Obs.incr obs c_io_error;
            (false, 0)
      else (false, 0)
    in
    Obs.add obs c_recover_blocks !blocks;
    Obs.add obs c_recover_items !items;
    Obs.add obs c_quarantine quarantined;
    Obs.add obs c_lost lost;
    Obs.span_end obs sp_recover t0;
    {
      Audit.spilled;
      recovered;
      quarantined;
      lost;
      spilled_items;
      recovered_items;
      quarantined_items;
      lost_items;
      spilled_bytes;
      recovered_bytes;
      quarantined_bytes;
      lost_bytes;
      retries = !retries;
      io_errors = !io_errors;
      skipped_lines = replay.Journal.torn_lines;
      unreadable_files = replay.Journal.unreadable_files;
      reread_retries = replay.Journal.reread_retries;
      checkpoint_ok;
      gc_ran;
      gc_reclaimed;
      entries;
    }
end
