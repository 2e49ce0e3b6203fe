(* Tests for lib/store — the SHA-256 implementation, the content-addressed
   object store, the block codec, the crash-recovery journal, the spill
   policy end-to-end on the simulator, and the registry's +spill/+store
   spec suffixes (docs/STORAGE.md). *)

open Helpers
module Sim = Klsm_backend.Sim
module RealB = Klsm_backend.Real
module Sha256 = Klsm_store.Sha256
module Store = Klsm_store.Store
module Journal = Klsm_store.Journal
module Vfs = Klsm_store.Vfs
module Audit = Klsm_store.Audit
module Spill = Klsm_store.Spill.Make (Sim)
module SpillR = Klsm_store.Spill.Make (RealB)
module K = Klsm_core.Klsm.Make (Sim)
module KR = Klsm_core.Klsm.Make (RealB)
module R = Klsm_harness.Registry.Make (Sim)
module Oracle = Klsm_harness.Oracle
module Obs = Klsm_obs.Obs
module Bloom = Klsm_primitives.Bloom

(* ---------------- sha256 ---------------- *)

let test_sha256_vectors () =
  (* FIPS 180-2 test vectors. *)
  check_string "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex_digest "");
  check_string "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex_digest "abc");
  check_string "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex_digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_string "one million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex_digest (String.make 1_000_000 'a'))

let test_line_checksum () =
  check_int "8 hex chars" 8 (String.length (Sha256.line_checksum "S t0.0 d 1 2"));
  check_bool "distinct payloads differ" true
    (not (String.equal (Sha256.line_checksum "a") (Sha256.line_checksum "b")))

(* ---------------- object store ---------------- *)

let test_store_roundtrip () =
  with_root @@ fun root ->
  let s = Store.open_store ~root () in
  let payload = "hello, spilled world" in
  let d = Store.put s payload in
  check_string "content addressed" (Sha256.hex_digest payload) d;
  check_string "get returns the bytes" payload (Store.get s d);
  check_string "idempotent put" d (Store.put s payload);
  check_bool "contains" true (Store.contains s d)

let test_store_corruption_detected () =
  with_root @@ fun root ->
  let s = Store.open_store ~root () in
  let d = Store.put s "precious bytes" in
  (* Flip one byte in the object file: get must fail checked, not lie. *)
  let path = Store.object_path s d in
  let bytes = Bytes.of_string (Store.get s d) in
  Bytes.set bytes 3 (Char.chr (Char.code (Bytes.get bytes 3) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc;
  match Store.get s d with
  | _ -> Alcotest.fail "corrupt object returned as if intact"
  | exception Store.Corrupt _ -> ()

let test_store_refcount_gc () =
  with_root @@ fun root ->
  let s = Store.open_store ~root () in
  let d1 = Store.put s "object one" in
  let d2 = Store.put s "object two" in
  Store.incr_ref s d1;
  check_int "refcount" 1 (Store.refcount s d1);
  check_int "unreferenced object collected" 1 (Store.gc s);
  check_string "referenced object survives" "object one" (Store.get s d1);
  (match Store.get s d2 with
  | _ -> Alcotest.fail "unreferenced object survived gc"
  | exception Sys_error _ -> ());
  Store.decr_ref s d1;
  check_int "refcount back to zero" 0 (Store.refcount s d1);
  check_int "released object collected" 1 (Store.gc s)

(* ---------------- journal ---------------- *)

let test_journal_replay () =
  with_root @@ fun root ->
  let dir = Store.journal_dir root in
  let j = Journal.open_journal ~dir ~num_threads:2 () in
  let a = Journal.append_spill j ~tid:0 ~digest:"d1" ~level:3 ~count:8 in
  let b = Journal.append_spill j ~tid:1 ~digest:"d2" ~level:2 ~count:4 in
  let c = Journal.append_spill j ~tid:0 ~digest:"d1" ~level:3 ~count:8 in
  Journal.append_rehydrate j ~iid:b ~digest:"d2";
  Journal.close j;
  let rp = Journal.read_all ~dir () in
  check_int "no torn lines" 0 rp.Journal.torn_lines;
  let live = Journal.live_instances rp.Journal.records in
  check_int "rehydrated instance is dead" 2 (List.length live);
  check_bool "first instance live" true
    (List.exists (fun l -> String.equal l.Journal.iid a) live);
  check_bool "same-content second instance live" true
    (List.exists (fun l -> String.equal l.Journal.iid c) live);
  (* A fresh writer over the same dir continues above the existing
     sequence numbers: instance ids never recycle. *)
  let j2 = Journal.open_journal ~dir ~num_threads:2 () in
  let d = Journal.append_spill j2 ~tid:0 ~digest:"d3" ~level:1 ~count:1 in
  check_bool "no iid reuse" true (d <> a && d <> c);
  Journal.close j2

let test_journal_torn_tail () =
  with_root @@ fun root ->
  let dir = Store.journal_dir root in
  let j = Journal.open_journal ~dir ~num_threads:1 () in
  let a = Journal.append_spill j ~tid:0 ~digest:"d1" ~level:0 ~count:2 in
  Journal.close j;
  (* A crash mid-append leaves a checksum-less torn last line. *)
  let oc =
    open_out_gen
      [ Open_append; Open_binary ]
      0o644
      (Filename.concat dir "spill-0.log")
  in
  output_string oc "S t0.99 dea";
  close_out oc;
  let rp = Journal.read_all ~dir () in
  check_int "torn line skipped" 1 rp.Journal.torn_lines;
  let live = Journal.live_instances rp.Journal.records in
  check_int "intact record survives" 1 (List.length live);
  check_string "the intact instance" a (List.hd live).Journal.iid

let test_journal_checkpoint () =
  with_root @@ fun root ->
  let dir = Store.journal_dir root in
  let j = Journal.open_journal ~dir ~num_threads:2 () in
  let a = Journal.append_spill j ~tid:0 ~digest:"d1" ~level:3 ~count:8 in
  let _b = Journal.append_spill j ~tid:1 ~digest:"d2" ~level:2 ~count:4 in
  let live =
    Journal.live_instances (Journal.read_all ~dir ()).Journal.records
  in
  check_int "first epoch" 1 (Journal.checkpoint j ~live);
  check_bool "spill logs compacted away" true
    (not (Sys.file_exists (Filename.concat dir "spill-0.log")));
  let rp = Journal.read_all ~dir () in
  check_int "epoch replays clean" 0 rp.Journal.torn_lines;
  let live2 = Journal.live_instances rp.Journal.records in
  check_int "live set preserved" 2 (List.length live2);
  check_bool "original instance ids kept" true
    (List.exists (fun l -> String.equal l.Journal.iid a) live2);
  Journal.close j

(* ---------------- block codec ---------------- *)

let test_codec_roundtrip () =
  let pairs = Array.init 17 (fun i -> (1000 - (7 * i), i * 3)) in
  let bytes = Spill.encode ~level:5 pairs in
  check_int "size formula" (Spill.encoded_size ~count:17) (String.length bytes);
  let level, pairs' = Spill.decode bytes in
  check_int "level" 5 level;
  check_bool "pairs identical" true (pairs = pairs');
  check_string "re-encode is byte-identical" bytes (Spill.encode ~level:5 pairs');
  (* Structural damage is a checked failure at the codec layer too. *)
  let b = Bytes.of_string bytes in
  Bytes.set b 0 'X';
  match Spill.decode (Bytes.unsafe_to_string b) with
  | _ -> Alcotest.fail "bad magic accepted"
  | exception Store.Corrupt _ -> ()

(* ---------------- spill policy end-to-end (simulator) ---------------- *)

let run_spill_workload ~seed ~threads ~per_thread ~handles q key_of got =
  Sim.parallel_run ~num_threads:threads (fun tid ->
      let h = K.register q tid in
      handles.(tid) <- Some h;
      let rng = Xoshiro.create ~seed:(seed + (7919 * tid)) in
      for i = 0 to per_thread - 1 do
        let payload = (tid * per_thread) + i in
        let key = Xoshiro.int rng 100_000 in
        key_of.(payload) <- key;
        K.insert h key payload;
        if i land 1 = 1 then
          match K.try_delete_min h with
          | Some (_, v) -> got.(v) <- got.(v) + 1
          | None -> ()
      done)

let test_spill_rehydrate_conservation () =
  with_root @@ fun root ->
  Sim.configure ~seed:7 ();
  let threads = 4 and per_thread = 300 in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let spill = Spill.create ~threshold:64 ~num_threads:threads ~root () in
  Obs.set_enabled was;
  let q =
    K.create_with ~seed:7 ~k:8 ~num_threads:threads
      ~spill_policy:(Spill.policy spill) ()
  in
  let total = threads * per_thread in
  let key_of = Array.make total (-1) in
  let got = Array.make total 0 in
  let handles = Array.make threads None in
  run_spill_workload ~seed:7 ~threads ~per_thread ~handles q key_of got;
  (* Fault-free run: plain conservation must hold straight through the
     spill → rehydrate round-trips. *)
  let h = Option.get handles.(0) in
  let misses = ref 0 in
  while !misses < 300 do
    match K.try_delete_min h with
    | Some (dk, v) ->
        got.(v) <- got.(v) + 1;
        check_int "key survives the round-trip" key_of.(v) dk;
        misses := 0
    | None -> incr misses
  done;
  Array.iteri
    (fun p c -> if c <> 1 then Alcotest.failf "payload %d delivered %d times" p c)
    got;
  let st = Spill.stats spill in
  let counter name =
    match List.assoc_opt name st.Obs.counters with
    | Some per -> Array.fold_left ( + ) 0 per
    | None -> 0
  in
  check_bool "blocks actually spilled" true (counter "store.spill" > 0);
  check_bool "blocks actually rehydrated" true (counter "store.rehydrate" > 0);
  Spill.close spill

(* Recovery against the failure matrix (docs/STORAGE.md), with the two
   interesting durable states built deterministically:

   - a {e mid-spill kill}: the object and [S] record are durable but the
     cold twin never linked (here: [maybe_spill]'s result is dropped on
     the floor) — recovery MUST bring those items back;
   - a {e rehydrated instance}: its items escaped into RAM before the
     kill ([R] on disk) — recovery MUST NOT resurrect them. *)
let test_recovery_conservation () =
  with_root @@ fun root ->
  Sim.configure ~seed:13 ();
  let alive _ = true in
  let spill = Spill.create ~threshold:0 ~num_threads:2 ~root () in
  let mk_block pairs =
    let pairs = Array.copy pairs in
    Array.sort (fun (a, _) (b, _) -> compare b a) pairs;
    Spill.Block.of_sorted_array ~filter:Bloom.empty
      (Array.map (fun (k, v) -> Spill.Item.make k v) pairs)
  in
  let pairs_a = Array.init 9 (fun i -> (100 + i, i)) in
  let pairs_b = Array.init 5 (fun i -> (50 + i, 100 + i)) in
  let pairs_c = Array.init 4 (fun i -> (200 + i, 200 + i)) in
  ignore (Spill.maybe_spill spill ~alive ~tid:0 (mk_block pairs_a));
  ignore (Spill.maybe_spill spill ~alive ~tid:1 (mk_block pairs_b));
  let cold_c = Spill.maybe_spill spill ~alive ~tid:0 (mk_block pairs_c) in
  (* Rehydrate instance c: its items are observable in RAM from here on,
     so the crash boundary must never bring them back. *)
  ignore (Spill.Block.items cold_c);
  Spill.close spill;
  (* Restart: disk is all that survives. *)
  let spill2 = Spill.create ~threshold:0 ~num_threads:2 ~root () in
  let q2 = K.create_with ~seed:1 ~k:8 ~num_threads:1 () in
  let h2 = K.register q2 0 in
  let r = Spill.recover spill2 ~link:(fun b -> K.adopt_block h2 b) in
  check_int "journal replays clean" 0 r.Audit.skipped_lines;
  check_int "no quarantined objects" 0 r.Audit.quarantined;
  check_int "nothing lost" 0 r.Audit.lost;
  check_int "both unlinked instances recovered" 2 r.Audit.recovered;
  check_int "all their items recovered" 14 r.Audit.recovered_items;
  (match Oracle.store_conservation r with
  | [] -> ()
  | v :: _ -> Alcotest.failf "audit books do not balance: %s" v);
  (* Drain and compare the exact multiset. *)
  let expected = Hashtbl.create 16 in
  Array.iter
    (fun (k, v) -> Hashtbl.replace expected v k)
    (Array.append pairs_a pairs_b);
  let drained = ref 0 and misses = ref 0 in
  while !misses < 300 do
    match K.try_delete_min h2 with
    | Some (dk, v) ->
        incr drained;
        misses := 0;
        (match Hashtbl.find_opt expected v with
        | None ->
            Alcotest.failf "payload %d not owed (resurrected or invented)" v
        | Some k ->
            check_int "recovered byte-identical" k dk;
            Hashtbl.remove expected v)
    | None -> incr misses
  done;
  check_int "drain delivers the journal's promise" r.Audit.recovered_items
    !drained;
  check_int "nothing lost" 0 (Hashtbl.length expected);
  Spill.close spill2;
  (* After a full recovery drain every instance was rehydrated; a third
     open of the same root must find nothing live (the post-checkpoint
     [R] records are durable because recovery checkpoints before it
     links). *)
  let spill3 = Spill.create ~threshold:0 ~num_threads:2 ~root () in
  let q3 = K.create_with ~seed:2 ~k:8 ~num_threads:1 () in
  let h3 = K.register q3 0 in
  let r2 = Spill.recover spill3 ~link:(fun b -> K.adopt_block h3 b) in
  check_int "drained store recovers empty" 0 r2.Audit.recovered_items;
  Spill.close spill3

(* ---------------- the Faulty-Vfs matrix (ISSUE 8) ----------------

   Every test below runs lib/store against the in-memory adversary
   [Vfs.faulty]: no real disk, fully deterministic fault injection at
   the seam.  The spill functor is instantiated over the Real backend —
   the "disk" is in-memory, so no simulator scheduling is involved. *)

let froot = "/faulty"

(* Plant [blocks] cold instances of [items_per] items each under [root]
   through [vfs], dropping every cold twin (the mid-spill-kill durable
   state); returns the payload -> key table the disk now owes. *)
let plant_faulty ?(fsync = false) ~vfs ~blocks ~items_per () =
  let spill =
    SpillR.create ~threshold:0 ~fsync ~vfs ~num_threads:1 ~root:froot ()
  in
  let alive _ = true in
  let expected = Hashtbl.create 64 in
  for b = 0 to blocks - 1 do
    let pairs =
      Array.init items_per (fun i ->
          let v = (b * items_per) + i in
          let k = 7919 * (((v * 31) + b) mod 997) in
          Hashtbl.replace expected v k;
          (k, v))
    in
    Array.sort (fun (a, _) (b, _) -> compare b a) pairs;
    ignore
      (SpillR.maybe_spill spill ~alive ~tid:0
         (SpillR.Block.of_sorted_array ~filter:Bloom.empty
            (Array.map (fun (k, v) -> SpillR.Item.make k v) pairs)))
  done;
  SpillR.close spill;
  expected

(* One recovery pass over [froot] through [vfs] into a fresh queue;
   returns the handle (to empty the queue through) and the audit, and
   checks the conservation oracle on the way out. *)
let recover_faulty ?(fsync = false) ~vfs () =
  let spill =
    SpillR.create ~threshold:0 ~fsync ~vfs ~num_threads:1 ~root:froot ()
  in
  let q = KR.create_with ~k:8 ~num_threads:1 () in
  let h = KR.register q 0 in
  let a = SpillR.recover spill ~link:(fun b -> KR.adopt_block h b) in
  (match Oracle.store_conservation a with
  | [] -> ()
  | v :: _ -> Alcotest.failf "audit books do not balance: %s" v);
  (spill, h, a)

let drain_all h =
  let out = ref [] in
  let rec loop () =
    match KR.try_delete_min h with
    | Some kv ->
        out := kv :: !out;
        loop ()
    | None -> ()
  in
  loop ();
  !out

let test_faulty_short_write () =
  let f = Vfs.faulty () in
  Vfs.arm f [ Vfs.rule "vfs.write" (Vfs.Short_write 7) ];
  let s = Store.open_store ~vfs:(Vfs.vfs f) ~root:froot () in
  let payload = "a payload much longer than seven bytes" in
  (match Store.put s payload with
  | _ -> Alcotest.fail "short write reported success"
  | exception Sys_error _ -> ());
  (* The torn temp never published: the object is absent, not torn. *)
  check_bool "short-written object not published" false
    (Store.contains s (Sha256.hex_digest payload));
  (* Fault spent; the retry succeeds and round-trips. *)
  let d = Store.put s payload in
  check_string "retry round-trips" payload (Store.get s d);
  check_int "exactly one injected fault" 1 (Vfs.injected f)

let test_faulty_sticky_enospc () =
  let f = Vfs.faulty () in
  Vfs.arm f [ Vfs.rule "vfs.write" (Vfs.Enospc true) ];
  let s = Store.open_store ~vfs:(Vfs.vfs f) ~root:froot () in
  (match Store.put s "does not fit" with
  | _ -> Alcotest.fail "ENOSPC put succeeded"
  | exception Sys_error _ -> ());
  (match Store.put s "still does not fit" with
  | _ -> Alcotest.fail "a full disk drained itself"
  | exception Sys_error _ -> ());
  check_bool "sticky fault keeps firing" true (Vfs.injected f >= 2);
  (* Operator frees space: disarm, and the path is healthy again. *)
  Vfs.disarm f;
  let d = Store.put s "space reclaimed" in
  check_string "healthy after disarm" "space reclaimed" (Store.get s d)

let test_faulty_bitflip_quarantine () =
  let f = Vfs.faulty () in
  let vfs = Vfs.vfs f in
  let expected = plant_faulty ~vfs ~blocks:2 ~items_per:5 () in
  (* Durably corrupt one object in place through the seam (a transient
     read-side bit flip would heal on recovery's retry; rot on the
     platter does not). *)
  let s = Store.open_store ~vfs ~root:froot () in
  let digests = ref [] in
  Store.iter_objects s (fun d -> digests := d :: !digests);
  check_int "two distinct objects planted" 2 (List.length !digests);
  let victim = List.hd (List.sort compare !digests) in
  let path = Store.object_path s victim in
  let bytes = Bytes.of_string (vfs.Vfs.read_file path) in
  let pos = Bytes.length bytes - 1 in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 1));
  let h = vfs.Vfs.create path in
  h.Vfs.h_write (Bytes.unsafe_to_string bytes);
  h.Vfs.h_close ();
  let spill, qh, a = recover_faulty ~vfs () in
  check_int "corrupt instance quarantined" 1 a.Audit.quarantined;
  check_int "healthy instance recovered" 1 a.Audit.recovered;
  check_int "nothing lost" 0 a.Audit.lost;
  check_int "conservation" a.Audit.spilled
    (a.Audit.recovered + a.Audit.quarantined + a.Audit.lost);
  check_bool "evidence preserved under quarantine/" true
    (Store.quarantined s victim);
  check_bool "corrupt object out of the addressable namespace" false
    (Store.contains s victim);
  check_bool "gc never runs on a dirty pass" false a.Audit.gc_ran;
  (* The drain delivers exactly the recovered instance — never a byte of
     the quarantined one. *)
  let drained = drain_all qh in
  check_int "drain = recovered items" a.Audit.recovered_items
    (List.length drained);
  List.iter
    (fun (dk, v) ->
      match Hashtbl.find_opt expected v with
      | Some k when k = dk -> ()
      | Some _ -> Alcotest.failf "payload %d came back with a wrong key" v
      | None -> Alcotest.failf "payload %d invented by recovery" v)
    drained;
  SpillR.close spill

let test_faulty_transient_eio_retries () =
  let f = Vfs.faulty () in
  let vfs = Vfs.vfs f in
  let expected = plant_faulty ~vfs ~blocks:2 ~items_per:5 () in
  (* One transient EIO on the first object fetch of the recovery pass
     (read 1 is open_journal's replay, read 2 recover's replay, read 3
     the first classify fetch): the backoff-retry loop re-reads and
     recovery proceeds at full strength. *)
  Vfs.arm f [ Vfs.rule ~hit:3 "vfs.read" (Vfs.Eio false) ];
  let spill, h, a = recover_faulty ~vfs () in
  check_bool "the transient fault cost a retry" true (a.Audit.retries > 0);
  check_int "nothing quarantined" 0 a.Audit.quarantined;
  check_int "nothing lost" 0 a.Audit.lost;
  check_int "everything recovered" (Hashtbl.length expected)
    a.Audit.recovered_items;
  check_int "drain delivers everything" (Hashtbl.length expected)
    (List.length (drain_all h));
  SpillR.close spill

let test_faulty_torn_checkpoint () =
  let f = Vfs.faulty () in
  let vfs = Vfs.vfs f in
  let expected = plant_faulty ~vfs ~blocks:2 ~items_per:5 () in
  (* The first write of a recovery pass is the checkpoint's epoch temp
     file: tear it mid-line and kill the process.  The half-written
     epoch was never renamed over the real one, so the next pass replays
     the previous journal state in full. *)
  Vfs.arm f [ Vfs.rule "vfs.write" (Vfs.Torn_write 9) ];
  (match recover_faulty ~vfs () with
  | _ -> Alcotest.fail "torn checkpoint write did not crash"
  | exception Vfs.Crashed _ -> ());
  Vfs.crash f;
  let spill, h, a = recover_faulty ~vfs () in
  check_int "previous epoch wins: nothing lost" 0 a.Audit.lost;
  check_int "previous epoch wins: nothing quarantined" 0 a.Audit.quarantined;
  check_int "all planted items recovered after the crash"
    (Hashtbl.length expected) a.Audit.recovered_items;
  check_int "no torn journal lines (the tmp is not a journal file)" 0
    a.Audit.skipped_lines;
  check_int "drain delivers everything" (Hashtbl.length expected)
    (List.length (drain_all h));
  SpillR.close spill

let test_faulty_lost_stays_lost () =
  let f = Vfs.faulty () in
  let vfs = Vfs.vfs f in
  ignore (plant_faulty ~vfs ~blocks:2 ~items_per:5 ());
  (* Remove one object outright: its bytes are unproducible (not
     corrupt), so the instance is lost — and stays owed. *)
  let s = Store.open_store ~vfs ~root:froot () in
  let digests = ref [] in
  Store.iter_objects s (fun d -> digests := d :: !digests);
  let victim = List.hd (List.sort compare !digests) in
  vfs.Vfs.remove (Store.object_path s victim);
  let spill, _h, a = recover_faulty ~vfs () in
  check_int "one lost" 1 a.Audit.lost;
  check_int "one recovered" 1 a.Audit.recovered;
  check_bool "gc never runs with losses on the books" false a.Audit.gc_ran;
  SpillR.close spill;
  (* Recovery is idempotent under faults: a second pass (no drain in
     between) still owes the lost instance — the checkpoint kept its
     entry live — and invents nothing. *)
  let spill2, _h2, a2 = recover_faulty ~vfs () in
  check_int "second pass: still owed" 1 a2.Audit.lost;
  check_int "second pass: same live set" 2 a2.Audit.spilled;
  SpillR.close spill2

(* Satellite 1 regression: a rename is not durable until its directory
   is.  Non-strict mode loses the publish at power loss; strict mode
   (fsync file + parent dir) keeps it. *)
let test_powerloss_unfsynced_rename () =
  let f = Vfs.faulty ~mode:Vfs.Power_loss () in
  let vfs = Vfs.vfs f in
  let s = Store.open_store ~fsync:false ~vfs ~root:froot () in
  let d = Store.put s "vanishing bytes" in
  check_bool "visible before the crash" true (Store.contains s d);
  Vfs.crash f;
  let s2 = Store.open_store ~fsync:false ~vfs ~root:froot () in
  check_bool "unfsynced rename dropped at power loss" false
    (Store.contains s2 d);
  (* Same publish in strict mode survives the same crash. *)
  let g = Vfs.faulty ~mode:Vfs.Power_loss () in
  let vg = Vfs.vfs g in
  let t = Store.open_store ~fsync:true ~vfs:vg ~root:froot () in
  let d2 = Store.put t "durable bytes" in
  Vfs.crash g;
  let t2 = Store.open_store ~fsync:true ~vfs:vg ~root:froot () in
  check_string "strict publish survives power loss" "durable bytes"
    (Store.get t2 d2)

(* ---------------- registry spec suffixes ---------------- *)

let parse_ok s =
  match R.parse_spec s with
  | Ok sp -> sp
  | Error e -> Alcotest.failf "parse %S: %s" s e

let parse_err s =
  match R.parse_spec s with
  | Ok sp -> Alcotest.failf "accepted %S as %s" s (R.spec_name sp)
  | Error e -> e

let test_parse_suffixes () =
  (match parse_ok "klsm:256+spill:64k" with
  | R.Stored (R.Klsm 256, cfg) ->
      check_int "64k is binary" 65536 cfg.R.spill_bytes;
      check_string "default store dir" R.default_store_dir cfg.R.store_dir
  | sp -> Alcotest.failf "wrong spec %s" (R.spec_name sp));
  (match parse_ok "klsm-sharded:256:4+spill:1m+store:/tmp" with
  | R.Stored (R.Klsm_sharded { k = 256; shards = 4; _ }, cfg) ->
      check_int "1m" (1 lsl 20) cfg.R.spill_bytes;
      check_string "explicit dir" "/tmp" cfg.R.store_dir
  | sp -> Alcotest.failf "wrong spec %s" (R.spec_name sp));
  (match parse_ok "klsm:4+store:/tmp" with
  | R.Stored (R.Klsm 4, cfg) ->
      check_int "default threshold" R.default_spill_bytes cfg.R.spill_bytes
  | sp -> Alcotest.failf "wrong spec %s" (R.spec_name sp));
  (* '+' inside a base name is not a suffix separator. *)
  (match parse_ok "heap+lock" with
  | R.Heap_lock -> ()
  | sp -> Alcotest.failf "wrong spec %s" (R.spec_name sp));
  check_string "spec_name includes the threshold" "klsm(256)+spill:65536"
    (R.spec_name (parse_ok "klsm:256+spill:64k"))

let test_parse_suffix_rejects () =
  List.iter
    (fun s ->
      let msg = parse_err s in
      check_bool "error names the offending spec" true
        (String.length msg > 0))
    [
      "klsm:256+spill:abc";
      "klsm:256+spill:-4";
      "klsm:256+spill";
      "klsm:256+storage:3";
      "klsm:256+store:";
      "heap+lock+spill:64";
      "linden+spill:64";
    ];
  (* A store path that exists and is not a directory is a parse error. *)
  let f = Filename.temp_file "klsm-store-test" ".notadir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove f)
    (fun () -> ignore (parse_err (Printf.sprintf "klsm:8+store:%s" f)))

let () =
  Alcotest.run "store"
    [
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "line checksum" `Quick test_line_checksum;
        ] );
      ( "objects",
        [
          Alcotest.test_case "put/get roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "corruption detected" `Quick
            test_store_corruption_detected;
          Alcotest.test_case "refcount gc" `Quick test_store_refcount_gc;
        ] );
      ( "journal",
        [
          Alcotest.test_case "replay and liveness" `Quick test_journal_replay;
          Alcotest.test_case "torn tail skipped" `Quick test_journal_torn_tail;
          Alcotest.test_case "checkpoint compacts" `Quick
            test_journal_checkpoint;
        ] );
      ( "codec",
        [ Alcotest.test_case "roundtrip + corruption" `Quick test_codec_roundtrip ] );
      ( "spill",
        [
          Alcotest.test_case "spill/rehydrate conservation" `Quick
            test_spill_rehydrate_conservation;
          Alcotest.test_case "kill-and-recover conservation" `Quick
            test_recovery_conservation;
        ] );
      ( "faulty-vfs",
        [
          Alcotest.test_case "short write fails checked" `Quick
            test_faulty_short_write;
          Alcotest.test_case "sticky ENOSPC" `Quick test_faulty_sticky_enospc;
          Alcotest.test_case "bit rot quarantined" `Quick
            test_faulty_bitflip_quarantine;
          Alcotest.test_case "transient EIO retried" `Quick
            test_faulty_transient_eio_retries;
          Alcotest.test_case "torn checkpoint: previous epoch wins" `Quick
            test_faulty_torn_checkpoint;
          Alcotest.test_case "lost stays lost (idempotence)" `Quick
            test_faulty_lost_stays_lost;
          Alcotest.test_case "power loss drops unfsynced rename" `Quick
            test_powerloss_unfsynced_rename;
        ] );
      ( "registry",
        [
          Alcotest.test_case "suffix parsing" `Quick test_parse_suffixes;
          Alcotest.test_case "suffix rejects" `Quick test_parse_suffix_rejects;
        ] );
    ]
