(** The per-layer kernels the benchmark times from outside: each calls a
    layer's public function on one thread, on inputs built from the seed
    in the shape the workload that layer serves produces, and reports the
    median over [batches] batches of at least [batch_ns] of timed calls.
    Work a call needs before it can run again (restoring a snapshot,
    rebuilding a consumed input) happens between timed calls. *)

open Common
module Item = Klsm_core.Item.Make (Pb)
module Block = Klsm_core.Block.Make (Pb)
module Block_array = Klsm_core.Block_array.Make (Pb)
module Shared = Klsm_core.Shared_klsm.Make (Pb)
module Dist = Klsm_core.Dist_lsm.Make (Pb)
module Bloom = Klsm_primitives.Bloom
module Tabular_hash = Klsm_primitives.Tabular_hash
module Fiber = Klsm_sched.Fiber.Make (Pb)
module Store = Klsm_store.Store
module Journal = Klsm_store.Journal
module Sha256 = Klsm_store.Sha256
module Spill = Klsm_store.Spill.Make (Pb)

module Deque = Klsm_primitives.Deque.Make (struct
  type 'a t = 'a Atomic.t

  let make = Atomic.make
  let get = Atomic.get
  let set = Atomic.set
  let compare_and_set = Atomic.compare_and_set
end)

type cfg = { batches : int; batch_ns : int; seed : int }

let cfg_of (p : params) =
  if p.scale >= 1. then { batches = 31; batch_ns = 1_000_000; seed = p.seed }
  else { batches = 3; batch_ns = 50_000; seed = p.seed }

(** Median over batches of the nanoseconds per operation, where [call ()]
    performs and returns some number of operations and [prepare ()] runs
    untimed before each call. *)
let median_ns c ?(prepare = ignore) call =
  let per = Array.make c.batches 0. in
  for b = 0 to c.batches - 1 do
    let spent = ref 0 and ops = ref 0 in
    while !spent < c.batch_ns do
      prepare ();
      let t0 = Pb.now_ns () in
      let n = call () in
      spent := !spent + (Pb.now_ns () - t0);
      ops := !ops + n
    done;
    per.(b) <- float_of_int !spent /. float_of_int !ops
  done;
  Stats.median per

let alive it = not (Item.is_taken it)

(* [n] distinct-enough keys from the workload's key shape, descending. *)
let keys (c : cfg) shape n =
  let next = Klsm_harness.Workload.generator shape (Xoshiro.create ~seed:c.seed) in
  let a = Array.init n (fun _ -> next ()) in
  Array.sort (fun x y -> compare y x) a;
  a

let block_of ks = Block.of_sorted_array ~filter:Bloom.empty (Array.map (fun k -> Item.make k 0) ks)

(* ------------------------------------------------------------------ *)

let merge c shape n =
  let pool = Block.Pool.create () in
  let b1 = block_of (keys c shape n) and b2 = block_of (keys { c with seed = c.seed + 1 } shape n) in
  Block.publish b1;
  Block.publish b2;
  let reps = max 1 (4096 / n) in
  median_ns c (fun () ->
      for _ = 1 to reps do
        Block.retire ~pool (Block.merge ~pool ~alive b1 b2)
      done;
      reps)

(* The shared component of uniform-mix: ~1e5 items in the blocks a
   thread's spills leave (level-8 blocks of 256 keys, merged LSM-style).
   [bases] snapshots are taken one spill apart, so successive snapshots
   differ in which merge cascade the next insert triggers. *)
let shared_component c ~items ~bases =
  let hasher = Tabular_hash.create ~seed:c.seed in
  let q = Shared.create ~k:256 ~hasher ~alive () in
  let h = Shared.register q ~tid:0 ~rng:(Xoshiro.create ~seed:c.seed) in
  let next = Klsm_harness.Workload.generator (Uniform (1 lsl 28)) (Xoshiro.create ~seed:c.seed) in
  let spill () =
    let ks = Array.init 256 (fun _ -> next ()) in
    Array.sort (fun x y -> compare y x) ks;
    Shared.insert h (block_of ks)
  in
  for _ = 1 to items / 256 do
    spill ()
  done;
  let snaps =
    Array.init bases (fun _ ->
        let s = Pb.get q.Shared.shared in
        spill ();
        s)
  in
  (q, h, snaps, next)

let pivots c =
  let _, _, snaps, _ = shared_component c ~items:100_000 ~bases:1 in
  let arr = Block_array.copy (Option.get snaps.(0)) in
  let scratch = Block_array.Scratch.create () in
  median_ns c (fun () ->
      Block_array.calculate_pivots ~scratch arr ~k:256;
      1)

(* A consolidation after a burst of delete-mins: the k+1 smallest items
   of the component are dead.  Consolidation trims the dead tails in
   place, so every call starts from the original fill counts. *)
let consolidate c =
  let _, _, snaps, _ = shared_component c ~items:100_000 ~bases:1 in
  let base = Option.get snaps.(0) in
  let blocks = Block_array.blocks base in
  let pool = Block.Pool.create () and scratch = Block_array.Scratch.create () in
  let filled = Array.map Block.filled blocks in
  let all =
    Array.concat (Array.to_list (Array.mapi (fun i b -> Array.sub (Block.items b) 0 filled.(i)) blocks))
  in
  Array.sort (fun a b -> compare (Item.key a) (Item.key b)) all;
  for i = 0 to min 256 (Array.length all - 1) do
    ignore (Item.take all.(i))
  done;
  let work = ref (Block_array.copy base) in
  let prepare () =
    Array.iter (fun b -> if not (Array.memq b blocks) then Block.retire ~pool b)
      (Block_array.blocks !work);
    Array.iteri (fun i b -> Pb.set b.Block.filled filled.(i)) blocks;
    work := Block_array.copy base
  in
  median_ns c ~prepare (fun () ->
      ignore (Block_array.consolidate ~pool ~scratch ~alive !work);
      1)

let publish c =
  let q, h, snaps, next = shared_component c ~items:100_000 ~bases:16 in
  let blocks =
    Array.init 16 (fun _ ->
        let ks = Array.init 256 (fun _ -> next ()) in
        Array.sort (fun x y -> compare y x) ks;
        block_of ks)
  in
  let i = ref 0 in
  median_ns c
    ~prepare:(fun () ->
      incr i;
      Pb.set q.Shared.shared snaps.(!i land 15))
    (fun () ->
      Shared.insert h blocks.(!i land 15);
      1)

(* The stripes of sched-fibers hold a few submitter flushes: four blocks
   of 16 tasks.  Each call takes eight items and may shrink blocks, so the
   items and fill counts come back to life between calls. *)
let pop_batch8 c =
  let hasher = Tabular_hash.create ~seed:c.seed in
  let q = Shared.create ~k:64 ~hasher ~alive () in
  let h = Shared.register q ~tid:0 ~rng:(Xoshiro.create ~seed:c.seed) in
  let blocks =
    Array.init 4 (fun i -> block_of (keys { c with seed = c.seed + i } (Uniform (1 lsl 20)) 16))
  in
  Array.iter (Shared.insert h) blocks;
  let base = Pb.get q.Shared.shared in
  let published = Block_array.blocks (Option.get base) in
  let filled = Array.map Block.filled published in
  median_ns c
    ~prepare:(fun () ->
      Array.iteri
        (fun i b ->
          let items = Block.items b in
          for j = 0 to filled.(i) - 1 do
            Pb.set items.(j).Item.taken false
          done;
          Pb.set b.Block.filled filled.(i))
        published;
      Pb.set q.Shared.shared base)
    (fun () ->
      ignore (Shared.try_pop_batch h 8);
      1)

(* A local component of klsm-sharded:256:4: a stripe budget of 64 keeps
   at most 63 items per thread (levels 5..0). *)
let local_lsm c ~hasher ~tid =
  let d = Dist.create ~tid ~hasher ~alive () in
  let next = Klsm_harness.Workload.generator (Uniform (1 lsl 20)) (Xoshiro.create ~seed:c.seed) in
  let items = Array.init 63 (fun _ -> Item.make (next ()) 0) in
  Array.iter (fun it -> Dist.insert d it ~max_level:5 ~spill:(fun _ -> assert false)) items;
  (d, items)

let spy c =
  let hasher = Tabular_hash.create ~seed:c.seed in
  let victim, _ = local_lsm c ~hasher ~tid:1 in
  let me = Dist.create ~tid:0 ~hasher ~alive () in
  median_ns c
    ~prepare:(fun () ->
      for i = 0 to Dist.max_levels - 1 do
        Pb.set me.Dist.blocks.(i) None
      done;
      Pb.set me.Dist.size 0)
    (fun () ->
      ignore (Dist.spy me ~victim);
      1)

let dist_consolidate c =
  let hasher = Tabular_hash.create ~seed:c.seed in
  let d = ref (fst (local_lsm c ~hasher ~tid:0)) in
  median_ns c
    ~prepare:(fun () ->
      let fresh, items = local_lsm c ~hasher ~tid:0 in
      let sorted = Array.copy items in
      Array.sort (fun a b -> compare (Item.key a) (Item.key b)) sorted;
      for i = 0 to 31 do
        ignore (Item.take sorted.(i))
      done;
      d := fresh)
    (fun () ->
      Dist.consolidate !d;
      1)

let deque_push_pop c =
  let dq = Deque.create () in
  median_ns c (fun () ->
      for i = 1 to 1000 do
        Deque.push dq i;
        ignore (Deque.pop dq)
      done;
      1000)

let deque_steal c =
  let dq = Deque.create () in
  median_ns c
    ~prepare:(fun () ->
      for i = 1 to 1000 do
        Deque.push dq i
      done)
    (fun () ->
      for _ = 1 to 1000 do
        ignore (Deque.steal dq)
      done;
      1000)

(* One fork/await round trip with the awaited fiber still unstarted: the
   parent suspends into the child's state cell, the child runs, and its
   completion resumes the parent inline. *)
let fork_await c =
  let hooks = Fiber.no_hooks in
  let pending = ref None in
  median_ns c (fun () ->
      for _ = 1 to 1000 do
        let parent =
          Fiber.create (fun () ->
              let kid = Fiber.create (fun () -> 1) in
              pending := Some kid;
              ignore (Fiber.await hooks kid))
        in
        Fiber.run hooks (Fiber.Work parent);
        match !pending with
        | Some kid ->
            pending := None;
            Fiber.run hooks (Fiber.Work kid)
        | None -> ()
      done;
      1000)

(* ------------------------------------------------------------------ *)
(* Store layer                                                         *)
(* ------------------------------------------------------------------ *)

(* A k = 4096 spill of spill-descending: a level-12 block of 4096 pairs,
   64 KiB encoded.  [salt] makes every block's content distinct, so the
   content-addressed store never deduplicates a timed put. *)
let spill_pairs c ~salt =
  let ks = keys c (Descending (1 lsl 30)) 4096 in
  Array.map (fun k -> (k + salt, salt)) ks

let sha256_mb_per_s c =
  let b = Bytes.of_string (Spill.encode ~level:11 (Array.sub (spill_pairs c ~salt:0) 0 2047)) in
  let n = ref 0 in
  let ns =
    median_ns c
      ~prepare:(fun () ->
        incr n;
        Bytes.set_int64_le b 0 (Int64.of_int !n))
      (fun () ->
        ignore (Sha256.digest (Bytes.unsafe_to_string b));
        1)
  in
  float_of_int (Bytes.length b) /. ns *. 1e3

let with_dir p name f =
  let dir = Filename.concat p.scratch name in
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let put_us p c =
  with_dir p "kernel-put" (fun root ->
      let st = Store.open_store ~root () in
      let b = Bytes.of_string (Spill.encode ~level:12 (spill_pairs c ~salt:0)) in
      let n = ref 0 in
      median_ns c
        ~prepare:(fun () ->
          incr n;
          Bytes.set_int64_le b 24 (Int64.of_int !n))
        (fun () ->
          ignore (Store.put st (Bytes.to_string b));
          1)
      /. 1e3)

let journal_append_us p c =
  with_dir p "kernel-journal" (fun dir ->
      let j = Journal.open_journal ~dir ~num_threads:1 () in
      let digest = Sha256.hex_digest "journal" in
      let us =
        median_ns c (fun () ->
            ignore (Journal.append_spill j ~tid:0 ~digest ~level:12 ~count:4096);
            1)
        /. 1e3
      in
      Journal.close j;
      us)

let spill_block c ~salt =
  Block.of_sorted_array ~filter:Bloom.empty
    (Array.map (fun (k, v) -> Item.make k v) (spill_pairs c ~salt))

(* [store.spill_us]: the policy call that sends a block to disk (claim,
   encode, hash, put, journal).  [store.rehydrate_us]: the first
   selection of the cold twin it returns (read, decode, journal). *)
let spill_rehydrate_us p c =
  with_dir p "kernel-spill" (fun root ->
      let sp = Spill.create ~threshold:Mix.spill_bytes ~num_threads:1 ~root () in
      let salt = ref 0 and block = ref (spill_block c ~salt:0) in
      let cold = ref !block in
      let spill_us =
        median_ns c
          ~prepare:(fun () ->
            incr salt;
            block := spill_block c ~salt:!salt)
          (fun () ->
            cold := Spill.policy sp ~alive ~tid:0 !block;
            1)
        /. 1e3
      in
      let rehydrate_us =
        median_ns c
          ~prepare:(fun () ->
            incr salt;
            cold := Spill.policy sp ~alive ~tid:0 (spill_block c ~salt:!salt))
          (fun () ->
            ignore (Block.items !cold);
            1)
        /. 1e3
      in
      Spill.close sp;
      (spill_us, rehydrate_us))

(** Every kernel, as [(metric name, value)]. *)
let all p =
  let c = cfg_of p in
  let spill_us, rehydrate_us = spill_rehydrate_us p c in
  [
    ("block.merge_256_ns", merge c (Uniform (1 lsl 28)) 256);
    ("block.merge_64k_ns", merge c (Uniform (1 lsl 28)) 65536);
    ("block_array.pivots_ns", pivots c);
    ("block_array.consolidate_ns", consolidate c);
    ("shared.publish_ns", publish c);
    ("shared.pop_batch8_ns", pop_batch8 c);
    ("dist.spy_ns", spy c);
    ("dist.consolidate_ns", dist_consolidate c);
    ("deque.push_pop_ns", deque_push_pop c);
    ("deque.steal_ns", deque_steal c);
    ("fiber.fork_await_ns", fork_await c);
    ("store.sha256_mb_per_s", sha256_mb_per_s c);
    ("store.put_us", put_us p c);
    ("store.journal_append_us", journal_append_us p c);
    ("store.spill_us", spill_us);
    ("store.rehydrate_us", rehydrate_us);
  ]
