(** The sequential log-structured merge-tree priority queue of paper §3 —
    the data structure the concurrent k-LSM is built from, usable on its own
    as a cache-efficient sequential priority queue (and as a second oracle
    besides the binary heap).

    Invariants (§3): a logarithmic list of {e blocks}, each a sorted
    (descending) array of keys; a block of level [l] holds [n] entries with
    [2^(l-1) < n <= 2^l]; at most one block per level.  Inserting adds a
    level-0 block and merges equal levels upward; deleting the minimum pops
    the tail of the block holding it and re-establishes the level bound by
    shrinking/merging.  All operations are amortized O(log n), and the
    arrays make the constant factors small (the cache-efficiency argument
    the paper makes against skiplists).

    Purely sequential: no atomics, physical deletion, not a functor. *)

type 'v block = {
  level : int;
  keys : int array;  (** capacity 2^level, descending *)
  values : 'v array;
  mutable filled : int;
}

type 'v t = {
  mutable blocks : 'v block list;  (** strictly decreasing levels *)
  mutable size : int;
}

let create () = { blocks = []; size = 0 }
let size t = t.size
let is_empty t = t.size = 0

let capacity_of_level level = 1 lsl level

let singleton_block key value =
  { level = 0; keys = [| key |]; values = [| value |]; filled = 1 }

(* Merge two blocks into one of the next-larger level. *)
let merge_blocks b1 b2 =
  let lvl = 1 + Int.max b1.level b2.level in
  let n = b1.filled + b2.filled in
  let keys = Array.make (capacity_of_level lvl) 0 in
  let values = Array.make (capacity_of_level lvl) b1.values.(0) in
  let i = ref 0 and j = ref 0 and o = ref 0 in
  while !i < b1.filled && !j < b2.filled do
    if b1.keys.(!i) >= b2.keys.(!j) then begin
      keys.(!o) <- b1.keys.(!i);
      values.(!o) <- b1.values.(!i);
      incr i
    end
    else begin
      keys.(!o) <- b2.keys.(!j);
      values.(!o) <- b2.values.(!j);
      incr j
    end;
    incr o
  done;
  while !i < b1.filled do
    keys.(!o) <- b1.keys.(!i);
    values.(!o) <- b1.values.(!i);
    incr i;
    incr o
  done;
  while !j < b2.filled do
    keys.(!o) <- b2.keys.(!j);
    values.(!o) <- b2.values.(!j);
    incr j;
    incr o
  done;
  { level = lvl; keys; values; filled = n }

(* Copy a block down to the smallest level that fits its content. *)
let fit_level b =
  let l = ref b.level in
  while !l > 0 && b.filled <= capacity_of_level (!l - 1) do
    decr l
  done;
  if !l = b.level then b
  else begin
    let keys = Array.make (capacity_of_level !l) 0 in
    let values = Array.make (capacity_of_level !l) b.values.(0) in
    Array.blit b.keys 0 keys 0 b.filled;
    Array.blit b.values 0 values 0 b.filled;
    { level = !l; keys; values; filled = b.filled }
  end

(* Re-establish "strictly decreasing levels, at most one block per level"
   from an arbitrary list, merging collisions (§3's merge cascade). *)
let normalize blocks =
  let ordered =
    blocks
    |> List.filter (fun b -> b.filled > 0)
    (* Re-fit first: an underflowed block must drop to the level its
       content actually fills before collision merging. *)
    |> List.map fit_level
    |> List.stable_sort (fun a b -> compare b.level a.level)
  in
  let rec push stack b =
    if b.filled = 0 then stack
    else
      match stack with
      | top :: rest when top.level <= b.level ->
          push rest (fit_level (merge_blocks top b))
      | _ -> b :: stack
  in
  List.rev (List.fold_left push [] ordered)

let insert t key value =
  if key < 0 then invalid_arg "Seq_lsm.insert: negative key";
  (* [t.blocks] already satisfies the level invariant, so the general
     filter/fit/sort pipeline of [normalize] is overkill for one level-0
     arrival: cascade the new block directly up the (reversed,
     smallest-level-first) list, merging while levels collide — §3's merge
     cascade with no sorting and no per-block re-fitting. *)
  let rec cascade b = function
    | top :: rest when top.level <= b.level ->
        cascade (fit_level (merge_blocks top b)) rest
    | rest -> b :: rest
  in
  t.blocks <- List.rev (cascade (singleton_block key value) (List.rev t.blocks));
  t.size <- t.size + 1

(** Minimal key and its value, without removal; O(#blocks). *)
let find_min t =
  List.fold_left
    (fun best b ->
      if b.filled = 0 then best
      else begin
        let key = b.keys.(b.filled - 1) in
        match best with
        | Some (bk, _) when bk <= key -> best
        | _ -> Some (key, b.values.(b.filled - 1))
      end)
    None t.blocks

let delete_min t =
  (* Locate the block holding the global minimum. *)
  let best = ref None in
  List.iter
    (fun b ->
      if b.filled > 0 then begin
        let key = b.keys.(b.filled - 1) in
        match !best with
        | Some bb when bb.keys.(bb.filled - 1) <= key -> ()
        | _ -> best := Some b
      end)
    t.blocks;
  match !best with
  | None -> None
  | Some b ->
      let key = b.keys.(b.filled - 1) and value = b.values.(b.filled - 1) in
      b.filled <- b.filled - 1;
      t.size <- t.size - 1;
      (* If the block underflowed its level, shrink and re-merge (§3). *)
      if b.filled <= capacity_of_level (max 0 (b.level - 1)) && b.level > 0
      then t.blocks <- normalize t.blocks
      else if b.filled = 0 then
        t.blocks <- List.filter (fun b' -> b' != b) t.blocks;
      Some (key, value)

(** Drain in ascending key order (tests). *)
let drain t =
  let rec go acc =
    match delete_min t with None -> List.rev acc | Some kv -> go (kv :: acc)
  in
  go []

(** §3 structural invariants, for tests: strictly decreasing levels, one
    block per level, every block within its level bounds. *)
let check_invariants t =
  let rec go last_level total = function
    | [] -> total
    | b :: rest ->
        if b.level >= last_level then failwith "Seq_lsm: level order";
        if b.filled < 1 || b.filled > capacity_of_level b.level then
          failwith "Seq_lsm: filled out of level bounds";
        if b.level > 0 && b.filled <= capacity_of_level (b.level - 1) then
          failwith "Seq_lsm: block underflows its level";
        for i = 0 to b.filled - 2 do
          if b.keys.(i) < b.keys.(i + 1) then failwith "Seq_lsm: not sorted"
        done;
        go b.level (total + b.filled) rest
  in
  let total = go max_int 0 t.blocks in
  if total <> t.size then failwith "Seq_lsm: size mismatch"
