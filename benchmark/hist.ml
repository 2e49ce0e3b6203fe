(** Log-linear latency histograms: values below [2^sub_bits] are counted
    exactly, and every octave above is split into [2^sub_bits] equal
    buckets, so a bucket is never wider than 1/128 of its lower bound.
    Recording is one array increment with no allocation; a histogram is
    preallocated per thread and cleared between trials. *)

let sub_bits = 7
let sub = 1 lsl sub_bits
let octaves = 62 - sub_bits + 1

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make ((octaves + 1) * sub) 0; n = 0 }

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.n <- 0

let floor_log2 v =
  let rec go v e = if v <= 1 then e else go (v lsr 1) (e + 1) in
  go v 0

let index v =
  if v < sub then max v 0
  else
    let e = floor_log2 v in
    let shift = e - sub_bits in
    ((shift + 1) * sub) + ((v lsr shift) - sub)

(* [lo, lo + width) is the range of values bucket [i] counts. *)
let bounds i =
  if i < sub then (i, 1)
  else
    let shift = (i / sub) - 1 in
    ((sub + (i mod sub)) lsl shift, 1 lsl shift)

let record t v =
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1

let count t = t.n

let merge_into ~dst src =
  Array.iteri (fun i c -> if c > 0 then dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n

(** Width of the bucket holding [v]: the resolution of any percentile
    that falls there. *)
let resolution v = snd (bounds (index v))

(** The [p]-th percentile with the interpolation of
    {!Klsm_primitives.Stats.percentile} (rank [p/100 * (n-1)] between
    order statistics), where an order statistic is placed inside its
    bucket by spreading the bucket's samples evenly over its width. *)
let percentile t p =
  if t.n = 0 then invalid_arg "Hist.percentile: empty";
  let nth r =
    (* value of the r-th smallest sample, 0-based *)
    let rec go i before =
      let c = t.counts.(i) in
      if r < before + c then
        let lo, w = bounds i in
        float_of_int lo
        +. (float_of_int w *. (float_of_int (r - before) +. 0.5) /. float_of_int c)
      else go (i + 1) (before + c)
    in
    go 0 0
  in
  let rank = p /. 100. *. float_of_int (t.n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = min (lo + 1) (t.n - 1) in
  let frac = rank -. float_of_int lo in
  (nth lo *. (1. -. frac)) +. (nth hi *. frac)
