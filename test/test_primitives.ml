(* Unit and property tests for klsm_primitives: the seeded RNG, tabulation
   hashing, Bloom filters, backoff, bit utilities, statistics and the
   quiescence detector. *)

open Helpers
module Xoshiro = Klsm_primitives.Xoshiro
module Tabular_hash = Klsm_primitives.Tabular_hash
module Bloom = Klsm_primitives.Bloom
module Backoff = Klsm_primitives.Backoff
module Bits = Klsm_primitives.Bits
module Stats = Klsm_primitives.Stats

(* ---------------- Xoshiro ---------------- *)

let test_rng_deterministic () =
  let a = Xoshiro.create ~seed:42 and b = Xoshiro.create ~seed:42 in
  for _ = 1 to 1000 do
    check_bool "same stream" true (Xoshiro.next a = Xoshiro.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Xoshiro.create ~seed:1 and b = Xoshiro.create ~seed:2 in
  let different = ref false in
  for _ = 1 to 10 do
    if Xoshiro.next a <> Xoshiro.next b then different := true
  done;
  check_bool "streams differ" true !different

let test_rng_split_decorrelates () =
  let a = Xoshiro.create ~seed:7 in
  let b = Xoshiro.split a in
  let equal = ref 0 in
  for _ = 1 to 100 do
    if Xoshiro.next a = Xoshiro.next b then incr equal
  done;
  check_bool "split streams differ" true (!equal < 5)

let test_rng_copy () =
  let a = Xoshiro.create ~seed:9 in
  ignore (Xoshiro.next a);
  let b = Xoshiro.copy a in
  check_bool "copy replays" true (Xoshiro.next a = Xoshiro.next b)

let prop_int_bounds =
  qtest "Xoshiro.int stays in bounds"
    QCheck2.Gen.(pair (int_range 1 1_000_000) int)
    (fun (bound, seed) ->
      let rng = Xoshiro.create ~seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Xoshiro.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_int_in_bounds =
  qtest "Xoshiro.int_in inclusive bounds"
    QCheck2.Gen.(triple (int_range (-1000) 1000) (int_bound 2000) int)
    (fun (lo, span, seed) ->
      let hi = lo + span in
      let rng = Xoshiro.create ~seed in
      let v = Xoshiro.int_in rng ~lo ~hi in
      v >= lo && v <= hi)

let test_int_rejects_bad_bound () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Xoshiro.int: bound must be positive")
    (fun () -> ignore (Xoshiro.int (Xoshiro.create ~seed:1) 0))

let test_float_unit_interval () =
  let rng = Xoshiro.create ~seed:3 in
  for _ = 1 to 1000 do
    let f = Xoshiro.float rng in
    check_bool "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_int_uniformity () =
  (* Chi-squared-ish sanity: 10 buckets, 10000 draws; each bucket within
     3x-ish of the expectation. *)
  let rng = Xoshiro.create ~seed:11 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Xoshiro.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c -> check_bool "bucket sane" true (c > 700 && c < 1300))
    buckets

let test_geometric_mean () =
  let rng = Xoshiro.create ~seed:13 in
  let sum = ref 0 in
  for _ = 1 to 10_000 do
    sum := !sum + Xoshiro.geometric rng ~p:0.5
  done;
  (* Mean of Geom(0.5) failures-before-success is 1. *)
  let mean = float_of_int !sum /. 10_000. in
  check_bool "geometric mean ~1" true (mean > 0.9 && mean < 1.1)

let test_shuffle_permutes () =
  let rng = Xoshiro.create ~seed:17 in
  let a = Array.init 50 Fun.id in
  Xoshiro.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_bool "same multiset" true (sorted = Array.init 50 Fun.id);
  check_bool "actually moved" true (a <> Array.init 50 Fun.id)

(* ---------------- Tabulation hashing ---------------- *)

let test_hash_deterministic () =
  let h1 = Tabular_hash.create ~seed:5 and h2 = Tabular_hash.create ~seed:5 in
  for key = 0 to 100 do
    check_bool "same function" true
      (Tabular_hash.hash h1 key = Tabular_hash.hash h2 key)
  done

let test_hash_seed_changes_function () =
  let h1 = Tabular_hash.create ~seed:5 and h2 = Tabular_hash.create ~seed:6 in
  let diff = ref 0 in
  for key = 0 to 100 do
    if Tabular_hash.hash h1 key <> Tabular_hash.hash h2 key then incr diff
  done;
  check_bool "functions differ" true (!diff > 90)

let prop_hash_non_negative =
  qtest "hash is non-negative" QCheck2.Gen.int (fun key ->
      Tabular_hash.hash (Tabular_hash.create ~seed:1) key >= 0)

let test_hash_pair_spread () =
  (* The two components should not be trivially equal. *)
  let h = Tabular_hash.create ~seed:8 in
  let equal = ref 0 in
  for key = 0 to 999 do
    let a, b = Tabular_hash.hash_pair h key in
    if a land 63 = b land 63 then incr equal
  done;
  check_bool "components independent-ish" true (!equal < 100)

(* ---------------- Bloom ---------------- *)

let hasher = Tabular_hash.create ~seed:99

let prop_bloom_no_false_negative =
  qtest "no false negatives"
    QCheck2.Gen.(list_size (int_bound 50) (int_bound 200))
    (fun tids ->
      let f =
        List.fold_left
          (fun acc tid -> Bloom.union acc (Bloom.singleton ~hasher tid))
          Bloom.empty tids
      in
      List.for_all (fun tid -> Bloom.may_contain ~hasher f tid) tids)

let test_bloom_empty () =
  check_bool "empty contains nothing" false
    (Bloom.may_contain ~hasher Bloom.empty 3);
  check_bool "is_empty" true (Bloom.is_empty Bloom.empty)

let test_bloom_false_positive_rate () =
  (* One inserted tid; most others should not match. *)
  let f = Bloom.singleton ~hasher 0 in
  let fp = ref 0 in
  for tid = 1 to 1000 do
    if Bloom.may_contain ~hasher f tid then incr fp
  done;
  check_bool "fp rate small" true (!fp < 50)

let test_bloom_population () =
  check_int "empty pop" 0 (Bloom.population Bloom.empty);
  let p = Bloom.population (Bloom.singleton ~hasher 7) in
  check_bool "singleton pop 1 or 2" true (p = 1 || p = 2)

let prop_bloom_union_monotone =
  qtest "union preserves membership"
    QCheck2.Gen.(pair (int_bound 100) (int_bound 100))
    (fun (a, b) ->
      let fa = Bloom.singleton ~hasher a and fb = Bloom.singleton ~hasher b in
      let u = Bloom.union fa fb in
      Bloom.may_contain ~hasher u a && Bloom.may_contain ~hasher u b)

(* ---------------- Backoff ---------------- *)

let test_backoff_growth () =
  let b = Backoff.create ~min:1 ~max:8 () in
  let relax _ = () in
  check_int "start" 1 (Backoff.current b);
  Backoff.once b ~relax;
  check_int "doubled" 2 (Backoff.current b);
  Backoff.once b ~relax;
  Backoff.once b ~relax;
  Backoff.once b ~relax;
  check_int "capped" 8 (Backoff.current b);
  Backoff.reset b;
  check_int "reset" 1 (Backoff.current b)

let test_backoff_counts_relaxes () =
  let b = Backoff.create ~min:4 ~max:4 () in
  let n = ref 0 in
  Backoff.once b ~relax:(fun steps -> n := !n + steps);
  check_int "4 relaxes" 4 !n

let test_backoff_validation () =
  Alcotest.check_raises "bad min" (Invalid_argument "Backoff.create")
    (fun () -> ignore (Backoff.create ~min:0 ()))

(* Decorrelated jitter (AWS-style): next = min + U[0, 3*cur - min), clamped
   to [min, max].  Bounds must hold along any trajectory, the same seed
   must replay the same trajectory, and a jitter-free instance must keep
   the exact legacy doubling behaviour (Sim determinism depends on it). *)
let test_backoff_jitter_bounds () =
  let rng = Xoshiro.create ~seed:99 in
  let b = Backoff.create ~min:2 ~max:64 ~jitter:rng () in
  for _ = 1 to 200 do
    let spins = ref 0 in
    Backoff.once b ~relax:(fun n -> spins := n);
    check_bool "relaxed within [min,max]" true (!spins >= 2 && !spins <= 64);
    check_bool "state within [min,max]" true
      (Backoff.current b >= 2 && Backoff.current b <= 64)
  done

let test_backoff_jitter_deterministic () =
  let trajectory seed =
    let b =
      Backoff.create ~min:1 ~max:512 ~jitter:(Xoshiro.create ~seed) ()
    in
    List.init 50 (fun _ ->
        let n = ref 0 in
        Backoff.once b ~relax:(fun s -> n := !n + s);
        !n)
  in
  check_list_int "same seed, same delays" (trajectory 5) (trajectory 5);
  check_bool "different seed diverges" true (trajectory 5 <> trajectory 6)

let test_backoff_no_jitter_unchanged () =
  (* Without ~jitter the schedule is the deterministic doubling ramp. *)
  let b = Backoff.create ~min:1 ~max:16 () in
  let seen =
    List.init 6 (fun _ ->
        let n = ref 0 in
        Backoff.once b ~relax:(fun s -> n := !n + s);
        !n)
  in
  check_list_int "pure doubling" [ 1; 2; 4; 8; 16; 16 ] seen

(* ---------------- Bits ---------------- *)

let prop_ceil_log2 =
  qtest "ceil_log2 spec" QCheck2.Gen.(int_range 1 (1 lsl 40)) (fun n ->
      let l = Bits.ceil_log2 n in
      (1 lsl l) >= n && (l = 0 || 1 lsl (l - 1) < n))

let prop_floor_log2 =
  qtest "floor_log2 spec" QCheck2.Gen.(int_range 1 (1 lsl 40)) (fun n ->
      let l = Bits.floor_log2 n in
      (1 lsl l) <= n && n < 1 lsl (l + 1))

let test_powers () =
  check_bool "pow2 1" true (Bits.is_power_of_two 1);
  check_bool "pow2 64" true (Bits.is_power_of_two 64);
  check_bool "not pow2 63" false (Bits.is_power_of_two 63);
  check_int "next pow 1" 1 (Bits.next_power_of_two 1);
  check_int "next pow 5" 8 (Bits.next_power_of_two 5);
  check_int "next pow 8" 8 (Bits.next_power_of_two 8)

(* ---------------- Stats ---------------- *)

let test_stats_known () =
  let s = Stats.summarize [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_bool "mean" true (abs_float (s.Stats.mean -. 5.) < 1e-9);
  check_bool "stddev" true (abs_float (s.Stats.stddev -. 2.13809) < 1e-3);
  check_bool "min/max" true (s.Stats.min = 2. && s.Stats.max = 9.)

let test_stats_single () =
  let s = Stats.summarize [| 3.14 |] in
  check_bool "single" true (s.Stats.stddev = 0. && s.Stats.ci95 = 0.)

let test_stats_percentile () =
  let xs = Array.init 101 float_of_int in
  check_bool "p50" true (Stats.percentile xs 50. = 50.);
  check_bool "p0" true (Stats.percentile xs 0. = 0.);
  check_bool "p100" true (Stats.percentile xs 100. = 100.);
  check_bool "median" true (Stats.median [| 1.; 2.; 3.; 4. |] = 2.5)

let test_stats_t_table () =
  check_bool "df1" true (abs_float (Stats.t_critical_95 1 -. 12.706) < 1e-9);
  check_bool "df30" true (abs_float (Stats.t_critical_95 30 -. 2.042) < 1e-9);
  check_bool "asymptotic" true (Stats.t_critical_95 1000 = 1.96)

let prop_stats_mean_bounds =
  qtest "mean within min/max"
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 1000.))
    (fun xs ->
      let a = Array.of_list xs in
      let s = Stats.summarize a in
      s.Stats.mean >= s.Stats.min -. 1e-9 && s.Stats.mean <= s.Stats.max +. 1e-9)

(* ---------------- Quiescence ---------------- *)

(* Cells whose every read first runs [before_get]: the exhaustive test
   below uses it to advance a fixed script to the read's placement. *)
module Probe = struct
  type 'a t = 'a ref

  let before_get = ref ignore
  let make v = ref v

  let get r =
    !before_get ();
    !r

  let set r v = r := v
end

module Quiescence = Klsm_primitives.Quiescence.Make (Probe)

module type DETECTOR = sig
  type t

  val create : num_threads:int -> t
  val announce : t -> int -> int -> unit
  val retire : t -> int -> unit
  val quiescent : t -> bool
end

(* The unsound variant: one collect of each thread's (created, finished)
   pair, summing created - finished. *)
module One_pass = struct
  type t = { created : int Probe.t array; finished : int Probe.t array }

  let create ~num_threads =
    {
      created = Array.init num_threads (fun _ -> Probe.make 0);
      finished = Array.init num_threads (fun _ -> Probe.make 0);
    }

  let announce t tid n = Probe.set t.created.(tid) (!(t.created.(tid)) + n)
  let retire t tid = Probe.set t.finished.(tid) (!(t.finished.(tid)) + 1)

  let quiescent t =
    let pending = ref 0 in
    Array.iteri
      (fun i c ->
        let c = Probe.get c in
        pending := !pending + c - Probe.get t.finished.(i))
      t.created;
    !pending = 0
end

(* The fixed two-thread script, after thread 0 announced the source s:
   thread 0 processes s, announcing its children y and z, then retires s;
   thread 1 retires y; thread 0 retires z.  [in_flight.(g)] counts the
   announced, unretired entries after the first [g] steps. *)
let script = [| `Announce 0; `Announce 0; `Retire 0; `Retire 1; `Retire 0 |]
let in_flight = [| 1; 2; 3; 2; 1; 0 |]

(* Every non-decreasing list of [n] step counts in [lo, hi]: read [i] of a
   placement sees the counters after its first [g_i] steps. *)
let rec placements ~lo ~hi n =
  if n = 0 then [ [] ]
  else
    List.concat_map
      (fun g -> List.map (fun rest -> g :: rest) (placements ~lo:g ~hi (n - 1)))
      (List.init (hi - lo + 1) (fun i -> lo + i))

(* Runs [D.quiescent] once per placement of its reads into the script;
   returns each placement with its verdict and the entries in flight
   when the verdict was given. *)
let explore (module D : DETECTOR) =
  let steps = Array.length script in
  let reads =
    let n = ref 0 in
    Probe.before_get := (fun () -> incr n);
    ignore (D.quiescent (D.create ~num_threads:2));
    !n
  in
  let runs =
    List.map
      (fun gaps ->
        let d = D.create ~num_threads:2 in
        D.announce d 0 1;
        let done_ = ref 0 and pending = ref gaps and stepping = ref false in
        let advance_to g =
          while !done_ < g do
            (match script.(!done_) with
            | `Announce tid -> D.announce d tid 1
            | `Retire tid -> D.retire d tid);
            incr done_
          done
        in
        Probe.before_get :=
          (fun () ->
            match !pending with
            | g :: rest when not !stepping ->
                pending := rest;
                stepping := true;
                advance_to g;
                stepping := false
            | _ -> ());
        let verdict = D.quiescent d in
        (gaps, verdict, in_flight.(!done_)))
      (placements ~lo:0 ~hi:steps reads)
  in
  Probe.before_get := ignore;
  runs

let false_alarms runs =
  List.filter_map
    (fun (gaps, verdict, busy) -> if verdict && busy > 0 then Some gaps else None)
    runs

let test_quiescence_exhaustive () =
  let runs = explore (module Quiescence) in
  (* 4 reads over 6 gaps *)
  check_int "placements" 126 (List.length runs);
  check_list_int "double collect never reports quiescence in flight" []
    (List.concat (false_alarms runs));
  check_bool "double collect reports quiescence after the last retire" true
    (List.exists (fun (_, verdict, busy) -> verdict && busy = 0) runs);
  (* Teeth: the same enumeration catches the one-pass collect.  Thread 0's
     pair read before the announces and thread 1's after y retires sum to
     1 - 0 + 0 - 1 = 0 while z is in flight. *)
  let fooled = false_alarms (explore (module One_pass)) in
  check_bool "one-pass collect fooled" true (fooled <> []);
  check_bool "one-pass fooled by the announce/retire placement" true
    (List.mem [ 0; 0; 4; 4 ] fooled)

let test_quiescence_counts () =
  let q = Quiescence.create ~num_threads:3 in
  check_bool "nothing announced" true (Quiescence.quiescent q);
  Quiescence.announce q 0 1;
  check_bool "root in flight" false (Quiescence.quiescent q);
  Quiescence.announce q 2 3;
  Quiescence.retire q 0;
  Quiescence.retire q 1;
  Quiescence.retire q 1;
  check_bool "one child in flight" false (Quiescence.quiescent q);
  Quiescence.retire q 2;
  check_bool "all retired" true (Quiescence.quiescent q)

let test_quiescence_rejects_non_worker () =
  let q = Quiescence.create ~num_threads:2 in
  Alcotest.check_raises "retire outside a worker"
    (Invalid_argument "Quiescence.retire: -1 is not a worker thread")
    (fun () -> Quiescence.retire q (-1));
  Alcotest.check_raises "announce past the last thread"
    (Invalid_argument "Quiescence.announce: 2 is not a worker thread")
    (fun () -> Quiescence.announce q 2 1);
  Alcotest.check_raises "no threads"
    (Invalid_argument "Quiescence.create: num_threads < 1")
    (fun () -> ignore (Quiescence.create ~num_threads:0))

let () =
  Alcotest.run "primitives"
    [
      ( "xoshiro",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split decorrelates" `Quick test_rng_split_decorrelates;
          Alcotest.test_case "copy replays" `Quick test_rng_copy;
          prop_int_bounds;
          prop_int_in_bounds;
          Alcotest.test_case "bad bound" `Quick test_int_rejects_bad_bound;
          Alcotest.test_case "float in [0,1)" `Quick test_float_unit_interval;
          Alcotest.test_case "uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
        ] );
      ( "tabular-hash",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "seed changes function" `Quick test_hash_seed_changes_function;
          prop_hash_non_negative;
          Alcotest.test_case "pair spread" `Quick test_hash_pair_spread;
        ] );
      ( "bloom",
        [
          prop_bloom_no_false_negative;
          Alcotest.test_case "empty" `Quick test_bloom_empty;
          Alcotest.test_case "fp rate" `Quick test_bloom_false_positive_rate;
          Alcotest.test_case "population" `Quick test_bloom_population;
          prop_bloom_union_monotone;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "growth and reset" `Quick test_backoff_growth;
          Alcotest.test_case "counts relaxes" `Quick test_backoff_counts_relaxes;
          Alcotest.test_case "validation" `Quick test_backoff_validation;
          Alcotest.test_case "jitter bounds" `Quick test_backoff_jitter_bounds;
          Alcotest.test_case "jitter deterministic" `Quick
            test_backoff_jitter_deterministic;
          Alcotest.test_case "no-jitter path unchanged" `Quick
            test_backoff_no_jitter_unchanged;
        ] );
      ("bits", [ prop_ceil_log2; prop_floor_log2; Alcotest.test_case "powers" `Quick test_powers ]);
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "single sample" `Quick test_stats_single;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile;
          Alcotest.test_case "t table" `Quick test_stats_t_table;
          prop_stats_mean_bounds;
        ] );
      ( "quiescence",
        [
          Alcotest.test_case "exhaustive two-thread script" `Quick
            test_quiescence_exhaustive;
          Alcotest.test_case "counts" `Quick test_quiescence_counts;
          Alcotest.test_case "non-worker rejected" `Quick
            test_quiescence_rejects_non_worker;
        ] );
    ]
