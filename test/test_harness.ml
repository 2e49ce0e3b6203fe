(* Tests for the experiment harness: the Fenwick rank oracle, the spec
   parser, report formatting, and smoke runs of the throughput / quality /
   SSSP drivers on tiny configurations. *)

open Helpers
module Oracle = Klsm_harness.Oracle
module Report = Klsm_harness.Report
module Sim = Klsm_backend.Sim
module R = Klsm_harness.Registry.Make (Sim)
module T = Klsm_harness.Throughput.Make (Sim)
module Q = Klsm_harness.Quality.Make (Sim)

(* ---------------- oracle (Fenwick rank multiset) ---------------- *)

(* Naive reference multiset with the same interface. *)
module Naive = struct
  let create () = ref []
  let insert t k = t := k :: !t
  let rank_below t k = List.length (List.filter (fun x -> x < k) !t)

  let delete t k =
    let r = rank_below t k in
    let rec remove = function
      | [] -> failwith "not present"
      | x :: rest when x = k -> rest
      | x :: rest -> x :: remove rest
    in
    t := remove !t;
    r
end

let prop_oracle_matches_naive =
  qtest "fenwick oracle = naive multiset" ~count:100
    QCheck2.Gen.(list_size (int_bound 200) (pair bool (int_bound 100)))
    (fun ops ->
      let o = Oracle.create ~universe:128 in
      let n = Naive.create () in
      List.for_all
        (fun (is_insert, k) ->
          if is_insert then begin
            Oracle.insert o k;
            Naive.insert n k;
            true
          end
          else if !n = [] then true
          else begin
            (* Delete a key actually present: pick the smallest. *)
            let k = List.fold_left min max_int !n in
            let a = Oracle.delete o k and b = Naive.delete n k in
            a = b && a = 0
          end)
        ops
      && Oracle.size o = List.length !n)

let test_oracle_rank_error_example () =
  let o = Oracle.create ~universe:100 in
  List.iter (Oracle.insert o) [ 10; 20; 30; 40 ];
  (* Deleting 30 while 10 and 20 are present: rank error 2. *)
  check_int "rank error" 2 (Oracle.delete o 30);
  check_int "then 10 is exact" 0 (Oracle.delete o 10);
  check_int "size" 2 (Oracle.size o)

let test_oracle_missing_key () =
  let o = Oracle.create ~universe:10 in
  Alcotest.check_raises "absent" (Failure "Oracle.delete: key not present")
    (fun () -> ignore (Oracle.delete o 5))

let test_oracle_duplicates () =
  let o = Oracle.create ~universe:10 in
  Oracle.insert o 5;
  Oracle.insert o 5;
  check_int "first" 0 (Oracle.delete o 5);
  check_int "second" 0 (Oracle.delete o 5)

(* ---------------- registry ---------------- *)

let test_parse_spec () =
  let cases =
    [
      ("klsm:256", Some (R.Klsm 256));
      ("klsm", Some (R.Klsm 256));
      ("KLSM:4", Some (R.Klsm 4));
      ("dlsm", Some R.Dlsm);
      ("heap", Some R.Heap_lock);
      ("heap+lock", Some R.Heap_lock);
      ("linden", Some R.Linden);
      ("spray", Some R.Spraylist);
      ("multiq:4", Some (R.Multiq 4));
      ("centralized", Some R.Wimmer_centralized);
      ("hybrid:4096", Some (R.Wimmer_hybrid 4096));
      ("klsm-sharded", Some (R.klsm_sharded 256 4));
      ("klsm-sharded:64", Some (R.klsm_sharded 64 4));
      ("klsm-sharded:64:8", Some (R.klsm_sharded 64 8));
      ("sharded:32:2", Some (R.klsm_sharded 32 2));
      (* k = 0, the exact-shared configuration, runs on one stripe *)
      ("klsm:0", Some (R.Klsm 0));
      ("klsm-sharded:0:1", Some (R.klsm_sharded 0 1));
      ("nonsense", None);
    ]
  in
  List.iter
    (fun (s, want) -> check_bool s true (R.parse_spec_opt s = want))
    cases

let test_parse_spec_rejects_bad_args () =
  (* Specs that used to be silently mis-accepted must now produce an
     error message mentioning the offending spec. *)
  let bad =
    [
      "linden:4"; "dlsm:8"; "heap:1"; "klsm:abc"; "klsm:-3"; "multiq:2x";
      "spraylist:0";
      (* sharded: malformed params, zero stripes, more stripes than k
         (k = 0 has a budget for one stripe only) *)
      "klsm-sharded:abc"; "klsm-sharded:64:x"; "klsm-sharded:64:0";
      "klsm-sharded:4:8"; "klsm-sharded:0:2";
      (* klsm-sharded takes K and S only: sticky=, buf=, adapt= and the
         removed deletion buffer's dbuf= are all unknown parameters *)
      "klsm-sharded:64:8:sticky=4"; "klsm-sharded:64:8:buf=2";
      "klsm-sharded:64:8:buf=5:dbuf=4"; "klsm-sharded:64:4:adapt=2-8";
      "klsm-sharded:64:8:wat=1"; "klsm-sharded:64:8:1";
      "klsm-sharded:64:8:dbuf=0"; "klsm-sharded:64:8:dbuf=9";
      "klsm-sharded:64:8:dbuf=x"; "klsm-sharded:64:8:dbuf=4";
      "sharded:1024:4:dbuf=8";
    ]
  in
  List.iter
    (fun s ->
      match R.parse_spec s with
      | Ok _ -> Alcotest.failf "%S should be rejected" s
      | Error msg ->
          check_bool
            (Printf.sprintf "%s: message mentions spec (%s)" s msg)
            true
            (String.length msg > 0))
    bad;
  (* Keyed parameters are unknown: the message names the parameter, says
     the deletion buffer was removed and points to batch pulls. *)
  List.iter
    (fun (key, spec) ->
      match R.parse_spec spec with
      | Ok _ -> Alcotest.failf "%s= accepted" key
      | Error msg ->
          let has needle =
            let n = String.length needle in
            let rec go i =
              i + n <= String.length msg
              && (String.sub msg i n = needle || go (i + 1))
            in
            go 0
          in
          check_bool
            (Printf.sprintf "%s= is unknown (%s)" key msg)
            true
            (has (Printf.sprintf "unknown parameter %S" key)
            && has "deletion buffer dbuf=B was removed"
            && has "try_delete_min_batch"))
    [
      ("dbuf", "klsm-sharded:256:4:dbuf=8");
      ("sticky", "klsm-sharded:64:8:sticky=4");
      ("buf", "klsm-sharded:64:8:buf=2");
      ("adapt", "klsm-sharded:64:4:adapt=2-8");
    ];
  (* Unknown base names list the known implementations. *)
  match R.parse_spec "nonsense" with
  | Ok _ -> Alcotest.fail "nonsense accepted"
  | Error msg ->
      check_bool "lists known impls" true
        (String.length msg > 20)

let test_spec_names_unique () =
  let names = List.map R.spec_name R.figure3_specs in
  check_int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_lazy_deletion_support_flags () =
  check_bool "klsm yes" true (R.supports_lazy_deletion (R.Klsm 1));
  check_bool "linden no" false (R.supports_lazy_deletion R.Linden)

(* ---------------- report ---------------- *)

let test_table_renders () =
  let buf_path = Filename.temp_file "klsm_table" ".txt" in
  let oc = open_out buf_path in
  Report.table ~out:oc ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yyy"; "22" ] ];
  close_out oc;
  let ic = open_in buf_path in
  let line1 = input_line ic in
  close_in ic;
  Sys.remove buf_path;
  check_bool "header present" true
    (String.length line1 >= 4 && String.sub line1 0 1 = "a")

let test_csv_roundtrip () =
  let path = Filename.temp_file "klsm_csv" ".csv" in
  Report.csv ~path ~header:[ "x"; "y" ]
    [ [ "1"; "2" ]; [ "3"; "4" ]; [ "klsm-sharded(256,4)"; "5" ] ];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list string)) "content"
    [ "x,y"; "1,2"; "3,4"; "\"klsm-sharded(256,4)\",5" ]
    (List.rev !lines)

let test_human_float () =
  Alcotest.(check string) "millions" "2.50M" (Report.human_float 2_500_000.);
  Alcotest.(check string) "thousands" "3.20k" (Report.human_float 3_200.);
  Alcotest.(check string) "small" "12" (Report.human_float 12.)

(* ---------------- workload distributions ---------------- *)

module W = Klsm_harness.Workload

let test_workload_uniform_bounds () =
  let rng = Helpers.Xoshiro.create ~seed:4 in
  let gen = W.generator (W.Uniform 1000) rng in
  for _ = 1 to 1000 do
    let k = gen () in
    check_bool "in range" true (k >= 0 && k < 1000)
  done

let test_workload_ascending_monotone () =
  let rng = Helpers.Xoshiro.create ~seed:4 in
  let gen = W.generator (W.Ascending 8) rng in
  let prev = ref (-1000) in
  let violations = ref 0 in
  for _ = 1 to 1000 do
    let k = gen () in
    (* Drifts upward: each key exceeds (previous - jitter). *)
    if k < !prev - 8 then incr violations;
    prev := k
  done;
  check_int "monotone up to jitter" 0 !violations

let test_workload_descending () =
  let rng = Helpers.Xoshiro.create ~seed:4 in
  let gen = W.generator (W.Descending 10_000) rng in
  let first = gen () in
  let later = List.init 500 (fun _ -> gen ()) in
  let last = List.nth later 499 in
  check_bool "descends" true (last < first);
  List.iter (fun k -> check_bool "non-negative" true (k >= 0)) later

let test_workload_clustered () =
  let rng = Helpers.Xoshiro.create ~seed:4 in
  let gen =
    W.generator (W.Clustered { clusters = 4; spread = 10; range = 100_000 }) rng
  in
  (* Distinct values should be few (clustered). *)
  let seen = Hashtbl.create 64 in
  for _ = 1 to 2000 do
    Hashtbl.replace seen (gen ()) ()
  done;
  check_bool "clustered" true (Hashtbl.length seen < 4 * 25)

let test_workload_parse () =
  check_bool "uniform" true (W.parse "uniform" <> None);
  check_bool "ascending" true (W.parse "ascending" <> None);
  check_bool "descending" true (W.parse "descending" <> None);
  check_bool "clustered" true (W.parse "clustered" <> None);
  check_bool "junk" true (W.parse "junk" = None)

let test_throughput_with_workloads () =
  Sim.configure ~seed:1 ~policy:Sim.Fair ();
  List.iter
    (fun w ->
      let config =
        {
          T.default_config with
          num_threads = 2;
          prefill = 300;
          ops_per_thread = 300;
          workload = w;
        }
      in
      let r = T.run config (R.Klsm 16) in
      check_bool (W.name w) true (r.T.throughput_per_thread > 0.))
    [ W.Uniform 1000; W.Ascending 16; W.Descending 100_000;
      W.Clustered { clusters = 4; spread = 16; range = 10_000 } ]

(* ---------------- drivers (smoke) ---------------- *)

let test_throughput_driver_runs () =
  Sim.configure ~seed:1 ~policy:Sim.Fair ();
  let config =
    { T.default_config with num_threads = 4; prefill = 500; ops_per_thread = 500 }
  in
  List.iter
    (fun spec ->
      let r = T.run config spec in
      check_bool
        (Printf.sprintf "%s throughput > 0" (R.spec_name spec))
        true
        (r.T.throughput_per_thread > 0.);
      check_int "op count" (4 * 500) r.T.total_ops)
    [ R.Klsm 16; R.Heap_lock; R.Multiq 2 ]

let test_throughput_reps_vary_seed () =
  Sim.configure ~seed:1 ~policy:Sim.Fair ();
  let config =
    { T.default_config with num_threads = 2; prefill = 200; ops_per_thread = 200 }
  in
  let samples = T.run_reps ~reps:3 config (R.Klsm 8) in
  check_int "three samples" 3 (Array.length samples)

let test_quality_driver_bounds () =
  Sim.configure ~seed:1 ~policy:Sim.Fair ();
  let config =
    {
      Q.default_config with
      num_threads = 4;
      prefill = 2_000;
      ops_per_thread = 1_000;
    }
  in
  (* The exact queue must have (near-)zero rank error... *)
  let exact = Q.run config R.Heap_lock in
  check_bool "heap+lock exact" true (exact.Q.max_rank_error = 0);
  (* ...and the k-LSM must respect rho = T*k (+ slack T for in-flight). *)
  let relaxed = Q.run config (R.Klsm 16) in
  check_bool "klsm bounded" true
    (relaxed.Q.max_rank_error <= (4 * 16) + 4);
  check_bool "some deletes measured" true (relaxed.Q.deletes > 0)

let test_quality_grows_with_k () =
  (* The mean rank error must grow (weakly) with k — the quality/throughput
     trade the relaxation buys. *)
  Sim.configure ~seed:2 ~policy:Sim.Fair ();
  let config =
    {
      Q.default_config with
      num_threads = 8;
      prefill = 8_000;
      ops_per_thread = 2_000;
    }
  in
  let mean k = (Q.run config (R.Klsm k)).Q.mean_rank_error in
  let m0 = mean 0 and m4096 = mean 4096 in
  check_bool "relaxation costs quality" true (m4096 > m0)

let () =
  Alcotest.run "harness"
    [
      ( "oracle",
        [
          prop_oracle_matches_naive;
          Alcotest.test_case "rank error" `Quick test_oracle_rank_error_example;
          Alcotest.test_case "missing key" `Quick test_oracle_missing_key;
          Alcotest.test_case "duplicates" `Quick test_oracle_duplicates;
        ] );
      ( "registry",
        [
          Alcotest.test_case "parse_spec" `Quick test_parse_spec;
          Alcotest.test_case "parse_spec rejects bad args" `Quick
            test_parse_spec_rejects_bad_args;
          Alcotest.test_case "unique names" `Quick test_spec_names_unique;
          Alcotest.test_case "lazy-deletion flags" `Quick test_lazy_deletion_support_flags;
        ] );
      ( "report",
        [
          Alcotest.test_case "table" `Quick test_table_renders;
          Alcotest.test_case "csv" `Quick test_csv_roundtrip;
          Alcotest.test_case "human_float" `Quick test_human_float;
        ] );
      ( "workload",
        [
          Alcotest.test_case "uniform bounds" `Quick test_workload_uniform_bounds;
          Alcotest.test_case "ascending" `Quick test_workload_ascending_monotone;
          Alcotest.test_case "descending" `Quick test_workload_descending;
          Alcotest.test_case "clustered" `Quick test_workload_clustered;
          Alcotest.test_case "parse" `Quick test_workload_parse;
          Alcotest.test_case "throughput integration" `Slow test_throughput_with_workloads;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "throughput" `Slow test_throughput_driver_runs;
          Alcotest.test_case "reps" `Quick test_throughput_reps_vary_seed;
          Alcotest.test_case "quality bounds" `Slow test_quality_driver_bounds;
          Alcotest.test_case "quality grows with k" `Slow test_quality_grows_with_k;
        ] );
    ]
