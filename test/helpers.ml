(* Shared helpers for the alcotest/qcheck suites. *)

module Xoshiro = Klsm_primitives.Xoshiro

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_list_int = Alcotest.(check (list int))

(* Random key list generator with bounded values (suitable for oracles). *)
let keys_gen =
  QCheck2.Gen.(list_size (int_bound 400) (int_bound 10_000))

(* A mixed op sequence: [true, k] = insert k; [false, _] = delete-min. *)
let ops_gen =
  QCheck2.Gen.(list_size (int_bound 600) (pair bool (int_bound 10_000)))

(* Reference oracle: sorted-list priority queue (multiset semantics). *)
module Oracle_pq = struct
  type t = { mutable items : int list }  (* ascending *)

  let create () = { items = [] }

  let insert t k =
    let rec go = function
      | [] -> [ k ]
      | x :: rest when x < k -> x :: go rest
      | rest -> k :: rest
    in
    t.items <- go t.items

  let delete_min t =
    match t.items with
    | [] -> None
    | x :: rest ->
        t.items <- rest;
        Some x

  let to_list t = t.items
end

(* Run the same random op sequence against a queue (via closures) and the
   oracle; returns true iff every delete-min matched exactly.  Only valid
   for configurations that guarantee exact single-thread semantics. *)
let matches_oracle ~insert ~delete_min ops =
  let oracle = Oracle_pq.create () in
  List.for_all
    (fun (is_insert, k) ->
      if is_insert then begin
        insert k;
        Oracle_pq.insert oracle k;
        true
      end
      else begin
        let got = delete_min () in
        let want = Oracle_pq.delete_min oracle in
        got = want
      end)
    ops

(* Remove [root] and everything under it. *)
let rm_rf root =
  let rec go p =
    if Sys.is_directory p then begin
      Array.iter (fun n -> go (Filename.concat p n)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists root then go root

(* Run [f] on a fresh temporary directory (a store root), removed with
   its contents afterwards. *)
let with_root f =
  let root = Filename.temp_dir "klsm-store-test" "" in
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

(* Rank errors of one Fig. 3 mix on the simulator: [Throughput.run] with
   an oracle, its keys uniform below the oracle's universe as quality.exe
   draws them. *)
module Sim_mix = Klsm_harness.Throughput.Make (Klsm_backend.Sim)

let rank_universe = 1 lsl 18

let rank_error config spec =
  let config =
    {
      config with
      Sim_mix.workload = Klsm_harness.Workload.Uniform rank_universe;
    }
  in
  let oracle = Klsm_harness.Oracle.create ~universe:rank_universe in
  Option.get (Sim_mix.run ~oracle config spec).Sim_mix.rank_error
