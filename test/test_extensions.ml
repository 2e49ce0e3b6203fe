(* Tests for the paper's §4.5 extensions: try_find_min, meld, and the
   decrease-key (Keyed) wrapper. *)

open Helpers
module Klsm = Klsm_core.Klsm.Default
module Keyed = Klsm_core.Keyed.Default
module Sim = Klsm_backend.Sim

(* ---------------- try_find_min ---------------- *)

let test_try_find_min () =
  let q = Klsm.create_with ~k:8 ~num_threads:1 () in
  let h = Klsm.register q 0 in
  check_bool "peek empty" true (Klsm.try_find_min h = None);
  Klsm.insert h 7 "seven";
  Klsm.insert h 3 "three";
  (* Single thread + local ordering: the peek is exact. *)
  check_bool "peek min" true (Klsm.try_find_min h = Some (3, "three"));
  check_bool "not consumed" true (Klsm.try_find_min h = Some (3, "three"));
  check_bool "delete still works" true
    (Klsm.try_delete_min h = Some (3, "three"))

let test_try_find_min_relaxed_bound () =
  let q = Klsm.create_with ~k:4 ~num_threads:1 () in
  let h = Klsm.register q 0 in
  for i = 0 to 63 do
    Klsm.insert h i ()
  done;
  match Klsm.try_find_min h with
  | Some (key, ()) -> check_bool "within k+1 smallest" true (key <= 5)
  | None -> Alcotest.fail "non-empty"

(* ---------------- meld ---------------- *)

let drain_all try_delete_min =
  let rec go acc misses =
    if misses > 200 then List.rev acc
    else
      match try_delete_min () with
      | Some (k, _) -> go (k :: acc) 0
      | None -> go acc (misses + 1)
  in
  go [] 0

let test_meld_moves_everything () =
  let q1 = Klsm.create_with ~k:16 ~num_threads:1 () in
  let h1 = Klsm.register q1 0 in
  let q2 = Klsm.create_with ~k:16 ~num_threads:2 () in
  let h2a = Klsm.register q2 0 and h2b = Klsm.register q2 1 in
  for i = 0 to 49 do
    Klsm.insert h1 i ()
  done;
  for i = 50 to 79 do
    Klsm.insert h2a i ()
  done;
  for i = 80 to 99 do
    Klsm.insert h2b i ()
  done;
  Klsm.meld h1 ~src:q2;
  check_int "src emptied" 0 (Klsm.approximate_size q2);
  let got = drain_all (fun () -> Klsm.try_delete_min h1) in
  check_bool "dst holds the union" true
    (List.sort compare got = List.init 100 Fun.id)

let test_meld_filters_deleted () =
  let q1 = Klsm.create_with ~k:4 ~num_threads:1 () in
  let h1 = Klsm.register q1 0 in
  let q2 = Klsm.create_with ~k:4 ~num_threads:1 () in
  let h2 = Klsm.register q2 0 in
  for i = 0 to 19 do
    Klsm.insert h2 i ()
  done;
  (* Delete the evens from q2 before melding. *)
  let deleted = ref [] in
  for _ = 1 to 10 do
    match Klsm.try_delete_min h2 with
    | Some (k, ()) -> deleted := k :: !deleted
    | None -> ()
  done;
  Klsm.meld h1 ~src:q2;
  let got = drain_all (fun () -> Klsm.try_delete_min h1) in
  check_int "only survivors melded" (20 - List.length !deleted)
    (List.length got)

let test_meld_empty_source () =
  let q1 = Klsm.create_with ~num_threads:1 () in
  let h1 = Klsm.register q1 0 in
  Klsm.insert h1 1 ();
  let q2 = Klsm.create_with ~num_threads:1 () in
  let _h2 = Klsm.register q2 0 in
  Klsm.meld h1 ~src:q2;
  check_int "dst unchanged" 1 (List.length (drain_all (fun () -> Klsm.try_delete_min h1)))

(* ---------------- insert_batch ---------------- *)

let test_batch_insert_conserves () =
  let q = Klsm.create_with ~k:16 ~num_threads:1 () in
  let h = Klsm.register q 0 in
  Klsm.insert_batch h (Array.init 100 (fun i -> (99 - i, i)));
  Klsm.insert_batch h [||];
  Klsm.insert_batch h [| (200, 0) |];
  let got = drain_all (fun () -> Klsm.try_delete_min h) in
  check_bool "all delivered in order-ish" true
    (List.sort compare got = List.init 100 Fun.id @ [ 200 ])

let prop_batch_equals_loop =
  qtest "batch insert = repeated insert (multiset)" ~count:60 keys_gen
    (fun keys ->
      match keys with
      | [] -> true
      | _ ->
          let q1 = Klsm.create_with ~k:8 ~num_threads:1 () in
          let h1 = Klsm.register q1 0 in
          Klsm.insert_batch h1 (Array.of_list (List.map (fun k -> (k, ())) keys));
          let q2 = Klsm.create_with ~k:8 ~num_threads:1 () in
          let h2 = Klsm.register q2 0 in
          List.iter (fun k -> Klsm.insert h2 k ()) keys;
          let d1 = drain_all (fun () -> Klsm.try_delete_min h1) in
          let d2 = drain_all (fun () -> Klsm.try_delete_min h2) in
          List.sort compare d1 = List.sort compare d2)

let test_batch_local_ordering () =
  (* Batch-inserted keys carry my Bloom attribution: my minimum stays
     visible through local ordering. *)
  let q = Klsm.create_with ~k:64 ~num_threads:2 () in
  let h0 = Klsm.register q 0 in
  Klsm.insert_batch h0 (Array.init 32 (fun i -> (i + 10, ())));
  match Klsm.try_delete_min h0 with
  | Some (k, ()) -> check_int "my min" 10 k
  | None -> Alcotest.fail "non-empty"

let test_batch_concurrent_conservation () =
  (* Batches from several simulated threads interleave with deletes; every
     payload is delivered exactly once. *)
  let module K = Klsm_core.Klsm.Make (Sim) in
  Sim.configure ~seed:6 ~policy:Sim.Fair ();
  let t = 4 in
  let per = 50 (* batches *) and bsz = 8 in
  let q = K.create_with ~k:32 ~num_threads:t () in
  let got = Array.init t (fun _ -> ref []) in
  Sim.parallel_run ~num_threads:t (fun tid ->
      let h = K.register q tid in
      let rng = Klsm_primitives.Xoshiro.create ~seed:(tid + 40) in
      for b = 0 to per - 1 do
        let batch =
          Array.init bsz (fun i ->
              ( Klsm_primitives.Xoshiro.int rng 10_000,
                (tid * per * bsz) + (b * bsz) + i ))
        in
        K.insert_batch h batch;
        match K.try_delete_min h with
        | Some (_, v) -> got.(tid) := v :: !(got.(tid))
        | None -> ()
      done;
      let misses = ref 0 in
      while !misses < 200 do
        match K.try_delete_min h with
        | Some (_, v) ->
            got.(tid) := v :: !(got.(tid));
            misses := 0
        | None -> incr misses
      done);
  let total = t * per * bsz in
  let seen = Array.make total 0 in
  Array.iter (fun l -> List.iter (fun v -> seen.(v) <- seen.(v) + 1) !l) got;
  Array.iteri
    (fun v c -> if c <> 1 then Alcotest.failf "payload %d delivered %d times" v c)
    seen

(* ---------------- Keyed (decrease-key) ---------------- *)

let test_keyed_basic () =
  let t = Keyed.create ~k:8 ~num_threads:1 () in
  let h = Keyed.register t 0 in
  let a = Keyed.element "a" and b = Keyed.element "b" in
  check_bool "insert a" true (Keyed.insert h a 10);
  check_bool "insert b" true (Keyed.insert h b 20);
  (match Keyed.try_delete_min h with
  | Some (el, p) ->
      check_bool "a first" true (Keyed.value el = "a" && p = 10)
  | None -> Alcotest.fail "non-empty");
  match Keyed.try_delete_min h with
  | Some (el, p) -> check_bool "b second" true (Keyed.value el = "b" && p = 20)
  | None -> Alcotest.fail "non-empty"

let test_keyed_decrease_key () =
  let t = Keyed.create ~k:8 ~num_threads:1 () in
  let h = Keyed.register t 0 in
  let a = Keyed.element "a" and b = Keyed.element "b" in
  ignore (Keyed.insert h a 10);
  ignore (Keyed.insert h b 5);
  (* Decrease a below b. *)
  check_bool "decrease wins" true (Keyed.decrease_key h a 1);
  check_bool "increase refused" false (Keyed.decrease_key h a 100);
  (match Keyed.try_delete_min h with
  | Some (el, p) -> check_bool "a now first" true (Keyed.value el = "a" && p = 1)
  | None -> Alcotest.fail "non-empty");
  (match Keyed.try_delete_min h with
  | Some (el, _) -> check_bool "b second" true (Keyed.value el = "b")
  | None -> Alcotest.fail "non-empty");
  (* The stale (10, a) entry must never be delivered. *)
  check_bool "no stale delivery" true (Keyed.try_delete_min h = None)

let test_keyed_exactly_once () =
  let t = Keyed.create ~k:8 ~num_threads:1 () in
  let h = Keyed.register t 0 in
  let el = Keyed.element 0 in
  (* Many decrease-keys pile up stale entries; the element comes out
     once. *)
  ignore (Keyed.insert h el 100);
  for p = 99 downto 50 do
    ignore (Keyed.decrease_key h el p)
  done;
  let deliveries = ref 0 in
  let rec drain () =
    match Keyed.try_delete_min h with
    | Some _ ->
        incr deliveries;
        drain ()
    | None -> ()
  in
  drain ();
  check_int "exactly once" 1 !deliveries;
  check_bool "claimed" true (Keyed.is_claimed el)

let test_keyed_reactivation () =
  let t = Keyed.create ~k:8 ~num_threads:1 () in
  let h = Keyed.register t 0 in
  let el = Keyed.element "x" in
  ignore (Keyed.insert h el 5);
  (match Keyed.try_delete_min h with
  | Some (el', _) -> check_bool "delivered" true (el' == el)
  | None -> Alcotest.fail "non-empty");
  (* Re-activate at a new priority (note: re-activation priorities must
     descend, like SSSP distances). *)
  check_bool "reinsert" true (Keyed.insert h el 3);
  match Keyed.try_delete_min h with
  | Some (el', p) -> check_bool "redelivered" true (el' == el && p = 3)
  | None -> Alcotest.fail "non-empty"

let test_keyed_concurrent_delivery_bounds () =
  (* Many elements, many decrease-keys from several fuzzed fibers.  With
     concurrent re-activation an element may legitimately be delivered more
     than once (exactly like SSSP re-expansions), but each delivery consumes
     a distinct successful activation's queue entry, so:
       1 <= deliveries(el) <= successful_activations(el). *)
  let module KS = Klsm_core.Keyed.Make (Sim) in
  for seed = 1 to 5 do
    Sim.configure ~seed ~policy:(Sim.Random_preempt 0.3) ();
    let n = 100 in
    let t = KS.create ~k:16 ~num_threads:4 () in
    let elements = Array.init n (fun v -> KS.element v) in
    let deliveries = Array.init n (fun _ -> Sim.make 0) in
    let activations = Array.init n (fun _ -> Sim.make 0) in
    Sim.parallel_run ~num_threads:4 (fun tid ->
        let h = KS.register t tid in
        let rng = Klsm_primitives.Xoshiro.create ~seed:(seed + (7 * tid)) in
        (* Everyone decrease-keys random elements with descending prios. *)
        for round = 0 to 199 do
          let v = Klsm_primitives.Xoshiro.int rng n in
          if KS.insert h elements.(v) (1_000 - (round / 2)) then
            ignore (Sim.fetch_and_add activations.(v) 1)
        done;
        let misses = ref 0 in
        while !misses < 200 do
          match KS.try_delete_min h with
          | Some (el, _) ->
              ignore (Sim.fetch_and_add deliveries.(KS.value el) 1);
              misses := 0
          | None -> incr misses
        done);
    Array.iteri
      (fun v d ->
        let d = Sim.get d and a = Sim.get activations.(v) in
        if a > 0 && d < 1 then
          Alcotest.failf "seed %d: element %d lost (a=%d)" seed v a;
        if d > a then
          Alcotest.failf "seed %d: element %d delivered %d > activations %d"
            seed v d a)
      deliveries
  done;
  Sim.configure ~policy:Sim.Fair ()

(* Keyed-based Dijkstra must agree with sequential Dijkstra on every
   schedule: 64 seeds, each under the fair scheduler and under random
   preemption.  A lowering that lands between a delivery's priority check
   and its claim must leave the element queued at its new priority. *)
let test_keyed_dijkstra () =
  let module KeyedSim = Klsm_core.Keyed.Make (Sim) in
  let graph = Klsm_graph.Gen.erdos_renyi ~seed:33 ~n:120 ~p:0.1 () in
  let reference = Klsm_graph.Dijkstra.run graph ~source:0 in
  let n = Klsm_graph.Graph.num_nodes graph in
  let solve ~seed ~policy =
    Sim.configure ~seed ~policy ();
    let dist = Array.init n (fun _ -> Sim.make max_int) in
    let in_flight = Sim.make 1 in
    let t =
      KeyedSim.create ~k:64
        ~on_entry_consumed:(fun _ _ -> ignore (Sim.fetch_and_add in_flight (-1)))
        ~num_threads:4 ()
    in
    let elements = Array.init n (fun v -> KeyedSim.element v) in
    Sim.set dist.(0) 0;
    Sim.parallel_run ~num_threads:4 (fun tid ->
        let h = KeyedSim.register t tid in
        if tid = 0 then ignore (KeyedSim.insert h elements.(0) 0);
        let rec loop () =
          match KeyedSim.try_delete_min h with
          | Some (el, d) ->
              let u = KeyedSim.value el in
              if d >= Sim.get dist.(u) then
                Klsm_graph.Graph.iter_succ graph u ~f:(fun v w ->
                    let nd = d + w in
                    let rec relax () =
                      let cur = Sim.get dist.(v) in
                      if nd < cur then
                        if Sim.compare_and_set dist.(v) cur nd then begin
                          ignore (Sim.fetch_and_add in_flight 1);
                          if not (KeyedSim.insert h elements.(v) nd) then
                            ignore (Sim.fetch_and_add in_flight (-1))
                        end
                        else relax ()
                    in
                    relax ());
              ignore (Sim.fetch_and_add in_flight (-1));
              loop ()
          | None -> if Sim.get in_flight > 0 then (Sim.cpu_relax (); loop ())
        in
        loop ());
    Array.map Sim.get dist
  in
  Fun.protect
    ~finally:(fun () -> Sim.configure ~policy:Sim.Fair ())
    (fun () ->
      for seed = 1 to 64 do
        List.iter
          (fun (name, policy) ->
            if solve ~seed ~policy <> reference.Klsm_graph.Dijkstra.dist then
              Alcotest.failf "seed %d, %s: distances differ from Dijkstra's"
                seed name)
          [ ("fair", Sim.Fair); ("random preemption", Sim.Random_preempt 0.3) ]
      done)

let () =
  Alcotest.run "extensions"
    [
      ( "try_find_min",
        [
          Alcotest.test_case "peek" `Quick test_try_find_min;
          Alcotest.test_case "relaxed bound" `Quick test_try_find_min_relaxed_bound;
        ] );
      ( "batch",
        [
          Alcotest.test_case "conserves" `Quick test_batch_insert_conserves;
          prop_batch_equals_loop;
          Alcotest.test_case "local ordering" `Quick test_batch_local_ordering;
        ] );
      ( "meld",
        [
          Alcotest.test_case "moves everything" `Quick test_meld_moves_everything;
          Alcotest.test_case "filters deleted" `Quick test_meld_filters_deleted;
          Alcotest.test_case "empty source" `Quick test_meld_empty_source;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "batch conservation (sim)" `Slow test_batch_concurrent_conservation;
        ] );
      ( "keyed",
        [
          Alcotest.test_case "basic" `Quick test_keyed_basic;
          Alcotest.test_case "decrease-key" `Quick test_keyed_decrease_key;
          Alcotest.test_case "exactly once" `Quick test_keyed_exactly_once;
          Alcotest.test_case "re-activation" `Quick test_keyed_reactivation;
          Alcotest.test_case "keyed dijkstra (sim)" `Slow test_keyed_dijkstra;
          Alcotest.test_case "concurrent delivery bounds (fuzzed)" `Slow
            test_keyed_concurrent_delivery_bounds;
        ] );
    ]
