(* Quickstart: the k-LSM API in two minutes.

   Run with:  dune exec examples/quickstart.exe

   The k-LSM is a concurrent priority queue whose delete-min may return any
   of the (T*k + 1) smallest keys (T threads, runtime-configurable k), in
   exchange for scalability.  Keys inserted and deleted by the same thread
   still come back in exact priority order (local ordering semantics). *)

module Klsm = Klsm_core.Klsm.Default (* = Make (Klsm_backend.Real) *)

let () =
  (* One queue for up to 4 threads, relaxation k = 16.  Payloads are
     arbitrary; here strings. *)
  let q = Klsm.create_with ~k:16 ~num_threads:4 () in

  (* Each thread registers once with its dense id and keeps the handle. *)
  let h0 = Klsm.register q 0 in

  (* Single-threaded use behaves exactly like a strict priority queue. *)
  Klsm.insert h0 30 "thirty";
  Klsm.insert h0 10 "ten";
  Klsm.insert h0 20 "twenty";
  (match Klsm.try_delete_min h0 with
  | Some (key, v) -> Printf.printf "first delete-min: %d (%s)\n" key v
  | None -> assert false);

  (* Concurrent use: spawn domains, one handle each. *)
  let deleted = Atomic.make 0 in
  Klsm_backend.Real.parallel_run ~num_threads:4 (fun tid ->
      let h = if tid = 0 then h0 else Klsm.register q tid in
      (* Everyone inserts a slice of keys... *)
      for i = 1 to 1000 do
        Klsm.insert h ((tid * 10_000) + i) "payload"
      done;
      (* ...and everyone deletes; relaxed delete-min spreads contention. *)
      let rec drain () =
        match Klsm.try_delete_min h with
        | Some _ ->
            Atomic.incr deleted;
            drain ()
        | None -> ()  (* possibly spurious; a real app would retry *)
      in
      drain ());
  Printf.printf "concurrently deleted %d of %d keys (+2 from above)\n"
    (Atomic.get deleted) (4 * 1000);

  (* The relaxation is runtime-configurable. *)
  Klsm.set_k q 1024;
  Printf.printf "k is now %d; rho = T*k = %d\n" (Klsm.get_k q)
    (Klsm_core.Klsm.rank_bound ~threads:4 ~k:(Klsm.get_k q) ());

  (* Remaining keys drain in (relaxed) ascending order. *)
  let rec drain last n =
    match Klsm.try_delete_min h0 with
    | Some (key, _) -> drain (max last key) (n + 1)
    | None -> (last, n)
  in
  let last, n = drain (-1) 0 in
  Printf.printf "drained %d leftover keys, largest %d\n" n last
