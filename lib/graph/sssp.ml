(** Parallel label-correcting single-source shortest paths — the paper's
    SSSP benchmark (§6, Figure 4): "a label-correcting version of
    Dijkstra's algorithm, parallelized in a straightforward manner using a
    concurrent priority queue.  It uses a lazy deletion scheme in
    connection with reinsertion of keys instead of an explicit decrease-key
    operation."

    The algorithm is generic over the queue through a pair of closures, so
    the same driver runs the k-LSM and the Wimmer et al. baselines.
    Distances live in an atomic array updated by CAS-min; each queue entry
    is (tentative distance, node); an entry is {e stale} when its distance
    no longer matches — stale entries are skipped on pop, and the queue's
    lazy-deletion predicate (built from the same distance array) lets it
    drop them wholesale during block copies.

    Termination uses {!Klsm_primitives.Quiescence}: a thread announces an
    entry {e before} inserting it and retires it {e after} processing it
    (its successors announced and inserted), or when the queue drops it
    lazily.  Every counter is written only by its thread, and an idle
    thread stops only when its double collect proves that nothing was in
    flight, which holds even against a spuriously failing
    [try_delete_min]. *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Backoff = Klsm_primitives.Backoff

  module Quiescence = Klsm_primitives.Quiescence.Make (struct
    type 'a t = 'a B.atomic

    let make = B.make
    let get = B.get
    let set = B.set
  end)

  type queue_ops = {
    insert : int -> int -> unit;  (** [insert dist node] *)
    try_delete_min : unit -> (int * int) option;
  }

  type stats = {
    dist : int B.atomic array;
    iterations : int;  (** entries processed with up-to-date distance *)
    stale : int;  (** entries skipped as stale *)
    wall : float;  (** seconds ({!B.time}: virtual under the simulator) *)
  }

  let distances stats = Array.map B.get stats.dist

  (** [run graph ~source ~num_threads ~setup ()] solves SSSP.  [setup] is
      called once, before the threads start, with the freshly created
      atomic distance array — so the caller can build the shared queue with
      the lazy-deletion predicate {!should_delete_of} over it — and returns
      the per-thread handle factory (called inside each thread).

      [~drop] must be wired to the queue's [on_lazy_delete] hook: it
      retires every entry the queue discards lazily on the worker that
      discards it, or termination detection would spin forever.  It raises
      [Invalid_argument] outside a worker thread. *)
  let run graph ~source ~num_threads ~setup () =
    let n = Graph.num_nodes graph in
    if source < 0 || source >= n then invalid_arg "Sssp.run: source";
    let dist = Array.init n (fun _ -> B.make max_int) in
    B.set dist.(source) 0;
    let quiescence = Quiescence.create ~num_threads in
    (* The source entry is thread 0's, announced before any thread runs. *)
    Quiescence.announce quiescence 0 1;
    let drop _key _node = Quiescence.retire quiescence (B.self ()) in
    let make_ops = setup ~dist ~drop in
    let iterations = Array.make num_threads 0 in
    let stale = Array.make num_threads 0 in
    let t0 = B.time () in
    B.parallel_run ~num_threads (fun tid ->
        let ops = make_ops tid in
        if tid = 0 then ops.insert 0 source;
        let backoff = Backoff.create ~max:64 () in
        let rec loop () =
          match ops.try_delete_min () with
          | Some (d, u) ->
              Backoff.reset backoff;
              if d = B.get dist.(u) then begin
                iterations.(tid) <- iterations.(tid) + 1;
                let du = d in
                Graph.iter_succ graph u ~f:(fun v w ->
                    let nd = du + w in
                    let rec relax () =
                      let cur = B.get dist.(v) in
                      if nd < cur then begin
                        if B.compare_and_set dist.(v) cur nd then begin
                          Quiescence.announce quiescence tid 1;
                          ops.insert nd v
                        end
                        else relax ()
                      end
                    in
                    relax ())
              end
              else stale.(tid) <- stale.(tid) + 1;
              Quiescence.retire quiescence tid;
              loop ()
          | None ->
              (* Empty-looking queue: done only once no entry is in flight
                 anywhere. *)
              if not (Quiescence.quiescent quiescence) then begin
                Backoff.once backoff ~relax:B.relax_n;
                (* Saturated backoff means we have been idle for a while:
                   release the core so the threads holding work can run
                   (essential when domains outnumber cores). *)
                if Backoff.current backoff >= 64 then B.yield ();
                loop ()
              end
        in
        loop ());
    let wall = B.time () -. t0 in
    {
      dist;
      iterations = Array.fold_left ( + ) 0 iterations;
      stale = Array.fold_left ( + ) 0 stale;
      wall;
    }

  (** The lazy-deletion predicate of §4.5 for this workload: an entry is
      condemned when its recorded distance is no longer current. *)
  let should_delete_of dist = fun d v -> d > B.get dist.(v)
end
