(** Generic parallel best-first branch-and-bound on the k-LSM.

    Branch-and-bound is one of the paper's motivating applications (§1):
    subproblems are expanded most-promising-first, ordered by an optimistic
    bound.  Relaxed delete-min fits naturally — expanding the (rho+1)-best
    node instead of the best costs some extra search, never optimality,
    because pruning is against a shared incumbent.

    The engine MINIMIZES.  A problem provides a root, an admissible lower
    bound (never exceeding the value of any completion), branching, and
    leaf detection; the engine runs [num_threads] workers over a shared
    k-LSM, using {!Klsm.insert_batch} to push each expansion's children as
    one block (bulk insertion, §4.1), an atomic incumbent for pruning, and
    {!Klsm_primitives.Quiescence} for termination: a worker announces
    children before inserting them and retires a node once its children
    are in the queue, or when the queue drops it against the incumbent.

    Maximization problems negate into minimization (see {!Knapsack}). *)

module type PROBLEM = sig
  type node

  val root : node

  val bound : node -> int
    (** Admissible optimistic bound: a lower bound (>= 0) on the value of
        every completion of [node].  Used as the priority-queue key. *)

  val branch : node -> node list
    (** Children of an internal node; [\[\]] for leaves. *)

  val leaf_value : node -> int option
    (** [Some v] iff [node] is a complete solution of value [v]. *)
end

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Klsm = Klsm_core.Klsm.Make (B)

  module Quiescence = Klsm_primitives.Quiescence.Make (struct
    type 'a t = 'a B.atomic

    let make = B.make
    let get = B.get
    let set = B.set
  end)

  type stats = {
    best : int;  (** optimal value; [max_int] if infeasible *)
    expanded : int;  (** nodes whose children were generated *)
    pruned : int;  (** nodes discarded against the incumbent *)
    wall : float;  (** seconds ({!B.time}) *)
  }

  let solve ?(seed = 1) ?(k = 64) ~num_threads (module P : PROBLEM) =
    if num_threads < 1 then invalid_arg "Engine.solve: num_threads < 1";
    let incumbent = B.make max_int in
    let quiescence = Quiescence.create ~num_threads in
    (* The root is thread 0's, announced before any thread runs. *)
    Quiescence.announce quiescence 0 1;
    (* Entries condemned once their bound cannot beat the incumbent: the
       queue drops them during maintenance, and the dropping worker
       retires them. *)
    let q =
      Klsm.create_with ~seed ~k
        ~should_delete:(fun bound_key _ -> bound_key >= B.get incumbent)
        ~on_lazy_delete:(fun _ _ -> Quiescence.retire quiescence (B.self ()))
        ~num_threads ()
    in
    let expanded = Array.make num_threads 0 in
    let pruned = Array.make num_threads 0 in
    (* Degenerate case: the root is already a complete solution. *)
    (match P.leaf_value P.root with
    | Some v -> B.set incumbent v
    | None -> ());
    let t0 = B.time () in
    B.parallel_run ~num_threads (fun tid ->
        let h = Klsm.register q tid in
        if tid = 0 then Klsm.insert h (P.bound P.root) P.root;
        let rec improve v =
          let cur = B.get incumbent in
          if v < cur && not (B.compare_and_set incumbent cur v) then improve v
        in
        let push_children children =
          let viable =
            List.filter_map
              (fun child ->
                match P.leaf_value child with
                | Some v ->
                    improve v;
                    None
                | None ->
                    let bd = P.bound child in
                    if bd < B.get incumbent then Some (bd, child) else None)
              children
          in
          match viable with
          | [] -> ()
          | viable ->
              Quiescence.announce quiescence tid (List.length viable);
              Klsm.insert_batch h (Array.of_list viable)
        in
        let backoff = Klsm_primitives.Backoff.create ~max:64 () in
        let rec loop () =
          match Klsm.try_delete_min h with
          | Some (bound_key, node) ->
              Klsm_primitives.Backoff.reset backoff;
              if bound_key < B.get incumbent then begin
                expanded.(tid) <- expanded.(tid) + 1;
                push_children (P.branch node)
              end
              else pruned.(tid) <- pruned.(tid) + 1;
              Quiescence.retire quiescence tid;
              loop ()
          | None ->
              if not (Quiescence.quiescent quiescence) then begin
                Klsm_primitives.Backoff.once backoff ~relax:B.relax_n;
                if Klsm_primitives.Backoff.current backoff >= 64 then B.yield ();
                loop ()
              end
        in
        loop ());
    {
      best = B.get incumbent;
      expanded = Array.fold_left ( + ) 0 expanded;
      pruned = Array.fold_left ( + ) 0 pruned;
      wall = B.time () -. t0;
    }
end
