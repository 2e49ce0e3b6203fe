(* Parallel branch-and-bound 0/1 knapsack on the k-LSM.

   Run with:  dune exec examples/knapsack.exe

   Branch-and-bound is one of the paper's motivating applications (§1): a
   priority queue orders subproblems by their optimistic bound so the most
   promising are expanded first.  Relaxed delete-min is a natural fit —
   expanding the (rho+1)-best node instead of the best costs a little extra
   search, never correctness, because pruning uses the shared incumbent.

   The search is lib/bnb's engine, which minimizes: [Klsm_bnb.Knapsack]
   keys a node by the profit its fractional bound says it cannot reach
   (total profit minus the bound), so small keys are the most promising
   nodes.  The engine's workers stop when no node is left anywhere, and
   the answer is checked against the exact dynamic program. *)

module Engine = Klsm_bnb.Engine.Make (Klsm_backend.Real)
module Knapsack = Klsm_bnb.Knapsack

let () =
  let num_threads = 4 and n_items = 26 in
  let inst = Knapsack.random ~seed:11 ~n:n_items () in
  let exact = Knapsack.dp_optimum inst in
  let stats = Engine.solve ~k:64 ~num_threads (Knapsack.problem inst) in
  let best = Knapsack.profit_of_best inst stats.Engine.best in
  Printf.printf "items=%d capacity=%d\n" n_items inst.Knapsack.capacity;
  Printf.printf "branch-and-bound optimum: %d (exact DP: %d) %s\n" best exact
    (if best = exact then "OK" else "MISMATCH");
  Printf.printf "nodes expanded: %d, pruned: %d (by %d threads)\n"
    stats.Engine.expanded stats.Engine.pruned num_threads;
  if best <> exact then exit 1
