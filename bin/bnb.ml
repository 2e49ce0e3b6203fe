(* CLI for the parallel branch-and-bound solver (knapsack / TSP) on the
   k-LSM — the application class the paper's introduction motivates.

   Examples:
     bnb --problem knapsack --size 30 --threads 1,2,10,40
     bnb --problem tsp --size 12 --relaxation 0 --mode real --threads 1,2

   Every solve is checked against an exact oracle; the exit code is 1
   when any run's value is not optimal (its row reads NO). *)

let run ~mode ~problem ~n ~k ~threads ~seed =
  let module Go (B : Klsm_backend.Backend_intf.S) = struct
    module E = Klsm_bnb.Engine.Make (B)

    let main () =
      let pack, oracle, describe =
        match problem with
        | `Knapsack ->
            let inst = Klsm_bnb.Knapsack.random ~seed ~n () in
            ( (fun () -> Klsm_bnb.Knapsack.problem inst),
              (fun best ->
                (Klsm_bnb.Knapsack.profit_of_best inst best,
                 Klsm_bnb.Knapsack.dp_optimum inst)),
              Printf.sprintf "knapsack, %d items (DP oracle)" n )
        | `Tsp ->
            let inst = Klsm_bnb.Tsp.random ~seed ~n () in
            ( (fun () -> Klsm_bnb.Tsp.problem inst),
              (fun best -> (best, Klsm_bnb.Tsp.held_karp inst)),
              Printf.sprintf "tsp, %d cities (Held-Karp oracle)" n )
      in
      Klsm_harness.Report.section
        (Printf.sprintf "Branch & bound: %s, k=%d, backend %s" describe k B.name);
      let wrong = ref 0 in
      let rows =
        List.map
          (fun t ->
            let stats = E.solve ~seed ~k ~num_threads:t (pack ()) in
            let value, expect = oracle stats.E.best in
            if value <> expect then incr wrong;
            [
              string_of_int t;
              string_of_int value;
              (if value = expect then "yes" else "NO");
              string_of_int stats.E.expanded;
              string_of_int stats.E.pruned;
              Printf.sprintf "%.2f" (stats.E.wall *. 1e3);
            ])
          threads
      in
      Klsm_harness.Report.table
        ~header:[ "threads"; "value"; "optimal"; "expanded"; "pruned"; "time(ms)" ]
        rows;
      if !wrong > 0 then begin
        Printf.eprintf "%d run(s) missed the optimum\n%!" !wrong;
        exit 1
      end
  end in
  match mode with
  | `Sim ->
      let module M = Go (Klsm_backend.Sim) in
      M.main ()
  | `Real ->
      let module M = Go (Klsm_backend.Real) in
      M.main ()

open Cmdliner

let mode =
  Arg.(value & opt (enum [ ("sim", `Sim); ("real", `Real) ]) `Sim & info [ "mode" ] ~doc:"Backend.")

let problem =
  Arg.(
    value
    & opt (enum [ ("knapsack", `Knapsack); ("tsp", `Tsp) ]) `Knapsack
    & info [ "problem" ] ~doc:"knapsack or tsp.")

let n = Arg.(value & opt int 28 & info [ "n"; "size" ] ~doc:"Items / cities.")
let k = Arg.(value & opt int 64 & info [ "k"; "relaxation" ] ~doc:"Relaxation parameter.")
let threads = Arg.(value & opt (list int) [ 1; 2; 5; 10; 20 ] & info [ "threads" ] ~doc:"Thread counts.")
let seed = Arg.(value & opt int 9 & info [ "seed" ] ~doc:"Instance seed.")

let cmd =
  let doc = "parallel branch-and-bound on the k-LSM" in
  Cmd.v (Cmd.info "bnb" ~doc)
    Term.(
      const (fun mode problem n k threads seed ->
          run ~mode ~problem ~n ~k ~threads ~seed)
      $ mode $ problem $ n $ k $ threads $ seed)

let () = exit (Cmd.eval cmd)
