(* CLI for the Figure 4 SSSP experiment.

   Examples:
     sssp --sweep threads --relaxation 256            (Figure 4 left)
     sssp --sweep k --threads-fixed 10                (Figure 4 right)
     sssp --nodes 10000 --prob 0.5 --sweep threads    (paper-scale graph)
     sssp --graph grid --nodes 10000 --sweep threads  (extra workload)
     sssp --nodes 600 --seed 42 --queue-seed 1        (graph seed 42,
                                                      queue seed 1: Fig. 4)

   The k sweep always runs centralized-k, hybrid-k and k-lsm at each k,
   so it rejects --impl.  Every run is checked against sequential
   Dijkstra; the exit code is 1 when any run's distances differ (its row
   reads NO). *)

let parse_threads_list = [ 1; 2; 3; 5; 10; 20; 40; 80 ]
let paper_k_list = [ 0; 1; 4; 16; 64; 256; 1024; 4096; 16384 ]

let make_graph ~kind ~seed ~n ~p =
  match kind with
  | "er" -> Klsm_graph.Gen.erdos_renyi ~seed ~n ~p ()
  | "grid" ->
      let side = int_of_float (sqrt (float_of_int n)) in
      Klsm_graph.Gen.grid ~seed ~width:side ~height:side ()
  | "rmat" ->
      Klsm_graph.Gen.rmat ~seed ~scale:(Klsm_primitives.Bits.ceil_log2 n) ()
  | k -> failwith ("unknown graph kind " ^ k)

let run ~mode ~sweep ~graph_kind ~n ~p ~k ~threads_fixed ~impls ~seed
    ~queue_seed ~csv =
  let module Go (B : Klsm_backend.Backend_intf.S) = struct
    module R = Klsm_harness.Registry.Make (B)
    module SB = Klsm_harness.Sssp_bench.Make (B)

    let main () =
      let graph = make_graph ~kind:graph_kind ~seed ~n ~p in
      let source = 0 in
      let reference = Klsm_graph.Dijkstra.run graph ~source in
      Printf.eprintf "graph: %d nodes, %d arcs; dijkstra settles %d\n%!"
        (Klsm_graph.Graph.num_nodes graph)
        (Klsm_graph.Graph.num_edges graph)
        reference.Klsm_graph.Dijkstra.settled;
      let rows = ref [] and wrong = ref 0 in
      let emit spec t r =
        if not r.SB.correct then incr wrong;
        rows :=
          [
            R.spec_name spec;
            string_of_int t;
            Printf.sprintf "%.2f" (r.SB.wall *. 1e3);
            string_of_int r.SB.iterations;
            Printf.sprintf "%+d" r.SB.extra_iterations;
            string_of_int r.SB.stale;
            (if r.SB.correct then "yes" else "NO");
          ]
          :: !rows
      in
      (match sweep with
      | `Threads ->
          let specs =
            match impls with
            | [] -> [ R.Wimmer_centralized; R.Wimmer_hybrid k; R.Klsm k ]
            | l -> List.map
          (fun s ->
            match R.parse_spec s with
            | Ok spec -> spec
            | Error msg -> failwith msg)
          l
          in
          List.iter
            (fun spec ->
              List.iter
                (fun t ->
                  let r =
                    SB.run ~seed:queue_seed ~graph ~source ~num_threads:t
                      ~reference spec
                  in
                  emit spec t r;
                  Printf.eprintf "done %s T=%d\n%!" (R.spec_name spec) t)
                parse_threads_list)
            specs
      | `K ->
          let t = threads_fixed in
          List.iter
            (fun k ->
              List.iter
                (fun spec ->
                  let r =
                    SB.run ~seed:queue_seed ~graph ~source ~num_threads:t
                      ~reference spec
                  in
                  emit spec t r;
                  Printf.eprintf "done %s k=%d\n%!" (R.spec_name spec) k)
                [ R.Wimmer_centralized; R.Wimmer_hybrid k; R.Klsm k ])
            paper_k_list);
      Klsm_harness.Report.section
        (Printf.sprintf "SSSP (%s graph, n=%d, backend %s)" graph_kind n B.name);
      Klsm_harness.Report.table
        ~header:
          [ "impl"; "threads"; "time(ms)"; "iters"; "extra"; "stale"; "correct" ]
        (List.rev !rows);
      (match csv with
      | Some path ->
          Klsm_harness.Report.csv ~path
            ~header:
              [ "impl"; "threads"; "time_ms"; "iters"; "extra"; "stale"; "correct" ]
            (List.rev !rows);
          Printf.printf "wrote %s\n" path
      | None -> ());
      if !wrong > 0 then begin
        Printf.eprintf "%d run(s) differ from sequential Dijkstra\n%!" !wrong;
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

let sweep =
  Arg.(
    value
    & opt (enum [ ("threads", `Threads); ("k", `K) ]) `Threads
    & info [ "sweep" ] ~doc:"Sweep threads (Fig 4 left) or k (Fig 4 right).")

let graph_kind =
  Arg.(value & opt string "er" & info [ "graph" ] ~doc:"er | grid | rmat.")

let n = Arg.(value & opt int 1000 & info [ "n"; "nodes" ] ~doc:"Nodes (paper: 10000).")
let p = Arg.(value & opt float 0.5 & info [ "p"; "prob" ] ~doc:"ER edge probability (paper: 0.5).")
let k = Arg.(value & opt int 256 & info [ "k"; "relaxation" ] ~doc:"Relaxation for the threads sweep.")

let threads_fixed =
  Arg.(value & opt int 10 & info [ "threads-fixed" ] ~doc:"Threads for the k sweep (paper: 10).")

let impls =
  Arg.(
    value & opt_all string []
    & info [ "impl" ] ~doc:"Override implementations (repeatable; --sweep threads only).")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Graph seed.")

let queue_seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "queue-seed" ] ~doc:"Queue seed (default: the --seed value).")

let csv = Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"Also write CSV here.")

let cmd =
  let doc = "k-LSM paper Figure 4: parallel SSSP benchmark" in
  Cmd.v (Cmd.info "sssp" ~doc)
    Term.(
      ret
        (const
           (fun mode sweep graph_kind n p k threads_fixed impls seed queue_seed
                csv ->
             if sweep = `K && impls <> [] then
               `Error (true, "--impl applies to --sweep threads only")
             else
               `Ok
                 (run ~mode ~sweep ~graph_kind ~n ~p ~k ~threads_fixed ~impls
                    ~seed
                    ~queue_seed:(Option.value queue_seed ~default:seed)
                    ~csv))
        $ mode $ sweep $ graph_kind $ n $ p $ k $ threads_fixed $ impls $ seed
        $ queue_seed $ csv))

let () = exit (Cmd.eval cmd)
