(* CLI for the rank-error quality experiment (DESIGN.md ablation A1):
   empirical delete-min rank errors per implementation and k, next to the
   worst-case bound ([Registry.rank_bound]; for the k-LSMs the paper's
   rho = T*k at one stripe) and the simulated ops/thread/s of the same
   run, so one run gives both axes of the quality/throughput trade.  The
   run is [Throughput.run] with a rank oracle, over keys uniform below the
   oracle's universe.  Every run also writes its rows, as raw numbers, to
   BENCH_quality.json in the working directory.

   Examples:
     quality                                          (DESIGN.md A1 table)
     quality --impl klsm:256 --impl klsm-sharded:256:4
     quality --threads 16 --csv quality.csv
     quality --batch 8 --impl klsm-sharded:256:4      (pulls of 8)

   With --batch N every delete is a pull of up to N keys with one
   try_delete_min_batch (inserts stay single; a pull counts as one
   operation in ops/thread/s), and a pull's keys reach the oracle when the
   call returns, so the measured maximum is held to rho + T*N instead of
   rho + T.

   Only the simulator backend is supported: the oracle needs the
   cooperative single-domain execution to observe operations in order. *)

module Report = Klsm_harness.Report

(* The oracle's key universe: keys are drawn uniformly below it. *)
let universe = 1 lsl 18

let run ~threads ~prefill ~ops ~impls ~seed ~batch ~csv =
  let module R = Klsm_harness.Registry.Make (Klsm_backend.Sim) in
  let module T = Klsm_harness.Throughput.Make (Klsm_backend.Sim) in
  let specs =
    match impls with
    | [] ->
        [
          R.Heap_lock;
          R.Linden;
          R.Multiq 2;
          R.Spraylist;
          R.Klsm 0;
          R.Klsm 4;
          R.Klsm 64;
          R.Klsm 256;
          R.Klsm 4096;
          R.klsm_sharded 256 4;
          R.Dlsm;
          R.Wimmer_hybrid 256;
        ]
    | l -> List.map
          (fun s ->
            match R.parse_spec s with
            | Ok spec -> spec
            | Error msg -> failwith msg)
          l
  in
  let measured =
    List.map
      (fun spec ->
        let config =
          {
            T.num_threads = threads;
            prefill;
            ops_per_thread = ops / threads;
            seed;
            workload = Klsm_harness.Workload.Uniform universe;
            batch;
          }
        in
        let oracle = Klsm_harness.Oracle.create ~universe in
        let r = T.run ~oracle config spec in
        Printf.eprintf "done %s\n%!" (R.spec_name spec);
        (spec, r, Option.get r.T.rank_error, R.rank_bound ~threads spec))
      specs
  in
  let rows =
    List.map
      (fun (spec, r, e, rho) ->
        [
          R.spec_name spec;
          string_of_int e.T.deletes;
          Printf.sprintf "%.2f" e.T.mean_rank_error;
          Printf.sprintf "%.0f" e.T.p99_rank_error;
          string_of_int e.T.max_rank_error;
          (match rho with Some rho -> string_of_int rho | None -> "unbounded");
          Printf.sprintf "%.0f" r.T.throughput_per_thread;
        ])
      measured
  in
  Report.section
    (if batch > 1 then
       Printf.sprintf "Pull rank error (T=%d, prefill=%d, pulls of %d)" threads
         prefill batch
     else
       Printf.sprintf "Delete-min rank error (T=%d, prefill=%d)" threads prefill);
  Report.table
    ~header:
      [ "impl"; "deletes"; "mean"; "p99"; "max"; "rho bound"; "ops/thread/s" ]
    rows;
  (match csv with
  | Some path ->
      Report.csv ~path
        ~header:
          [
            "impl"; "deletes"; "mean"; "p99"; "max"; "rho";
            "throughput_per_thread";
          ]
        rows;
      Printf.printf "wrote %s\n" path
  | None -> ());
  let path = "BENCH_quality.json" in
  Report.write_json ~path
    (Report.Obj
       [
         ("benchmark", Report.String "quality-rank-error");
         ("backend", Report.String Klsm_backend.Sim.name);
         ("threads", Report.Int threads);
         ("batch", Report.Int batch);
         ( "results",
           Report.List
             (List.map
                (fun (spec, r, e, rho) ->
                  Report.Obj
                    [
                      ("impl", Report.String (R.spec_name spec));
                      ("deletes", Report.Int e.T.deletes);
                      ("mean_rank_error", Report.Float e.T.mean_rank_error);
                      ("p99_rank_error", Report.Float e.T.p99_rank_error);
                      ("max_rank_error", Report.Int e.T.max_rank_error);
                      ( "rho",
                        match rho with
                        | Some rho -> Report.Int rho
                        | None -> Report.Null );
                      ( "throughput_per_thread",
                        Report.Float r.T.throughput_per_thread );
                    ])
                measured) );
       ]);
  Printf.printf "wrote %s\n%!" path

open Cmdliner

let threads = Arg.(value & opt int 8 & info [ "threads" ] ~doc:"Simulated threads.")
let prefill = Arg.(value & opt int 20_000 & info [ "prefill" ] ~doc:"Prefilled keys.")
let ops = Arg.(value & opt int 40_000 & info [ "ops" ] ~doc:"Total operations.")
let impls = Arg.(value & opt_all string [] & info [ "impl" ] ~doc:"Implementations (repeatable).")
let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Root seed.")
let batch =
  Arg.(
    value & opt int 1
    & info [ "batch" ]
        ~doc:"Keys per delete: one pull of up to N (try_delete_min_batch).")

let csv = Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"Also write CSV here.")

let cmd =
  let doc = "delete-min rank-error quality measurement" in
  Cmd.v (Cmd.info "quality" ~doc)
    Term.(
      const (fun threads prefill ops impls seed batch csv ->
          if batch < 1 then invalid_arg "quality: --batch < 1";
          run ~threads ~prefill ~ops ~impls ~seed ~batch ~csv)
      $ threads $ prefill $ ops $ impls $ seed $ batch $ csv)

let () = exit (Cmd.eval cmd)
