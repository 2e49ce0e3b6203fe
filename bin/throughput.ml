(* CLI for the Figure 3 throughput experiment.

   Examples:
     throughput --threads 1,2,3,5,10,20,40,80 --prefill 1000000
     throughput --impl klsm:256 --impl linden --threads 1,4 --mode real
     throughput --csv out.csv *)

let run ~mode ~threads ~prefill ~ops ~impls ~reps ~seed ~csv ~workload =
  let module Go (B : Klsm_backend.Backend_intf.S) = struct
    module R = Klsm_harness.Registry.Make (B)
    module T = Klsm_harness.Throughput.Make (B)

    let specs =
      match impls with
      | [] -> R.figure3_specs
      | l ->
          List.map
            (fun s ->
              match R.parse_spec s with
              | Ok spec -> spec
              | Error msg -> failwith msg)
            l

    let main () =
      let rows = ref [] in
      let csv_rows = ref [] in
      List.iter
        (fun spec ->
          List.iter
            (fun t ->
              let config =
                {
                  T.default_config with
                  num_threads = t;
                  prefill;
                  ops_per_thread = ops / t;
                  seed;
                  workload =
                    (match Klsm_harness.Workload.parse workload with
                    | Some w -> w
                    | None -> failwith ("unknown workload " ^ workload));
                }
              in
              let samples = T.run_reps ~reps config spec in
              let s = Klsm_primitives.Stats.summarize samples in
              rows :=
                [
                  R.spec_name spec;
                  string_of_int t;
                  Klsm_harness.Report.human_float s.mean;
                  Klsm_harness.Report.human_float s.ci95;
                ]
                :: !rows;
              csv_rows :=
                [
                  R.spec_name spec;
                  string_of_int t;
                  Printf.sprintf "%.1f" s.mean;
                  Printf.sprintf "%.1f" s.ci95;
                ]
                :: !csv_rows;
              Printf.eprintf "done %s T=%d\n%!" (R.spec_name spec) t)
            threads)
        specs;
      Klsm_harness.Report.section
        (Printf.sprintf
           "Throughput/thread/s (prefill %d, 50-50 mix, backend %s)" prefill
           B.name);
      Klsm_harness.Report.table
        ~header:[ "impl"; "threads"; "thr/thread"; "ci95" ]
        (List.rev !rows);
      match csv with
      | Some path ->
          Klsm_harness.Report.csv ~path
            ~header:[ "impl"; "threads"; "throughput_per_thread"; "ci95" ]
            (List.rev !csv_rows);
          Printf.printf "wrote %s\n" path
      | None -> ()
  end in
  match mode with
  | `Sim ->
      let module M = Go (Klsm_backend.Sim) in
      M.main ()
  | `Real ->
      let module M = Go (Klsm_backend.Real) in
      M.main ()

open Cmdliner

let mode_conv = Arg.enum [ ("sim", `Sim); ("real", `Real) ]

let mode =
  Arg.(value & opt mode_conv `Sim & info [ "mode" ] ~doc:"Backend: sim or real.")

let threads =
  Arg.(
    value
    & opt (list int) [ 1; 2; 3; 5; 10; 20; 40; 80 ]
    & info [ "threads" ] ~doc:"Comma-separated thread counts.")

let prefill =
  Arg.(value & opt int 100_000 & info [ "prefill" ] ~doc:"Prefilled keys (paper: 1e6 and 1e7).")

let ops =
  Arg.(value & opt int 200_000 & info [ "ops" ] ~doc:"Total timed operations per run.")

let impls =
  Arg.(
    value & opt_all string []
    & info [ "impl" ]
        ~doc:
          "Implementation spec (repeatable): heap, linden, spraylist, \
           multiq:C, klsm:K, dlsm, centralized, hybrid:K.  Default: the \
           full Figure 3 line-up.")

let reps = Arg.(value & opt int 3 & info [ "reps" ] ~doc:"Repetitions (paper: 30).")
let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Root random seed.")
let csv = Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"Also write CSV here.")

let workload =
  Arg.(
    value & opt string "uniform"
    & info [ "workload" ] ~doc:"Key distribution: uniform | ascending | descending | clustered.")

let cmd =
  let doc = "k-LSM paper Figure 3: throughput benchmark" in
  Cmd.v
    (Cmd.info "throughput" ~doc)
    Term.(
      const (fun mode threads prefill ops impls reps seed csv workload ->
          run ~mode ~threads ~prefill ~ops ~impls ~reps ~seed ~csv ~workload)
      $ mode $ threads $ prefill $ ops $ impls $ reps $ seed $ csv $ workload)

let () = exit (Cmd.eval cmd)
