(** [sssp-grid]: parallel label-correcting SSSP (the paper's Fig. 4
    kernel) on a 512x512 grid with lazy deletion, on {!threads} threads.
    A trial is one solve on a fresh queue.  Every 16th queue call of a
    thread is timed, and a request is one queue call.  Every solve must
    reproduce the sequential Dijkstra distances. *)

open Common
module Sssp = Klsm_graph.Sssp.Make (Pb)
module Gen = Klsm_graph.Gen
module Graph = Klsm_graph.Graph
module Dijkstra = Klsm_graph.Dijkstra

let side = 512
let k = 256

(** Set-up (the grid from the seed plus its sequential reference) is
    repeated this many times and its median reported. *)
let setup_reps = 5

type t = { graph : Graph.t; reference : Dijkstra.result }

let init p acc =
  let side = max 8 (int_of_float (float_of_int side *. sqrt p.scale)) in
  let built = ref None in
  for _ = 1 to setup_reps do
    compact ();
    let c0 = cpu_time () in
    let graph = Gen.grid ~seed:p.seed ~width:side ~height:side () in
    let reference = Dijkstra.run graph ~source:0 in
    sample acc ~traced:false "setup_s" (cpu_time () -. c0);
    built := Some (graph, reference)
  done;
  let graph, reference = Option.get !built in
  { graph; reference }

(* Every 16th call of a thread is timed: the clock reads would otherwise
   add a tenth to a solve. *)
let sample_mask = 15

let trial st p acc ~index ~traced =
  let seed = p.seed + (1_000_003 * index) in
  reset tstates;
  compact ();
  let queue = ref None in
  let setup ~dist ~drop =
    Obs.set_enabled traced;
    let inst =
      R.make ~seed ~should_delete:(Sssp.should_delete_of dist) ~on_lazy_delete:drop
        ~num_threads:threads (R.Klsm k)
    in
    Obs.set_enabled false;
    queue := Some inst;
    fun tid ->
      let h = inst.R.register tid and s = tstates.(tid) in
      let calls = ref 0 in
      {
        Sssp.insert =
          (fun d v ->
            incr calls;
            if !calls land sample_mask = 0 then begin
              let t0 = Pb.now_ns () in
              h.R.insert d v;
              Hist.record s.ins (Pb.now_ns () - t0)
            end
            else h.R.insert d v;
            s.inserts <- s.inserts + 1);
        try_delete_min =
          (fun () ->
            incr calls;
            let r =
              if !calls land sample_mask = 0 then begin
                let t0 = Pb.now_ns () in
                let r = h.R.try_delete_min () in
                Hist.record s.del (Pb.now_ns () - t0);
                r
              end
              else h.R.try_delete_min ()
            in
            if r <> None then s.deletes <- s.deletes + 1;
            r);
      }
  in
  let words = minor_words () and majors = major_collections () and cpu = cpu_time () in
  let stats = Sssp.run st.graph ~source:0 ~num_threads:threads ~setup () in
  let cpu = cpu_time () -. cpu in
  let words = minor_words () -. words and majors = major_collections () - majors in
  let wall = stats.Sssp.wall in
  let correct = Sssp.distances stats = st.reference.Dijkstra.dist in
  acc.attempted <- acc.attempted + 1;
  if not correct then begin
    acc.failed <- acc.failed + 1;
    violation acc "sssp-grid solve %d: distances differ from sequential Dijkstra" index
  end;
  let ops = total tstates (fun s -> s.inserts + s.deletes) in
  (* The rate counts the queue work a solve needs, one insert and one
     delete per node Dijkstra settles, so it is the inverse of the solve
     time: stale entries and extra settles make it lower, not higher. *)
  sample_rate acc ~traced ~ops:(2 * st.reference.Dijkstra.settled) ~cpu ~wall;
  sample_calls acc ~traced;
  add acc "sssp.iterations" (float_of_int stats.Sssp.iterations);
  add acc "sssp.stale" (float_of_int stats.Sssp.stale);
  add acc "sssp.extra" (float_of_int (stats.Sssp.iterations - st.reference.Dijkstra.settled));
  add acc "sssp.settled" (float_of_int st.reference.Dijkstra.settled);
  if traced then begin
    add_snapshot acc ((Option.get !queue).R.stats ());
    add acc "ops" (float_of_int ops)
  end
  else begin
    add acc "gc.minor_words" words;
    add acc "gc.majors" (float_of_int majors);
    add acc "gc.ops" (float_of_int ops)
  end;
  wall
