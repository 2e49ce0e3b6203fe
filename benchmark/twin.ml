(** The simulator twin of a workload: the same queue code, with the
    workload's key shape and delete shape, on [T = 8] virtual threads of
    the deterministic simulator, with a sequential {!Klsm_harness.Oracle}
    kept in step.  It yields queue operations per virtual second, the
    virtual time of every insert and delete call, and the rank error of
    every deleted key, and it asserts the rank bound [rho = T * k] (plus
    [T] for inserts the oracle counts before the queue shows them).  The
    same seed gives the same numbers on any host: the oracle and the
    histograms touch no simulated atomic, so they cost no virtual time. *)

module S = Klsm_backend.Sim
module SR = Klsm_harness.Registry.Make (S)
module Oracle = Klsm_harness.Oracle
module Workload = Klsm_harness.Workload
module Xoshiro = Klsm_primitives.Xoshiro

let threads = 8

type result = {
  ops_per_s : float;
  seconds : float;  (** virtual seconds the timed phase took *)
  insert : Hist.t;  (** virtual ns per insert call *)
  delete : Hist.t;  (** virtual ns per delete call *)
  rank_err_mean : float;
  rank_err_max : int;
  deleted : int;
  rho : int;
}

(** Rank errors of the keys an oracle saw deleted. *)
type ranks = { oracle : Oracle.t; mutable sum : int; mutable max : int; mutable n : int }

let ranks ~universe = { oracle = Oracle.create ~universe; sum = 0; max = 0; n = 0 }

let note r key =
  let e = Oracle.delete r.oracle key in
  r.sum <- r.sum + e;
  if e > r.max then r.max <- e;
  r.n <- r.n + 1

(** Time [f ()] in virtual ns into [h]. *)
let timed h f =
  let t0 = S.time () in
  let r = f () in
  Hist.record h (int_of_float ((S.time () -. t0) *. 1e9));
  r

let result ~ops ~seconds ~insert ~delete ~k r =
  {
    ops_per_s = float_of_int ops /. seconds;
    seconds;
    insert;
    delete;
    rank_err_mean = (if r.n = 0 then 0. else float_of_int r.sum /. float_of_int r.n);
    rank_err_max = r.max;
    deleted = r.n;
    rho = (threads * k) + threads;
  }

(** Run [f] on a freshly seeded simulator with Obs off. *)
let on_sim ~seed f =
  let was = Klsm_obs.Obs.enabled () in
  Klsm_obs.Obs.set_enabled false;
  S.configure ~seed ~policy:S.Fair ();
  Fun.protect ~finally:(fun () -> Klsm_obs.Obs.set_enabled was) f

type cfg = {
  spec : string;  (** {!SR.parse_spec} form, without a store root *)
  store : bool;  (** append [+store:] with a root in the scratch directory *)
  k : int;
  keys : Workload.t;
  universe : int;  (** keys lie in [0, universe) *)
  prefill : int;
  ops_per_thread : int;
}

(** The twin of a 50/50 mix: [prefill] items spread over the threads,
    then [ops_per_thread] coin flips per thread between an insert and a
    delete-min.  Operations are inserts, returned items and empty
    deletes, per virtual second of the mix. *)
let run_mix ~seed ~scratch ~scale cfg =
  let dir = Filename.concat scratch "twin-store" in
  let spec =
    match SR.parse_spec (if cfg.store then cfg.spec ^ "+store:" ^ dir else cfg.spec) with
    | Ok s -> s
    | Error m -> invalid_arg m
  in
  on_sim ~seed @@ fun () ->
  let inst = SR.make ~seed ~num_threads:threads spec in
  let r = ranks ~universe:cfg.universe in
  let sized n = max 1 (int_of_float (float_of_int n *. scale)) in
  let prefill = sized cfg.prefill and ops = sized cfg.ops_per_thread in
  let handles = Array.make threads None in
  let gens = Common.key_sources cfg.keys ~seed ~threads in
  S.parallel_run ~num_threads:threads (fun tid ->
      let h = inst.SR.register tid in
      handles.(tid) <- Some h;
      for _ = 1 to (prefill / threads) + if tid < prefill mod threads then 1 else 0 do
        let key = gens.(tid) () in
        (* Oracle first: the item may become deletable part-way through
           the queue insert. *)
        Oracle.insert r.oracle key;
        h.SR.insert key 0
      done);
  let done_ops = ref 0 in
  let insert = Hist.create () and delete = Hist.create () in
  let t0 = S.time () in
  S.parallel_run ~num_threads:threads (fun tid ->
      let h = Option.get handles.(tid) in
      let coin = Xoshiro.create ~seed:(seed + 13 + (104729 * tid)) in
      for _ = 1 to ops do
        incr done_ops;
        if Xoshiro.bool coin then begin
          let key = gens.(tid) () in
          Oracle.insert r.oracle key;
          timed insert (fun () -> h.SR.insert key 0)
        end
        else Option.iter (fun (key, _) -> note r key) (timed delete h.SR.try_delete_min)
      done);
  let seconds = S.time () -. t0 in
  Common.rm_rf dir;
  Ok (result ~ops:!done_ops ~seconds ~insert ~delete ~k:cfg.k r)

module Sssp = Klsm_graph.Sssp.Make (S)
module Gen = Klsm_graph.Gen
module Graph = Klsm_graph.Graph
module Dijkstra = Klsm_graph.Dijkstra

(** The twin of [sssp-grid]: the same parallel SSSP with lazy deletion on
    [klsm:k], on a [side x side] grid whose weights stay below
    [max_weight] so every distance fits the oracle's key universe.  The
    oracle holds the live entries only: an entry leaves it when a shorter
    distance to its node supersedes it, so a delete-min returning a live
    entry is charged the number of live entries below it, and a stale one
    is charged nothing.  Queue operations count inserts and returned
    entries, per virtual second of the solve.  [Error] when the distances
    differ from Dijkstra's. *)
let run_sssp ~seed ~scale ~side ~max_weight ~k =
  let side = max 8 (int_of_float (float_of_int side *. sqrt scale)) in
  let graph = Gen.grid ~seed ~width:side ~height:side ~max_weight () in
  let reference = Dijkstra.run graph ~source:0 in
  on_sim ~seed @@ fun () ->
  let r = ranks ~universe:((max_weight * Graph.num_nodes graph) + 1) in
  let live = Array.make (Graph.num_nodes graph) (-1) in
  let ops = ref 0 in
  let insert = Hist.create () and delete = Hist.create () in
  let stats =
    Sssp.run graph ~source:0 ~num_threads:threads
      ~setup:(fun ~dist ~drop ->
        let inst =
          SR.make ~seed ~should_delete:(Sssp.should_delete_of dist) ~on_lazy_delete:drop
            ~num_threads:threads (SR.Klsm k)
        in
        fun tid ->
          let h = inst.SR.register tid in
          {
            Sssp.insert =
              (fun d v ->
                if live.(v) >= 0 then ignore (Oracle.delete r.oracle live.(v));
                live.(v) <- d;
                Oracle.insert r.oracle d;
                timed insert (fun () -> h.SR.insert d v);
                incr ops);
            try_delete_min =
              (fun () ->
                let got = timed delete h.SR.try_delete_min in
                (match got with
                | Some (d, v) ->
                    if live.(v) = d then begin
                      live.(v) <- -1;
                      note r d
                    end;
                    incr ops
                | None -> ());
                got);
          })
      ()
  in
  if Sssp.distances stats <> reference.Dijkstra.dist then
    Error "distances differ from sequential Dijkstra"
  else Ok (result ~ops:!ops ~seconds:stats.Sssp.wall ~insert ~delete ~k r)

module Sched = Sched_fibers.Make (S)

(** The twin of [sched-fibers]: phase A, the closed loop, of the same
    scheduler code on 8 virtual workers.  Queue operations are the items
    inserted and deleted, per virtual second of the phase.  [Error] when
    the task and fiber audit fails. *)
let run_sched ~seed ~scale ~roots =
  on_sim ~seed @@ fun () ->
  (* Child priorities are the root's plus at most [spawn_fanout]. *)
  let r = ranks ~universe:((1 lsl 20) + 8) in
  let acc = Common.create_acc () in
  let ts = Array.init threads (fun _ -> Common.fresh_tstate ()) in
  let roots = max 1 (int_of_float (float_of_int roots *. scale)) in
  let o =
    Sched.run acc ~name:"sched-fibers twin" ~ts ~seed ~traced:false
      ~on_insert:(Oracle.insert r.oracle) ~on_delete:(note r) (Sched_fibers.Closed roots)
  in
  let ops = Common.total ts (fun s -> s.Common.inserts + s.Common.deletes) in
  let insert = Hist.create () and delete = Hist.create () in
  Array.iter
    (fun s ->
      Hist.merge_into ~dst:insert s.Common.ins;
      Hist.merge_into ~dst:delete s.Common.del)
    ts;
  match acc.Common.violations with
  | [] -> Ok (result ~ops ~seconds:o.Sched_fibers.wall ~insert ~delete ~k:Sched_fibers.k r)
  | v -> Error (String.concat "; " v)

(** [pooled ~reps run] runs [run ~seed] for [reps] seeds derived from
    [seed] and pools the results: operations over the summed virtual
    time, call times and rank errors over all calls and deleted keys.
    Pooling several independent key streams (or graphs) keeps the
    seed-to-seed spread small. *)
let pooled ~seed ~reps run =
  let rec go r acc =
    if r = reps then Ok acc
    else
      match run ~seed:((seed * 1000) + r) with
      | Error e -> Error e
      | Ok x -> go (r + 1) (x :: acc)
  in
  match go 0 [] with
  | Error e -> Error e
  | Ok rs ->
      let sumf f = List.fold_left (fun a x -> a +. f x) 0. rs in
      let deleted = List.fold_left (fun a x -> a + x.deleted) 0 rs in
      let ops = sumf (fun x -> x.ops_per_s *. x.seconds) and secs = sumf (fun x -> x.seconds) in
      let merged pick =
        let h = Hist.create () in
        List.iter (fun x -> Hist.merge_into ~dst:h (pick x)) rs;
        h
      in
      Ok
        {
          ops_per_s = ops /. secs;
          seconds = secs;
          insert = merged (fun x -> x.insert);
          delete = merged (fun x -> x.delete);
          rank_err_mean =
            sumf (fun x -> x.rank_err_mean *. float_of_int x.deleted) /. float_of_int (max 1 deleted);
          rank_err_max = List.fold_left (fun a x -> max a x.rank_err_max) 0 rs;
          deleted;
          rho = (List.hd rs).rho;
        }
