(** Rank-error quality experiment (ablation A1 in DESIGN.md).

    The paper proves rho = T*k but reports quality only indirectly (the
    SSSP "+iterations" numbers).  This driver measures it directly: under
    the simulator, every completed operation also updates a sequential
    {!Oracle}, and each delete-min records how many strictly smaller keys
    were still present — its rank error.  The empirical maximum must stay
    within rho + slack, and the mean shows the quality/throughput trade as
    k grows.

    With [batch = n > 1] a delete is a pull instead: up to [n] keys with
    one [try_delete_min_batch], the way the scheduler's workers pull
    tasks, while an insert still inserts one key — so the queue drains
    about [n] times faster than it fills, and the prefill must cover the
    run.  A pull's keys reach the oracle only when the call returns, so up
    to [T * n] keys other threads already took may still count as
    present: the slack is [T * n] instead of [T].

    Only meaningful on the [Sim] backend (the oracle is sequential and
    relies on the simulator's single-domain cooperative execution). *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Registry = Registry.Make (B)
  module Xoshiro = Klsm_primitives.Xoshiro
  module Stats = Klsm_primitives.Stats

  type config = {
    num_threads : int;
    prefill : int;
    ops_per_thread : int;
    key_range : int;
    seed : int;
    batch : int;
        (** keys per delete: 1 = [try_delete_min]; [n > 1] = one pull of
            up to [n] ([try_delete_min_batch]) *)
  }

  let default_config =
    {
      num_threads = 8;
      prefill = 20_000;
      ops_per_thread = 5_000;
      key_range = 1 lsl 18;
      seed = 42;
      batch = 1;
    }

  type result = {
    spec : Registry.spec;
    deletes : int;
    mean_rank_error : float;
    p99_rank_error : float;
    max_rank_error : int;
  }

  let run config spec =
    let t = config.num_threads in
    let instance = Registry.make ~seed:config.seed ~num_threads:t spec in
    let oracle = Oracle.create ~universe:config.key_range in
    let errors = ref [] in
    let handles = Array.make t None in
    B.parallel_run ~num_threads:t (fun tid ->
        let h = instance.register tid in
        handles.(tid) <- Some h;
        let rng = Xoshiro.create ~seed:(config.seed + (7919 * tid)) in
        let share = config.prefill / t in
        for _ = 1 to share do
          let key = Xoshiro.int rng config.key_range in
          (* Oracle first: an item becomes visible (and deletable by other
             fibers) part-way through the queue insert, so the oracle must
             already know it.  The oracle thus over-approximates the
             contents by at most T in-flight items — a <= T skew on
             measured rank errors. *)
          Oracle.insert oracle key;
          h.Registry.insert key 0
        done);
    B.parallel_run ~num_threads:t (fun tid ->
        let h = match handles.(tid) with Some h -> h | None -> assert false in
        let rng = Xoshiro.create ~seed:(config.seed + 13 + (104729 * tid)) in
        let note (key, _) = errors := Oracle.delete oracle key :: !errors in
        for _ = 1 to config.ops_per_thread do
          if Xoshiro.bool rng then begin
            let key = Xoshiro.int rng config.key_range in
            Oracle.insert oracle key;
            h.Registry.insert key 0
          end
          else if config.batch <= 1 then
            Option.iter note (h.Registry.try_delete_min ())
          else List.iter note (h.Registry.try_delete_min_batch config.batch)
        done);
    let errs = Array.of_list (List.rev_map float_of_int !errors) in
    if Array.length errs = 0 then
      { spec; deletes = 0; mean_rank_error = 0.; p99_rank_error = 0.; max_rank_error = 0 }
    else
      {
        spec;
        deletes = Array.length errs;
        mean_rank_error = Stats.mean errs;
        p99_rank_error = Stats.percentile errs 99.;
        max_rank_error = int_of_float (Array.fold_left Float.max 0. errs);
      }
end
