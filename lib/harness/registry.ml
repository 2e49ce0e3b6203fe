(** Uniform access to every priority queue in the repository.

    The experiment drivers (throughput, SSSP, quality) need to iterate over
    heterogeneous queue implementations; this module erases each queue's
    concrete types behind a pair of closures per thread handle.  Values are
    monomorphized to [int] (payload = node id for SSSP, ignored for the
    synthetic benchmarks), matching the paper's integer-key workloads.

    [spec] is the figure-legend-level description of an implementation,
    including its parameters (k for the k-LSM, c for Multi-Queues...), with
    a parser for the CLIs. *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Klsm = Klsm_core.Klsm.Make (B)
  module Spill = Klsm_store.Spill.Make (B)
  module Locked_heap = Klsm_baselines.Locked_heap.Make (B)
  module Linden = Klsm_baselines.Linden_pq.Make (B)
  module Spraylist = Klsm_baselines.Spraylist.Make (B)
  module Multiq = Klsm_baselines.Multiq.Make (B)
  module Wimmer_hybrid = Klsm_baselines.Wimmer_hybrid.Make (B)

  (** Durability-tier parameters parsed from the [+spill:<bytes>] /
      [+store:<dir>] spec suffixes (lib/store; docs/STORAGE.md). *)
  type store_cfg = {
    spill_bytes : int;  (** eviction threshold: serialized block size *)
    store_dir : string;  (** store root (objects + journal) *)
  }

  let default_store_dir = Filename.concat "_store" "default"
  let default_spill_bytes = 1 lsl 20

  (** Striping parameters of the k-LSM (lib/core/klsm.ml; DESIGN.md §12;
      docs/TUNING.md). *)
  type sharded_cfg = {
    k : int;  (** global relaxation budget *)
    shards : int;  (** stripe count S *)
  }

  type spec =
    | Heap_lock
    | Linden
    | Spraylist
    | Multiq of int  (** c: queues per thread *)
    | Klsm of int  (** k: the paper's queue, one stripe *)
    | Klsm_sharded of sharded_cfg  (** the same queue with S stripes *)
    | Dlsm
    | Wimmer_centralized
    | Wimmer_hybrid of int  (** k *)
    | Stored of spec * store_cfg
        (** a klsm/klsm-sharded with the lib/store durability tier *)

  (** The k-LSM configuration a spec builds — [Klsm k] is its S = 1 case,
      [Stored] the configuration underneath — or [None] for the other
      queues. *)
  let rec klsm_cfg = function
    | Klsm k -> Some { k; shards = 1 }
    | Klsm_sharded cfg -> Some cfg
    | Stored (inner, _) -> klsm_cfg inner
    | Heap_lock | Linden | Spraylist | Multiq _ | Dlsm | Wimmer_centralized
    | Wimmer_hybrid _ ->
        None

  (** The structural rank bound rho of [spec] on [threads] threads —
      {!Klsm_core.Klsm.rank_bound} for the k-LSMs, [T * k] for the hybrid
      k-queue, 0 for the exact queues — or [None] for the queues with no
      worst-case bound. *)
  let rank_bound ~threads spec =
    match (spec, klsm_cfg spec) with
    | _, Some c ->
        Some
          (Klsm_core.Klsm.rank_bound ~shards:c.shards ~threads ~k:c.k ())
    | Wimmer_hybrid k, _ -> Some (threads * k)
    | (Heap_lock | Linden | Wimmer_centralized), _ -> Some 0
    | (Spraylist | Multiq _ | Dlsm | Klsm _ | Klsm_sharded _ | Stored _), _ ->
        None

  (** [klsm_sharded k shards] is the spec [klsm-sharded:k:shards]. *)
  let klsm_sharded k shards = Klsm_sharded { k; shards }

  let rec spec_name = function
    | Heap_lock -> "heap+lock"
    | Linden -> "linden"
    | Spraylist -> "spraylist"
    | Multiq c -> Printf.sprintf "multiq(%d)" c
    | Klsm k -> Printf.sprintf "klsm(%d)" k
    | Klsm_sharded cfg -> Printf.sprintf "klsm-sharded(%d,%d)" cfg.k cfg.shards
    | Dlsm -> "dlsm"
    | Wimmer_centralized -> "centralized-k"
    | Wimmer_hybrid k -> Printf.sprintf "hybrid-k(%d)" k
    | Stored (inner, cfg) ->
        (* The store dir is deployment detail, not figure-legend identity. *)
        Printf.sprintf "%s+spill:%d" (spec_name inner) cfg.spill_bytes

  (* Parse a base spec (no [+spill]/[+store] suffixes; those are split off
     by {!parse_spec} below).  Error messages quote [s], the base part. *)
  let parse_base s =
    let base, arg =
      match String.index_opt s ':' with
      | None -> (s, None)
      | Some i ->
          (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
    in
    (* [int_param ~what ~default a] parses an optional non-negative
       integer parameter, [default] when absent; [with_arg] parses the
       spec's one parameter; [no_arg] rejects any parameter at all. *)
    let int_param ~what ~default a =
      match a with
      | None -> Ok default
      | Some a -> (
          match int_of_string_opt a with
          | Some v when v >= 0 -> Ok v
          | _ ->
              Error
                (Printf.sprintf
                   "%S: parameter %S is not a non-negative integer (%s)" s a
                   what))
    in
    let with_arg ~what ~default mk =
      Result.map mk (int_param ~what ~default arg)
    in
    let no_arg spec =
      match arg with
      | None -> Ok spec
      | Some a ->
          Error
            (Printf.sprintf "%S: %s takes no parameter, got %S" s
               (spec_name spec) a)
    in
    match String.lowercase_ascii base with
    | "heap" | "heap+lock" | "heaplock" -> no_arg Heap_lock
    | "linden" -> no_arg Linden
    | "spray" | "spraylist" -> no_arg Spraylist
    | "multiq" -> with_arg ~what:"c, queues per thread" ~default:2 (fun c -> Multiq c)
    | "klsm" -> with_arg ~what:"the relaxation k" ~default:256 (fun k -> Klsm k)
    | "klsm-sharded" | "sharded" -> (
        (* Up to two colon-separated integers: k, then the shard count S
           (defaults 256 and 4).  The budget constraints are
           Klsm.config_error's, the ones create_with enforces
           (docs/TUNING.md). *)
        let toks =
          match arg with None -> [] | Some a -> String.split_on_char ':' a
        in
        let positional i ~what ~default =
          int_param ~what ~default (List.nth_opt toks i)
        in
        match List.find_opt (fun tok -> String.contains tok '=') toks with
        | Some tok ->
            Error
              (Printf.sprintf
                 "%S: unknown parameter %S: klsm-sharded takes K and S only \
                  (the deletion buffer dbuf=B was removed; pull runs with \
                  try_delete_min_batch instead)"
                 s
                 (String.sub tok 0 (String.index tok '=')))
        | None when List.length toks > 2 ->
            Error
              (Printf.sprintf
                 "%S: unexpected third parameter %S (klsm-sharded takes K and \
                  S only)"
                 s (List.nth toks 2))
        | None -> (
            match
              ( positional 0 ~what:"the relaxation k" ~default:256,
                positional 1 ~what:"the shard count S, stripes" ~default:4 )
            with
            | Error e, _ | _, Error e -> Error e
            | Ok k, Ok shards -> (
                match Klsm_core.Klsm.config_error ~k ~shards with
                | Some e -> Error (Printf.sprintf "%S: %s" s e)
                | None -> Ok (klsm_sharded k shards))))
    | "dlsm" -> no_arg Dlsm
    | "centralized" | "centralized-k" -> no_arg Wimmer_centralized
    | "hybrid" | "hybrid-k" ->
        with_arg ~what:"the relaxation k" ~default:256 (fun k -> Wimmer_hybrid k)
    | _ ->
        Error
          (Printf.sprintf
             "unknown implementation %S; known: heap, linden, spray, \
              multiq[:C], klsm[:K], \
              klsm-sharded[:K[:S]], \
              dlsm, centralized, hybrid[:K]; klsm and klsm-sharded accept \
              +spill:<bytes> and +store:<dir> suffixes"
             s)

  (* "+spill:<bytes>": a non-negative size, optionally suffixed k/m/g
     (binary multiples — 64k = 65536). *)
  let parse_byte_size s a =
    let fail () =
      Error
        (Printf.sprintf
           "%S: %S is not a byte size (want a non-negative integer with an \
            optional k/m/g suffix, e.g. 4096, 64k, 1m)"
           s a)
    in
    let n = String.length a in
    if n = 0 then fail ()
    else begin
      let num, mult =
        match Char.lowercase_ascii a.[n - 1] with
        | 'k' -> (String.sub a 0 (n - 1), 1 lsl 10)
        | 'm' -> (String.sub a 0 (n - 1), 1 lsl 20)
        | 'g' -> (String.sub a 0 (n - 1), 1 lsl 30)
        | _ -> (a, 1)
      in
      match int_of_string_opt num with
      | Some v when v >= 0 -> Ok (v * mult)
      | _ -> fail ()
    end

  (* "+store:<dir>": existence is optional (created at [make] time), but a
     path that exists and is not a writable directory is a config error
     worth rejecting at parse time, before a benchmark spends its warmup. *)
  let parse_store_dir s a =
    if String.length a = 0 then
      Error (Printf.sprintf "%S: +store needs a directory, got an empty path" s)
    else if Sys.file_exists a then begin
      if not (Sys.is_directory a) then
        Error
          (Printf.sprintf "%S: store path %S exists and is not a directory" s a)
      else begin
        match Unix.access a [ Unix.W_OK; Unix.X_OK ] with
        | () -> Ok a
        | exception Unix.Unix_error _ ->
            Error
              (Printf.sprintf "%S: store directory %S is not writable" s a)
      end
    end
    else Ok a

  (** Parse ["klsm:256"], ["multiq:2"], ["hybrid:4096"], ["linden"], ...
      plus the durability suffixes ["klsm:256+spill:4096+store:/tmp/q"].
      Returns [Error msg] (not an option) so CLI typos are diagnosable: an
      unknown name, a malformed parameter, a parameter given to an
      implementation that takes none (["linden:4"]), a malformed byte size,
      or an unusable store directory are all rejected with a message naming
      the offending part. *)
  let parse_spec s =
    (* Split off +spill:/+store: suffixes; other '+'-joined tokens are part
       of the base name ("heap+lock"). *)
    let is_store_tok tok =
      let pre p =
        String.length tok >= String.length p
        && String.equal (String.sub tok 0 (String.length p)) p
      in
      pre "spill" || pre "store"
    in
    let toks = String.split_on_char '+' s in
    let base_toks, store_toks = List.partition (fun t -> not (is_store_tok t)) toks in
    let base = String.concat "+" base_toks in
    match parse_base base with
    | Error e -> Error e
    | Ok inner when store_toks = [] -> Ok inner
    | Ok inner -> (
        let cfg =
          List.fold_left
            (fun acc tok ->
              match acc with
              | Error _ -> acc
              | Ok (bytes, dir) -> (
                  match String.index_opt tok ':' with
                  | None ->
                      Error
                        (Printf.sprintf
                           "%S: suffix %S needs a parameter (+spill:<bytes> \
                            or +store:<dir>)"
                           s tok)
                  | Some i -> (
                      let key = String.sub tok 0 i in
                      let v =
                        String.sub tok (i + 1) (String.length tok - i - 1)
                      in
                      match key with
                      | "spill" -> (
                          match parse_byte_size s v with
                          | Ok b -> Ok (Some b, dir)
                          | Error e -> Error e)
                      | "store" -> (
                          match parse_store_dir s v with
                          | Ok d -> Ok (bytes, Some d)
                          | Error e -> Error e)
                      | _ ->
                          Error
                            (Printf.sprintf
                               "%S: unknown suffix %S (want +spill:<bytes> \
                                or +store:<dir>)"
                               s key))))
            (Ok (None, None))
            store_toks
        in
        match cfg with
        | Error e -> Error e
        | Ok (bytes, dir) -> (
            match inner with
            | Klsm _ | Klsm_sharded _ ->
                Ok
                  (Stored
                     ( inner,
                       {
                         spill_bytes =
                           Option.value ~default:default_spill_bytes bytes;
                         store_dir =
                           Option.value ~default:default_store_dir dir;
                       } ))
            | _ ->
                Error
                  (Printf.sprintf
                     "%S: +spill/+store apply only to klsm and klsm-sharded \
                      (%s keeps every item in RAM)"
                     s (spec_name inner))))

  (** [parse_spec_opt] is {!parse_spec} with errors collapsed to [None]. *)
  let parse_spec_opt s = Result.to_option (parse_spec s)

  (** The canonical spec grammar, one [(form, example)] row per accepted
      shape.  This list is the single source of truth for README.md's spec
      table: [bin/docscheck.ml] asserts every form string appears verbatim
      in the README and every example round-trips through {!parse_spec}
      (Makefile: [make docs-check]).  Extending the grammar without
      extending this list — or this list without the README — fails CI. *)
  let spec_forms =
    [
      ("heap+lock", "heap+lock");
      ("linden", "linden");
      ("spraylist", "spraylist");
      ("multiq[:C]", "multiq:2");
      (* One k-LSM: klsm:K is klsm-sharded:K:1. *)
      ("klsm[:K]", "klsm:256");
      ("klsm-sharded[:K[:S]]", "klsm-sharded:256:4");
      ("dlsm", "dlsm");
      ("centralized-k", "centralized-k");
      ("hybrid-k[:K]", "hybrid-k:256");
      ("+spill:<bytes>", "klsm:256+spill:64k");
      ("+store:<dir>", "klsm-sharded:256:4+store:_store/docs-check");
    ]

  (** Whether the implementation honours the queue-side lazy-deletion
      predicate of §4.5 (the paper's SSSP figure only includes such
      queues). *)
  let rec supports_lazy_deletion = function
    | Klsm _ | Klsm_sharded _ | Dlsm | Wimmer_centralized | Wimmer_hybrid _ ->
        true
    | Heap_lock | Linden | Spraylist | Multiq _ -> false
    | Stored (inner, _) -> supports_lazy_deletion inner

  type handle = {
    insert : int -> int -> unit;  (** key, payload *)
    insert_batch : (int * int) array -> unit;
        (** bulk path (Pq_intf.insert_batch); the k-LSM linearizes the whole
            batch as one shared-component update *)
    try_delete_min : unit -> (int * int) option;
    try_delete_min_batch : int -> (int * int) list;
        (** bulk delete path (Pq_intf.try_delete_min_batch): up to n items,
            in deletion order; the k-LSMs claim the run with a single CAS *)
  }

  type instance = {
    name : string;
    register : int -> handle;  (** tid -> per-thread handle *)
    approximate_size : unit -> int;
    stats : unit -> Klsm_obs.Obs.snapshot;
        (** internal-counter snapshot (Pq_intf.stats); empty unless
            observability was enabled before [make] ran (lib/obs) *)
  }

  (** The one adapter: erases a queue's types behind {!instance}'s
      closures.  [insert_batch] and [stats] replace the queue's own. *)
  module Adapt (Q : Klsm_core.Pq_intf.S) = struct
    let instance ?(insert_batch = Q.insert_batch) ?stats spec (q : int Q.t) =
      {
        name = spec_name spec;
        register =
          (fun tid ->
            let h = Q.register q tid in
            {
              insert = Q.insert h;
              insert_batch = insert_batch h;
              try_delete_min = (fun () -> Q.try_delete_min h);
              try_delete_min_batch = Q.try_delete_min_batch h;
            });
        approximate_size = (fun () -> Q.approximate_size q);
        stats = Option.value stats ~default:(fun () -> Q.stats q);
      }
  end

  module Locked_heap_a = Adapt (Locked_heap)
  module Linden_a = Adapt (Linden)
  module Spraylist_a = Adapt (Spraylist)
  module Multiq_a = Adapt (Multiq)
  module Klsm_a = Adapt (Klsm)
  module Wimmer_hybrid_a = Adapt (Wimmer_hybrid)

  (** Instantiate a [spec].  [should_delete]/[on_lazy_delete] are passed to
      the queues that support lazy deletion and ignored by the others. *)
  let make ?(seed = 1) ?should_delete ?on_lazy_delete ~num_threads spec =
    match spec with
    | Heap_lock ->
        Locked_heap_a.instance spec (Locked_heap.create ~num_threads ())
    | Wimmer_centralized ->
        (* Figure 4's centralized k-queue is the locked heap with the
           lazy-deletion pair (DESIGN.md §4). *)
        Locked_heap_a.instance spec
          (Locked_heap.create_with ?should_delete ?on_lazy_delete ~num_threads
             ())
    | Linden ->
        Linden_a.instance spec
          (Linden.create_with ~seed ~dummy:0 ~num_threads ())
    | Spraylist ->
        Spraylist_a.instance spec
          (Spraylist.create_with ~seed ~dummy:0 ~num_threads ())
    | Multiq c ->
        Multiq_a.instance spec (Multiq.create_with ~seed ~c ~num_threads ())
    | Wimmer_hybrid k ->
        Wimmer_hybrid_a.instance spec
          (Wimmer_hybrid.create_with ~seed ~k ?should_delete ?on_lazy_delete
             ~num_threads ())
    | Dlsm ->
        (* The standalone DLSM (§4.2) is the k-LSM whose spill threshold is
           never reached.  Its batch insert stays a loop of inserts:
           [Klsm.insert_batch] publishes one block to the home stripe, a
           shared component the DLSM does not have. *)
        Klsm_a.instance spec
          ~insert_batch:(fun h pairs ->
            Array.iter (fun (key, value) -> Klsm.insert h key value) pairs)
          (Klsm.create_with ~seed ~spill_max_level:max_int ?should_delete
             ?on_lazy_delete ~num_threads ())
    | Klsm _ | Klsm_sharded _ | Stored _ -> (
        (* Every k-LSM spec builds the one queue ([Klsm k] is its S = 1
           case).  [Stored] threads the durability tier (lib/store), a
           spill policy over a store rooted at its [store_dir], into the
           queue's publish paths; queue and store.* counters merge into
           one snapshot. *)
        match klsm_cfg spec with
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Registry.make: %s does not support the durability tier"
                 (spec_name spec))
        | Some { k; shards } ->
            let spill =
              match spec with
              | Stored (_, cfg) ->
                  Some
                    (Spill.create ~threshold:cfg.spill_bytes ~num_threads
                       ~root:cfg.store_dir ())
              | _ -> None
            in
            let q =
              Klsm.create_with ~seed ~k ~shards ?should_delete ?on_lazy_delete
                ?spill_policy:
                  (Option.map
                     (fun sp ~alive ~tid block ->
                       Spill.policy sp ~alive ~tid block)
                     spill)
                ~num_threads ()
            in
            let stats () =
              let a = Klsm.stats q in
              match spill with
              | None -> a
              | Some sp ->
                  let b = Spill.stats sp in
                  {
                    a with
                    Klsm_obs.Obs.counters =
                      a.Klsm_obs.Obs.counters @ b.Klsm_obs.Obs.counters;
                    spans = a.Klsm_obs.Obs.spans @ b.Klsm_obs.Obs.spans;
                  }
            in
            Klsm_a.instance ~stats spec q)

  (** The full Figure 3 line-up, with the paper's parameters. *)
  let figure3_specs =
    [
      Heap_lock;
      Linden;
      Spraylist;
      Multiq 2;
      Klsm 0;
      Klsm 4;
      Klsm 256;
      Klsm 4096;
      Dlsm;
    ]

  (** The Figure 4 (left) line-up at k = 256. *)
  let figure4_specs = [ Wimmer_centralized; Wimmer_hybrid 256; Klsm 256 ]
end
