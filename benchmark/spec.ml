(** The benchmark's vocabulary, read from [BENCHMARK.json] at the
    repository root: the workload names, the end-to-end metrics with their
    units, directions and regression bounds, and the per-layer metrics.
    The file is the only copy; a run reports exactly the metrics it
    names. *)

type metric = {
  name : string;
  unit_ : string;
  better : string;  (** ["higher"] or ["lower"] *)
  bound : float;  (** share of the base median; [nan] for per-layer metrics *)
}

type t = { workloads : string list; e2e : metric list; layers : metric list }

let load path =
  let spec = Json_in.read_file path in
  let entries key = List.map Json_in.to_obj (Json_in.to_list (Json_in.member key spec)) in
  let str fields k = Json_in.to_string (Json_in.member k (Klsm_harness.Report.Obj fields)) in
  let metric fields =
    {
      name = str fields "name";
      unit_ = str fields "unit";
      better = str fields "better";
      bound =
        (match List.assoc_opt "bound" fields with Some b -> Json_in.to_float b | None -> nan);
    }
  in
  {
    workloads = List.map (fun f -> str f "name") (entries "workloads");
    e2e = List.map metric (entries "end_to_end");
    layers = List.map metric (entries "per_layer");
  }

let find t name = List.find_opt (fun m -> m.name = name) (t.e2e @ t.layers)

let unit_of t name = match find t name with Some m -> m.unit_ | None -> "?"
