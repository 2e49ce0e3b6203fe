(** Plain-text experiment reporting: aligned tables (the textual analogue
    of the paper's figures) and CSV export for external plotting. *)

val human_float : float -> string
(** "2.50M", "3.20k", "12" — compact throughput formatting. *)

val table : ?out:out_channel -> header:string list -> string list list -> unit
(** Print an aligned table (first column left-aligned, rest right) with a
    dash separator under the header. *)

val csv : path:string -> header:string list -> string list list -> unit
(** Write header + rows as comma-separated lines (RFC 4180): a field
    holding a comma, a double quote or a line break is quoted, with its
    quotes doubled. *)

val section : ?out:out_channel -> string -> unit
(** Print a "== title ==" banner. *)

(** Machine-readable output (the BENCH_*.json files).  Callers build the
    value from the raw measured numbers — not the [human_float]-formatted
    table strings — so downstream tooling can plot/diff without
    re-parsing. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val json_to_string : json -> string
(** Compact (single-line) serialization.  Non-finite floats become
    [null]. *)

val write_json : path:string -> json -> unit
(** [json_to_string] plus a trailing newline, written to [path]. *)
