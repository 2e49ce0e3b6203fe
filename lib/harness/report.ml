(** Plain-text experiment reporting: aligned tables (the textual analogue
    of the paper's figures) and CSV export for external plotting. *)

let spf = Printf.sprintf

(** Pretty scientific-ish formatting for throughputs. *)
let human_float v =
  if Float.is_nan v then "nan"
  else if Float.abs v >= 1e6 then spf "%.2fM" (v /. 1e6)
  else if Float.abs v >= 1e3 then spf "%.2fk" (v /. 1e3)
  else spf "%.3g" v

(** Print an aligned table with a header row and a separator. *)
let table ?(out = stdout) ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> width.(i) <- max width.(i) (String.length cell))
        row)
    all;
  let print_row row =
    List.iteri
      (fun i cell ->
        let pad = String.make (width.(i) - String.length cell) ' ' in
        if i = 0 then Printf.fprintf out "%s%s" cell pad
        else Printf.fprintf out "  %s%s" pad cell)
      row;
    output_char out '\n'
  in
  print_row header;
  let sep =
    List.init (List.length header) (fun i -> String.make width.(i) '-')
  in
  print_row sep;
  List.iter print_row rows;
  flush out

(* Queue names such as [klsm-sharded(256,4)] hold a comma. *)
let csv ~path ~header rows =
  let oc = open_out path in
  let field f =
    if String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) f
    then "\"" ^ String.concat "\"\"" (String.split_on_char '"' f) ^ "\""
    else f
  in
  let line row =
    output_string oc (String.concat "," (List.map field row) ^ "\n")
  in
  line header;
  List.iter line rows;
  close_out oc

let section ?(out = stdout) title =
  Printf.fprintf out "\n== %s ==\n\n" title;
  flush out

(** Minimal JSON emitter for machine-readable benchmark output
    (BENCH_*.json files).  Numbers are emitted raw — callers pass the
    measured floats, not the [human_float]-formatted strings of the text
    tables — so downstream tooling can diff/plot without re-parsing. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let rec json_to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if not (Float.is_finite f) then
        (* nan/inf are not JSON *)
        Buffer.add_string buf "null"
      else Buffer.add_string buf (spf "%.12g" f)
  | String s ->
      Buffer.add_char buf '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\t' -> Buffer.add_string buf "\\t"
          | c when Char.code c < 0x20 ->
              Buffer.add_string buf (spf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          json_to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          json_to_buffer buf (String k);
          Buffer.add_char buf ':';
          json_to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 256 in
  json_to_buffer buf j;
  Buffer.contents buf

let write_json ~path j =
  let oc = open_out path in
  output_string oc (json_to_string j);
  output_char oc '\n';
  close_out oc
