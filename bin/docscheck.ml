(* Documentation-drift gate (the `make docs-check` half of `make check`).

   Usage: docscheck README_MD METRICS_MD LIB_DIR CHAOS_MD TUNING_MD

   The repository's four documentation contracts that rot silently:

   - README.md carries the canonical queue-spec table.  Every spec form
     the Registry grammar accepts ([Registry.spec_forms] — the single
     source of truth the parser help text is built from) must appear in
     README.md in backticks, and every example attached to a form must
     actually parse.  Adding a grammar form without documenting it, or
     documenting a form the parser no longer accepts, fails the build.

   - docs/METRICS.md documents every observability name, in both
     directions.  statscheck already cross-checks the names EMITTED by
     the stats benchmark run; this check is stricter at the source level:
     it scans lib/ for [Obs.counter "..."] / [Obs.span "..."]
     declarations, so a counter that exists in code but never fires in
     the stats workload still has to be documented before it lands — and
     every [counter]/[span] row of the reference must name a declaration
     of that kind, so a row whose counter was deleted fails too.

   - docs/CHAOS.md's site catalogue, [Chaos.sites] and the
     [B.fault_point "..."] literals under lib/ are one set: a fault point
     the sweep cannot draw, a listed site no code reaches, or a row for
     either fails.  The catalogue's [vfs.*] rows must likewise be exactly
     [Chaos.io_sites] (the Faulty vfs's own sites, not fault points).

   - docs/TUNING.md diagnoses with counters: every backticked one-dot
     name [family.name] whose family is a counter family (the part before
     the dot of some [Obs.counter] declaration) must name a declared
     counter, so a diagnosis row citing a deleted counter fails.

   - Every [dune exec DIR/NAME.exe] that README.md or a .md file in
     METRICS_MD's directory (docs/) cites must name an existing
     DIR/NAME.ml, DIR taken from README.md's directory, so a command
     whose executable was deleted or renamed fails.

   Names are required in backticks (`like.this`) in the README and
   METRICS.md, as in statscheck, so an incidental prose mention does not
   count. *)

module Registry = Klsm_harness.Registry.Make (Klsm_backend.Real)
module Chaos = Klsm_chaos.Chaos
module S = Set.Make (String)

let errors = ref 0

let complain fmt =
  Printf.ksprintf
    (fun m ->
      incr errors;
      Printf.eprintf "docscheck: %s\n" m)
    fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Exact-substring search for `needle` (no regexp; the needles are
   backticked names and never contain metacharacters worth escaping). *)
let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  nl > 0 && scan 0

let backticked doc name = contains doc ("`" ^ name ^ "`")

(* ---------------- spec forms vs README ---------------- *)

let check_spec_forms readme =
  List.iter
    (fun (form, example) ->
      if not (backticked readme form) then
        complain "README.md is missing the spec form `%s` (Registry.spec_forms)"
          form;
      match Registry.parse_spec example with
      | Ok _ -> ()
      | Error m ->
          complain "spec_forms example %S for form `%s` does not parse: %s"
            example form m)
    Registry.spec_forms

(* ---------------- Obs declarations vs METRICS.md ---------------- *)

(* The string literals following each [token] in [source]: skip
   whitespace after the token and, when the next character opens a string
   literal, take it as the name (names never contain escapes).  A token
   followed by anything else — e.g. a computed name — is out of scope for
   a static check and skipped. *)
let literals_after token source =
  let names = ref [] in
  let tl = String.length token and sl = String.length source in
  let rec from i =
    if i + tl > sl then ()
    else if String.sub source i tl = token then begin
      let j = ref (i + tl) in
      while
        !j < sl
        && match source.[!j] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr j
      done;
      (if !j < sl && source.[!j] = '"' then
         match String.index_from_opt source (!j + 1) '"' with
         | Some close ->
             names := String.sub source (!j + 1) (close - !j - 1) :: !names
         | None -> ());
      from (i + tl)
    end
    else from (i + 1)
  in
  from 0;
  !names

(* (kind, name) of every [Obs.counter] / [Obs.span] declaration. *)
let obs_names_in source =
  List.map (fun n -> ("counter", n)) (literals_after "Obs.counter" source)
  @ List.map (fun n -> ("span", n)) (literals_after "Obs.span" source)

let rec ml_files_under dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then ml_files_under path
         else if Filename.check_suffix entry ".ml" then [ path ]
         else [])

(* The cells of every markdown table row ("| a | b |" -> ["a"; "b"]). *)
let table_rows lines =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if String.length line > 1 && line.[0] = '|' then
        match String.split_on_char '|' line with
        | _ :: cells ->
            Some
              (List.filteri
                 (fun i _ -> i < List.length cells - 1)
                 (List.map String.trim cells))
        | [] -> None
      else None)
    lines

(* A cell holding exactly one backticked name. *)
let backticked_cell cell =
  let n = String.length cell in
  if n > 2 && cell.[0] = '`' && cell.[n - 1] = '`' then
    Some (String.sub cell 1 (n - 2))
  else None

let check_obs_names metrics_path lib_dir =
  let metrics = read_file metrics_path in
  let declared = Hashtbl.create 97 in
  let total = ref 0 in
  List.iter
    (fun path ->
      List.iter
        (fun ((_, name) as decl) ->
          if not (Hashtbl.mem declared decl) then begin
            Hashtbl.add declared decl ();
            incr total;
            if not (backticked metrics name) then
              complain "%s declares `%s` but %s does not document it" path name
                metrics_path
          end)
        (obs_names_in (read_file path)))
    (List.sort compare (ml_files_under lib_dir));
  if !total = 0 then
    complain "no Obs.counter/Obs.span declarations found under %s (scan broken?)"
      lib_dir;
  (* The reverse direction: every counter/span row names a declaration of
     that kind. *)
  let rows = ref 0 in
  List.iter
    (function
      | name_cell :: (("counter" | "span") as kind) :: _ -> (
          match backticked_cell name_cell with
          | Some name ->
              incr rows;
              if not (Hashtbl.mem declared (kind, name)) then
                complain "%s documents %s `%s` but no Obs.%s under %s declares it"
                  metrics_path kind name kind lib_dir
          | None -> ())
      | _ -> ())
    (table_rows (String.split_on_char '\n' metrics));
  (!total, !rows, declared)

(* ---------------- counter names in TUNING.md ---------------- *)

(* The backticked one-dot names (`family.name`) in [doc]: the text
   between two backticks is a candidate, and prose between two code spans
   never is one, since it holds spaces. *)
let one_dot_names doc =
  let is_name_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  String.split_on_char '`' doc
  |> List.filter (fun name ->
         match String.split_on_char '.' name with
         | [ family; rest ] ->
             family <> "" && rest <> ""
             && String.for_all is_name_char (family ^ rest)
         | _ -> false)
  |> S.of_list

let family name = List.hd (String.split_on_char '.' name)

let check_tuning tuning_path lib_dir declared =
  let counters =
    Hashtbl.fold
      (fun (kind, name) () acc -> if kind = "counter" then S.add name acc else acc)
      declared S.empty
  in
  let families = S.map family counters in
  let cited =
    S.filter
      (fun name -> S.mem (family name) families)
      (one_dot_names (read_file tuning_path))
  in
  S.iter
    (fun name ->
      if not (S.mem name counters) then
        complain "%s cites counter `%s` but no Obs.counter under %s declares it"
          tuning_path name lib_dir)
    cited;
  S.cardinal cited

(* ---------------- fault sites vs Chaos.sites vs CHAOS.md ---------------- *)

(* The names in the first column of the "## Fault-point site catalogue"
   section's table. *)
let catalogue_sites chaos_md =
  let heading = "## Fault-point site catalogue" in
  let rec find = function
    | [] ->
        complain "%s has no %S section" chaos_md heading;
        []
    | line :: rest when String.trim line = heading -> section rest
    | _ :: rest -> find rest
  and section = function
    | line :: _ when String.starts_with ~prefix:"## " line -> []
    | line :: rest -> line :: section rest
    | [] -> []
  in
  String.split_on_char '\n' (read_file chaos_md)
  |> find |> table_rows
  |> List.filter_map (function cell :: _ -> backticked_cell cell | [] -> None)

let check_sites chaos_md lib_dir =
  let literals =
    List.concat_map
      (fun path -> literals_after "fault_point" (read_file path))
      (ml_files_under lib_dir)
    |> S.of_list
  in
  let rows = catalogue_sites chaos_md in
  let io_rows, site_rows = List.partition Chaos.is_io_site rows in
  let site_rows = S.of_list site_rows and io_rows = S.of_list io_rows in
  let sites = S.of_list Chaos.sites and io_sites = S.of_list Chaos.io_sites in
  let differ what a a_name b b_name =
    S.iter
      (fun s -> complain "%s: `%s` is in %s but not in %s" what s a_name b_name)
      (S.diff a b);
    S.iter
      (fun s -> complain "%s: `%s` is in %s but not in %s" what s b_name a_name)
      (S.diff b a)
  in
  let fp = Printf.sprintf "fault_point literals under %s" lib_dir in
  differ "fault sites" sites "Chaos.sites" literals fp;
  differ "fault sites" sites "Chaos.sites" site_rows chaos_md;
  differ "vfs sites" io_sites "Chaos.io_sites" io_rows chaos_md;
  (S.cardinal sites, S.cardinal literals, S.cardinal site_rows)

(* ---------------- cited executables ---------------- *)

(* The word after each "dune exec " in [doc] that ends in ".exe". *)
let exec_citations doc =
  let token = "dune exec " in
  let tl = String.length token and dl = String.length doc in
  let rec from i acc =
    if i + tl > dl then List.rev acc
    else if String.sub doc i tl = token then begin
      let j = i + tl in
      let k = ref j in
      while
        !k < dl
        && match doc.[!k] with
           | ' ' | '\t' | '\n' | '\r' | '`' | '"' | '\'' | ')' -> false
           | _ -> true
      do
        incr k
      done;
      let word = String.sub doc j (!k - j) in
      from !k (if Filename.check_suffix word ".exe" then word :: acc else acc)
    end
    else from (i + 1) acc
  in
  from 0 []

let check_exec_citations readme_path metrics_path =
  let root = Filename.dirname readme_path in
  let docs_dir = Filename.dirname metrics_path in
  let docs =
    readme_path
    :: (Sys.readdir docs_dir |> Array.to_list |> List.sort compare
       |> List.filter (fun f -> Filename.check_suffix f ".md")
       |> List.map (Filename.concat docs_dir))
  in
  List.fold_left
    (fun n doc ->
      let cited = exec_citations (read_file doc) in
      List.iter
        (fun exe ->
          let source = Filename.chop_suffix exe ".exe" ^ ".ml" in
          if not (Sys.file_exists (Filename.concat root source)) then
            complain "%s cites `dune exec %s` but there is no %s" doc exe
              source)
        cited;
      n + List.length cited)
    0 docs

let () =
  let readme_path, metrics_path, lib_dir, chaos_path, tuning_path =
    match Sys.argv with
    | [| _; a; b; c; d; e |] -> (a, b, c, d, e)
    | _ ->
        prerr_endline
          "usage: docscheck README.md docs/METRICS.md lib docs/CHAOS.md \
           docs/TUNING.md";
        exit 2
  in
  match
    let readme = read_file readme_path in
    check_spec_forms readme;
    let decls, rows, declared = check_obs_names metrics_path lib_dir in
    let sites = check_sites chaos_path lib_dir in
    let cited = check_tuning tuning_path lib_dir declared in
    (decls, rows, sites, cited, check_exec_citations readme_path metrics_path)
  with
  | exception Sys_error msg ->
      Printf.eprintf "docscheck: %s\n" msg;
      exit 1
  | decls, rows, (sites, literals, site_rows), cited, execs ->
      if !errors > 0 then begin
        Printf.eprintf "docscheck: %d problem(s)\n" !errors;
        exit 1
      end;
      Printf.printf
        "docscheck: OK (%d spec forms in %s; %d obs declarations, %d \
         counter/span rows in %s; %d Chaos.sites, %d fault_point literals, \
         %d site rows in %s; %d counter names in %s; %d cited executables)\n"
        (List.length Registry.spec_forms)
        readme_path decls rows metrics_path sites literals site_rows chaos_path
        cited tuning_path execs
