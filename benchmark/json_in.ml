(** A small JSON reader for the files this benchmark reads back:
    [BENCHMARK.json] and the result files of [--json].  Produces
    {!Klsm_harness.Report.json}, the type the writer already uses; every
    number becomes [Float]. *)

module J = Klsm_harness.Report

exception Error of string

let parse (s : string) : J.json =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Error (Printf.sprintf "JSON: %s at byte %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then fail (Printf.sprintf "expected %C" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 128 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?'
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> J.Float f
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then (
          incr pos;
          J.Obj [])
        else
          let rec fields acc =
            let k = string () in
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                skip ();
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                J.Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then (
          incr pos;
          J.List [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                J.List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | '"' -> J.String (string ())
    | 't' -> literal "true" (J.Bool true)
    | 'f' -> literal "false" (J.Bool false)
    | 'n' -> literal "null" J.Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing data";
  v

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

let member k = function
  | J.Obj fields -> ( match List.assoc_opt k fields with Some v -> v | None -> J.Null)
  | _ -> J.Null

let to_string = function J.String s -> s | _ -> raise (Error "expected a string")

let to_float = function
  | J.Float f -> f
  | J.Int i -> float_of_int i
  | _ -> raise (Error "expected a number")

let to_list = function J.List l -> l | _ -> raise (Error "expected an array")
let to_obj = function J.Obj l -> l | _ -> raise (Error "expected an object")
