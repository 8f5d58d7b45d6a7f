(** A minimal JSON tree, printer, and parser — just enough for the Chrome
    [trace_event] and metrics-JSONL exporters (and for the test suite to
    check the emitted files are well-formed) without pulling in a JSON
    dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- Printing ------------------------------------------------------------ *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to buf x =
  if Float.is_integer x && Float.abs x < 1e15 then
    (* integral values print without an exponent or trailing ".": friendlier
       to jq filters and trace viewers *)
    Buffer.add_string buf (Printf.sprintf "%.0f" x)
  else if Float.is_nan x || Float.abs x = Float.infinity then
    Buffer.add_string buf "null" (* nan/inf are not JSON *)
  else Buffer.add_string buf (Printf.sprintf "%.17g" x)

let rec add_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> float_to buf x
  | String s -> escape_to buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add_to buf v)
        l;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          add_to buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add_to buf v;
  Buffer.contents buf

(* ---- Accessors ----------------------------------------------------------- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float x -> Some x
  | _ -> None

(* ---- Parsing ------------------------------------------------------------- *)

exception Parse_error of string

(** Parse a JSON document. Returns [Error msg] on malformed input (including
    trailing garbage). Numbers parse as [Int] when integral, [Float]
    otherwise; \u escapes outside ASCII are replaced by '?' (the exporters
    above never emit them). *)
let of_string s : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
            if !pos >= n then fail "unterminated escape"
            else
              let e = s.[!pos] in
              advance ();
              match e with
              | '"' | '\\' | '/' -> Buffer.add_char buf e; go ()
              | 'n' -> Buffer.add_char buf '\n'; go ()
              | 't' -> Buffer.add_char buf '\t'; go ()
              | 'r' -> Buffer.add_char buf '\r'; go ()
              | 'b' -> Buffer.add_char buf '\b'; go ()
              | 'f' -> Buffer.add_char buf '\012'; go ()
              | 'u' ->
                  if !pos + 4 > n then fail "short \\u escape";
                  let hex = String.sub s !pos 4 in
                  pos := !pos + 4;
                  let code =
                    try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
                  in
                  Buffer.add_char buf (if code < 128 then Char.chr code else '?');
                  go ()
              | _ -> fail "bad escape")
        | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (elements [])
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
