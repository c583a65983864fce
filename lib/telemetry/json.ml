type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

let escape buf s =
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

(* Fixed-format floats so emitted documents are byte-stable across runs:
   trailing-zero trimming would make 1.50 vs 1.5 depend on the value. *)
let add_float buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else Buffer.add_string buf (Printf.sprintf "%.3f" f)

let rec add buf ~indent ~level v =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let sep_open, sep_item, sep_close =
    if indent then ("\n", ",\n", "\n") else ("", ", ", "")
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | Str s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      Buffer.add_string buf sep_open;
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf sep_item;
          pad (level + 1);
          add buf ~indent ~level:(level + 1) item)
        items;
      Buffer.add_string buf sep_close;
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      Buffer.add_string buf sep_open;
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf sep_item;
          pad (level + 1);
          escape buf k;
          Buffer.add_string buf ": ";
          add buf ~indent ~level:(level + 1) item)
        fields;
      Buffer.add_string buf sep_close;
      pad level;
      Buffer.add_char buf '}'

let to_string ?(indent = true) v =
  let buf = Buffer.create 1024 in
  add buf ~indent ~level:0 v;
  if indent then Buffer.add_char buf '\n';
  Buffer.contents buf

let write_file path v =
  let oc = open_out path in
  output_string oc (to_string v);
  close_out oc

(* --- validator ------------------------------------------------------- *)

(* A deliberately small recursive-descent parser: its only job is to let the
   test suite and CI check that emitted documents (including multi-megabyte
   Chrome traces) are well-formed JSON without adding a dependency. *)

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (!pos, msg)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some (('"' | '\\' | '/') as c) ->
              Buffer.add_char buf c;
              advance ();
              go ()
          | Some ('b' | 'f' | 'n' | 'r' | 't') ->
              (match peek () with
              | Some 'b' -> Buffer.add_char buf '\b'
              | Some 'f' -> Buffer.add_char buf '\012'
              | Some 'n' -> Buffer.add_char buf '\n'
              | Some 'r' -> Buffer.add_char buf '\r'
              | _ -> Buffer.add_char buf '\t');
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              let code = ref 0 in
              for _ = 1 to 4 do
                match peek () with
                | Some (('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') as c) ->
                    let d =
                      match c with
                      | '0' .. '9' -> Char.code c - Char.code '0'
                      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                      | _ -> Char.code c - Char.code 'A' + 10
                    in
                    code := (!code * 16) + d;
                    advance ()
                | _ -> fail "bad \\u escape"
              done;
              (* decode to UTF-8; the emitter only produces \u for control
                 chars, but accept the whole BMP *)
              let cp = !code in
              if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
              else if cp < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
                Buffer.add_char buf
                  (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
              end;
              go ()
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let digits () =
      let had = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
            had := true;
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      if not !had then fail "expected digit"
    in
    if peek () = Some '-' then advance ();
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
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
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (p, msg) -> Error (Printf.sprintf "offset %d: %s" p msg)

(* A file that cannot be read reports its reason without the path, as a
   parse error does, since every caller names the file itself; [open]'s
   [Sys_error] message starts with the path, a read's does not. *)
let parse_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> parse s
  | exception Sys_error e ->
      let prefix = path ^ ": " in
      Error
        (if String.starts_with ~prefix e then
           String.sub e (String.length prefix)
             (String.length e - String.length prefix)
         else e)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None
