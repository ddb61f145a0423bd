type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* End of the run of bytes from [i] that print as themselves inside a
   JSON string; such runs are copied whole. *)
let rec plain_end s i =
  if i = String.length s then i
  else
    match s.[i] with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> plain_end s (i + 1)

let escape buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    i := plain_end s start;
    if !i > start then Buffer.add_substring buf s start (!i - start);
    if !i < n then begin
      (match s.[!i] with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      incr i
    end
  done;
  Buffer.add_char buf '"'

(* JSON has no NaN/infinity; render them as null rather than emitting an
   unparsable document. The %.12g form round-trips every float the metrics
   pipeline produces while staying stable across runs of equal inputs. *)
let add_float buf f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
    Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else Buffer.add_string buf (Printf.sprintf "%.12g" f)

let rec write ~pretty buf level t =
  let indent n = if pretty then Buffer.add_string buf (String.make (2 * n) ' ') in
  let newline () = if pretty then Buffer.add_char buf '\n' in
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | Str s -> escape buf s
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr items ->
      Buffer.add_char buf '[';
      newline ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          indent (level + 1);
          write ~pretty buf (level + 1) item)
        items;
      newline ();
      indent level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      newline ();
      List.iteri
        (fun i (k, v) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          indent (level + 1);
          escape buf k;
          Buffer.add_string buf (if pretty then ": " else ":");
          write ~pretty buf (level + 1) v)
        fields;
      newline ();
      indent level;
      Buffer.add_char buf '}'

(* Roughly the encoded length of a value: enough that a document carrying
   one large string (a cube payload) is written without regrowing the
   buffer. Escapes are allowed one byte in eight. *)
let rec size_hint = function
  | Null | Bool _ | Int _ | Float _ -> 24
  | Str s -> String.length s + (String.length s lsr 3) + 2
  | Arr items -> List.fold_left (fun acc v -> acc + size_hint v + 8) 2 items
  | Obj fields ->
      List.fold_left
        (fun acc (k, v) -> acc + String.length k + size_hint v + 12)
        2 fields

let to_string ?(pretty = true) t =
  let buf = Buffer.create (size_hint t) in
  write ~pretty buf 0 t;
  if pretty then Buffer.add_char buf '\n';
  Buffer.contents buf

let to_file ?pretty path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ?pretty t))

(* --- parsing -------------------------------------------------------------- *)
(* The decoder side of the same dialect [write] emits: standard JSON with
   \uXXXX escapes decoded to UTF-8. Numbers without '.', 'e' or 'E' become
   [Int] (falling back to [Float] on overflow), everything else [Float] —
   the inverse of the encoder's integer/float split, so round-tripping a
   document preserves its constructors. Recursion depth is bounded so a
   hostile ["[[[[..."] frame is a typed error, not a stack overflow. *)

exception Parse_error of string

let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
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
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected %c, found %c" c got)
    | None -> fail (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let c = s.[!pos] in
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  (* Encode one code point as UTF-8 (the encoder only ever emits \u00XX,
     but accept the full basic multilingual plane on input). *)
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    (* sized from the distance to the next quote: exact for a string
       without escaped quotes *)
    let buf =
      Buffer.create
        (match String.index_from_opt s !pos '"' with
        | Some close -> max 16 (close - !pos)
        | None -> 16)
    in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
          advance ();
          Buffer.contents buf
      | '\\' ->
          advance ();
          (if !pos >= n then fail "truncated escape";
           let c = s.[!pos] in
           advance ();
           match c with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'u' -> add_utf8 buf (hex4 ())
           | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ()
      | c when Char.code c < 0x20 -> fail "unescaped control character"
      | _ ->
          let start = !pos in
          pos := plain_end s start;
          Buffer.add_substring buf s start (!pos - start);
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let consume () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') -> advance (); true
      | Some ('.' | 'e' | 'E') ->
          is_float := true;
          advance ();
          true
      | _ -> false
    in
    while consume () do () done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %s" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %s" text))
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ] in array"
          in
          Arr (items [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                List.rev (kv :: acc)
            | _ -> fail "expected , or } in object"
          in
          Obj (fields [])
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing bytes after document";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let string_member name t =
  match member name t with Some (Str s) -> Some s | _ -> None

let int_member name t =
  match member name t with Some (Int i) -> Some i | _ -> None

let bool_member name t =
  match member name t with Some (Bool b) -> Some b | _ -> None
