type error = { line : int; column : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "XML parse error at %d:%d: %s" e.line e.column e.message

(* Hostile-input limits. [element] recurses through [content], so an
   unbounded document depth is an unbounded native stack — a crafted
   100k-deep document would kill the process with Stack_overflow before
   any typed error could be produced. The limits turn every such resource
   exhaustion into an ordinary parse error. *)
type limits = {
  max_depth : int;
  max_nodes : int;
  max_attr_len : int;
  max_text_len : int;
}

let default_limits =
  {
    max_depth = 10_000;
    max_nodes = 50_000_000;
    max_attr_len = 1_000_000;
    max_text_len = 50_000_000;
  }

exception Fail of int * string
(* position, message — positions are turned into line/column on exit *)

type state = {
  src : string;
  mutable pos : int;
  limits : limits;
  mutable depth : int;
  mutable nodes : int;
}

let fail st msg = raise (Fail (st.pos, msg))

let count_node st =
  st.nodes <- st.nodes + 1;
  if st.nodes > st.limits.max_nodes then
    fail st
      (Printf.sprintf "document exceeds the %d-node limit" st.limits.max_nodes)
let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st = st.pos <- st.pos + 1
let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let looking_at st prefix =
  let n = String.length prefix in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = prefix

let expect st prefix =
  if looking_at st prefix then st.pos <- st.pos + String.length prefix
  else fail st (Printf.sprintf "expected %S" prefix)

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | c -> Char.code c >= 0x80 (* permissive for UTF-8 names *)

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let name st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* Resolves [&...;] starting at the '&'. *)
let reference st =
  expect st "&";
  if peek st = '#' then begin
    advance st;
    let hex = peek st = 'x' || peek st = 'X' in
    if hex then advance st;
    let start = st.pos in
    let is_digit c =
      if hex then
        (c >= '0' && c <= '9')
        || (c >= 'a' && c <= 'f')
        || (c >= 'A' && c <= 'F')
      else c >= '0' && c <= '9'
    in
    while is_digit (peek st) do
      advance st
    done;
    if st.pos = start then fail st "empty character reference";
    let digits = String.sub st.src start (st.pos - start) in
    expect st ";";
    let code =
      try int_of_string (if hex then "0x" ^ digits else digits)
      with Failure _ -> fail st "character reference out of range"
    in
    match Escape.utf8_of_code_point code with
    | s -> s
    | exception Invalid_argument _ ->
        fail st (Printf.sprintf "invalid character reference &#%s;" digits)
  end
  else begin
    let n = name st in
    expect st ";";
    match Escape.resolve_entity n with
    | Some s -> s
    | None -> fail st (Printf.sprintf "undefined entity &%s;" n)
  end

let attribute_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected a quoted value";
  advance st;
  let buf = Buffer.create 16 in
  let rec loop () =
    if Buffer.length buf > st.limits.max_attr_len then
      fail st
        (Printf.sprintf "attribute value exceeds the %d-byte limit"
           st.limits.max_attr_len)
    else if eof st then fail st "unterminated attribute value"
    else if peek st = quote then advance st
    else if peek st = '&' then begin
      Buffer.add_string buf (reference st);
      loop ()
    end
    else if peek st = '<' then fail st "'<' in attribute value"
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      loop ()
    end
  in
  loop ();
  Buffer.contents buf

let attributes st =
  let rec loop acc =
    skip_space st;
    if is_name_start (peek st) then begin
      let attr_name = name st in
      skip_space st;
      expect st "=";
      skip_space st;
      let attr_value = attribute_value st in
      loop ({ Tree.attr_name; attr_value } :: acc)
    end
    else List.rev acc
  in
  loop []

let comment st =
  expect st "<!--";
  match Str_search.find st.src ~start:st.pos "-->" with
  | Some i ->
      let body = String.sub st.src st.pos (i - st.pos) in
      st.pos <- i + 3;
      Tree.Comment body
  | None -> fail st "unterminated comment"

let cdata st =
  expect st "<![CDATA[";
  match Str_search.find st.src ~start:st.pos "]]>" with
  | Some i ->
      if i - st.pos > st.limits.max_text_len then
        fail st
          (Printf.sprintf "CDATA section exceeds the %d-byte limit"
             st.limits.max_text_len);
      let body = String.sub st.src st.pos (i - st.pos) in
      st.pos <- i + 3;
      Tree.Text body
  | None -> fail st "unterminated CDATA section"

let processing_instruction st =
  expect st "<?";
  let target = name st in
  skip_space st;
  match Str_search.find st.src ~start:st.pos "?>" with
  | Some i ->
      let body = String.sub st.src st.pos (i - st.pos) in
      st.pos <- i + 2;
      (target, body)
  | None -> fail st "unterminated processing instruction"

(* Character data up to the next markup; coalesced into one Text node. *)
let char_data st =
  let buf = Buffer.create 32 in
  let rec loop () =
    if Buffer.length buf > st.limits.max_text_len then
      fail st
        (Printf.sprintf "text node exceeds the %d-byte limit"
           st.limits.max_text_len)
    else if eof st || peek st = '<' then ()
    else if peek st = '&' then begin
      Buffer.add_string buf (reference st);
      loop ()
    end
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      loop ()
    end
  in
  loop ();
  Buffer.contents buf

let rec element st =
  expect st "<";
  st.depth <- st.depth + 1;
  if st.depth > st.limits.max_depth then
    fail st
      (Printf.sprintf "document exceeds the %d-level nesting limit"
         st.limits.max_depth);
  count_node st;
  let tag = name st in
  let attrs = attributes st in
  skip_space st;
  if looking_at st "/>" then begin
    expect st "/>";
    st.depth <- st.depth - 1;
    { Tree.name = tag; attributes = attrs; children = [] }
  end
  else begin
    expect st ">";
    let children = content st in
    expect st "</";
    let closing = name st in
    if not (String.equal closing tag) then
      fail st
        (Printf.sprintf "mismatched closing tag </%s> for <%s>" closing tag);
    skip_space st;
    expect st ">";
    st.depth <- st.depth - 1;
    { Tree.name = tag; attributes = attrs; children }
  end

and content st =
  let rec loop acc =
    if eof st then List.rev acc
    else if looking_at st "</" then List.rev acc
    else if looking_at st "<!--" then begin
      count_node st;
      loop (comment st :: acc)
    end
    else if looking_at st "<![CDATA[" then begin
      count_node st;
      loop (cdata st :: acc)
    end
    else if looking_at st "<?" then begin
      count_node st;
      let target, body = processing_instruction st in
      loop (Tree.Pi (target, body) :: acc)
    end
    else if peek st = '<' then loop (Tree.Element (element st) :: acc)
    else begin
      let data = char_data st in
      if String.length data = 0 then List.rev acc
      else begin
        count_node st;
        loop (Tree.Text data :: acc)
      end
    end
  in
  loop []

(* <?xml version="1.0" encoding="..."?> *)
let xml_declaration st =
  if
    looking_at st "<?xml"
    && st.pos + 5 < String.length st.src
    && is_space st.src.[st.pos + 5]
  then begin
    let _, body = processing_instruction st in
    let find_pseudo_attr key =
      (* version="1.0" inside the declaration body *)
      match Str_search.find body ~start:0 key with
      | None -> None
      | Some i -> (
          let rest = String.sub body i (String.length body - i) in
          match String.index_opt rest '"' with
          | None -> (
              match String.index_opt rest '\'' with
              | None -> None
              | Some q -> (
                  let tail =
                    String.sub rest (q + 1) (String.length rest - q - 1)
                  in
                  match String.index_opt tail '\'' with
                  | None -> None
                  | Some e -> Some (String.sub tail 0 e)))
          | Some q -> (
              let tail = String.sub rest (q + 1) (String.length rest - q - 1) in
              match String.index_opt tail '"' with
              | None -> None
              | Some e -> Some (String.sub tail 0 e)))
    in
    (find_pseudo_attr "version", find_pseudo_attr "encoding")
  end
  else (None, None)

(* <!DOCTYPE root SYSTEM "..."> or <!DOCTYPE root [ subset ]> *)
let doctype st =
  if not (looking_at st "<!DOCTYPE") then (None, None, None)
  else begin
    expect st "<!DOCTYPE";
    skip_space st;
    let root = name st in
    skip_space st;
    (* External id: SYSTEM "..." | PUBLIC "..." "..." — the system literal
       is kept so file-based parsing can resolve it. *)
    let system_id =
      if looking_at st "SYSTEM" then begin
        expect st "SYSTEM";
        skip_space st;
        Some (attribute_value st)
      end
      else if looking_at st "PUBLIC" then begin
        expect st "PUBLIC";
        skip_space st;
        ignore (attribute_value st);
        skip_space st;
        Some (attribute_value st)
      end
      else None
    in
    skip_space st;
    let subset =
      if peek st = '[' then begin
        advance st;
        match String.index_from_opt st.src st.pos ']' with
        | Some i ->
            let body = String.sub st.src st.pos (i - st.pos) in
            st.pos <- i + 1;
            Some body
        | None -> fail st "unterminated DOCTYPE internal subset"
      end
      else None
    in
    skip_space st;
    expect st ">";
    (Some root, system_id, subset)
  end

let misc st =
  (* Comments, PIs and whitespace allowed around the root element. *)
  let rec loop () =
    skip_space st;
    if looking_at st "<!--" then begin
      ignore (comment st);
      loop ()
    end
    else if looking_at st "<?" then begin
      ignore (processing_instruction st);
      loop ()
    end
  in
  loop ()

let position_of_offset src pos =
  let line = ref 1 and column = ref 1 in
  for i = 0 to min pos (String.length src) - 1 do
    if src.[i] = '\n' then begin
      incr line;
      column := 1
    end
    else incr column
  done;
  (!line, !column)

let run ?(limits = default_limits) src f =
  let st = { src; pos = 0; limits; depth = 0; nodes = 0 } in
  match f st with
  | v -> Ok v
  | exception Fail (pos, message) ->
      let line, column = position_of_offset src pos in
      Error { line; column; message }

let parse_document st =
  let version, encoding = xml_declaration st in
  misc st;
  let declared_root, system_id, subset = doctype st in
  misc st;
  if not (peek st = '<' && is_name_start (peek2 st)) then
    fail st "expected the root element";
  let root = element st in
  misc st;
  if not (eof st) then fail st "trailing content after the root element";
  let dtd =
    match subset with
    | None -> None
    | Some body -> (
        match Dtd.parse ?declared_root body with
        | Ok d -> Some d
        | Error msg -> fail st msg)
  in
  ({ Tree.version; encoding; doctype = declared_root; root }, dtd, system_id)

let parse_with_dtd ?limits src =
  Result.map
    (fun (doc, dtd, _system) -> (doc, dtd))
    (run ?limits src parse_document)

let parse ?limits src = Result.map fst (parse_with_dtd ?limits src)

let parse_fragment ?limits src =
  run ?limits src (fun st ->
      let nodes = content st in
      if not (eof st) then fail st "unexpected closing tag";
      nodes)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Resolve a SYSTEM identifier relative to the document's directory. Only
   plain relative or absolute file paths are supported (no URLs). *)
let resolve_external_dtd ~document_path ~system_id =
  let candidate =
    if Filename.is_relative system_id then
      Filename.concat (Filename.dirname document_path) system_id
    else system_id
  in
  if not (Sys.file_exists candidate) then None
  else begin
    match Dtd.parse (read_file candidate) with
    | Ok dtd -> Some dtd
    | Error _ | (exception Sys_error _) -> None
  end

let parse_file_with_dtd ?limits path =
  match read_file path with
  | src -> (
      match run ?limits src parse_document with
      | Error _ as e -> e
      | Ok (doc, dtd, system_id) ->
          (* The internal subset wins; otherwise try the external one. *)
          let dtd =
            match (dtd, system_id) with
            | Some dtd, _ -> Some dtd
            | None, Some system_id ->
                Option.map
                  (fun external_dtd ->
                    { external_dtd with Dtd.declared_root = doc.Tree.doctype })
                  (resolve_external_dtd ~document_path:path ~system_id)
            | None, None -> None
          in
          Ok (doc, dtd))
  | exception Sys_error msg -> Error { line = 0; column = 0; message = msg }
