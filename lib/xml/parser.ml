type error = { line : int; column : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "XML parse error at %d:%d: %s" e.line e.column e.message

(* Hostile-input limits. The scanner is iterative, but the open-tag stack
   and every consumer that recurses on a [Tree] grow with depth, so depth
   is bounded along with node count and value lengths: each resource
   exhaustion becomes an ordinary parse error. *)
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

type sink = {
  open_element : string -> unit;
  attribute : string -> string -> unit;
  text : string -> unit;
  comment : string -> unit;
  pi : string -> string -> unit;
  close_element : unit -> unit;
}

type prolog = {
  version : string option;
  encoding : string option;
  doctype : string option;
}

exception Fail of int * string
(* position, message — positions are turned into line/column on exit *)

(* Attribute names of the open start tag, for the uniqueness check: a
   linear scan while there are few, a table beyond that. *)
let few_attrs = 16

type state = {
  src : string;
  len : int;
  mutable pos : int;
  limits : limits;
  mutable nodes : int;
  mutable open_tags : string array;  (* names of the open elements *)
  mutable depth : int;
  buf : Buffer.t;  (* values that contain references *)
  attr_names : string array;
  mutable n_attrs : int;
  attr_seen : (string, unit) Hashtbl.t;
}

let fail st msg = raise (Fail (st.pos, msg))

let count_node st =
  st.nodes <- st.nodes + 1;
  if st.nodes > st.limits.max_nodes then
    fail st
      (Printf.sprintf "document exceeds the %d-node limit" st.limits.max_nodes)

let eof st = st.pos >= st.len
let peek st = if st.pos >= st.len then '\000' else String.unsafe_get st.src st.pos

let peek2 st =
  if st.pos + 1 >= st.len then '\000' else String.unsafe_get st.src (st.pos + 1)

let advance st = st.pos <- st.pos + 1
let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space st =
  while st.pos < st.len && is_space (String.unsafe_get st.src st.pos) do
    advance st
  done

let looking_at st prefix = Str_search.is_at st.src st.pos prefix

let expect st prefix =
  if looking_at st prefix then st.pos <- st.pos + String.length prefix
  else fail st (Printf.sprintf "expected %S" prefix)

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | c -> Char.code c >= 0x80 (* permissive for UTF-8 names *)

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

(* Moves past a name; returns where it started. *)
let skip_name st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while st.pos < st.len && is_name_char (String.unsafe_get st.src st.pos) do
    advance st
  done;
  start

let name st =
  let start = skip_name st in
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

(* The end of the run of plain characters at [i]: the first [stop], '&'
   or '<' (or the end of input). *)
let rec run_end src len stop i =
  if i >= len then i
  else
    match String.unsafe_get src i with
    | '&' | '<' -> i
    | c when c = stop -> i
    | _ -> run_end src len stop (i + 1)

(* Values end at [stop]: a quote in attributes, '<' in text. *)
let too_long st ~stop =
  if stop = '<' then
    Printf.sprintf "text node exceeds the %d-byte limit" st.limits.max_text_len
  else
    Printf.sprintf "attribute value exceeds the %d-byte limit"
      st.limits.max_attr_len

(* Accumulates a value into [st.buf] up to a '<', an unescaped [stop] or
   the end of input, resolving references on the way. The length limit
   is checked before every character, so the error lands just past the
   first byte over [max]. *)
let rec accumulate st ~stop ~max len =
  if len > max then fail st (too_long st ~stop)
  else if st.pos < st.len then
    match String.unsafe_get st.src st.pos with
    | '<' -> ()
    | '&' ->
        let r = reference st in
        Buffer.add_string st.buf r;
        accumulate st ~stop ~max (len + String.length r)
    | c when c = stop -> ()
    | _ ->
        let e = run_end st.src st.len stop st.pos in
        let l = e - st.pos in
        if len + l > max then begin
          st.pos <- st.pos + (max - len + 1);
          fail st (too_long st ~stop)
        end
        else begin
          Buffer.add_substring st.buf st.src st.pos l;
          st.pos <- e;
          accumulate st ~stop ~max (len + l)
        end

(* A value with no reference in it is one [String.sub]; anything else
   goes through [accumulate]. *)
let scan_value st ~stop ~max =
  let start = st.pos in
  let e = run_end st.src st.len stop start in
  if e - start <= max && (e >= st.len || String.unsafe_get st.src e <> '&')
  then begin
    st.pos <- e;
    String.sub st.src start (e - start)
  end
  else begin
    Buffer.clear st.buf;
    accumulate st ~stop ~max 0;
    Buffer.contents st.buf
  end

let attribute_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected a quoted value";
  advance st;
  let v = scan_value st ~stop:quote ~max:st.limits.max_attr_len in
  if eof st then fail st "unterminated attribute value"
  else if peek st = '<' then fail st "'<' in attribute value";
  advance st;
  v

(* Character data up to the next markup, coalesced into one text node.
   '<' never occurs in text, so it doubles as the run's [stop]. *)
let char_data st = scan_value st ~stop:'<' ~max:st.limits.max_text_len

let rec mem_attr names attr i =
  i >= 0 && (String.equal names.(i) attr || mem_attr names attr (i - 1))

(* XML 1.0 WFC "Unique Att Spec": reported at the repeated name. *)
let check_unique st ~tag ~start attr =
  let n = st.n_attrs in
  let seen =
    if n < few_attrs then mem_attr st.attr_names attr (n - 1)
    else begin
      if n = few_attrs then begin
        Hashtbl.reset st.attr_seen;
        Array.iter (fun a -> Hashtbl.replace st.attr_seen a ()) st.attr_names
      end;
      Hashtbl.mem st.attr_seen attr
    end
  in
  if seen then
    raise
      (Fail (start, Printf.sprintf "duplicate attribute %s on <%s>" attr tag));
  if n < few_attrs then st.attr_names.(n) <- attr
  else Hashtbl.replace st.attr_seen attr ();
  st.n_attrs <- n + 1

let push_tag st tag =
  if st.depth = Array.length st.open_tags then begin
    let grown = Array.make (2 * st.depth) "" in
    Array.blit st.open_tags 0 grown 0 st.depth;
    st.open_tags <- grown
  end;
  st.open_tags.(st.depth) <- tag;
  st.depth <- st.depth + 1

(* A start tag at '<'; an element left open is pushed. *)
let open_tag st sink =
  advance st;
  if st.depth + 1 > st.limits.max_depth then
    fail st
      (Printf.sprintf "document exceeds the %d-level nesting limit"
         st.limits.max_depth);
  count_node st;
  let tag = name st in
  sink.open_element tag;
  st.n_attrs <- 0;
  skip_space st;
  while is_name_start (peek st) do
    let start = st.pos in
    let attr = name st in
    check_unique st ~tag ~start attr;
    skip_space st;
    expect st "=";
    skip_space st;
    sink.attribute attr (attribute_value st);
    skip_space st
  done;
  if looking_at st "/>" then begin
    st.pos <- st.pos + 2;
    sink.close_element ()
  end
  else begin
    expect st ">";
    push_tag st tag
  end

(* An end tag at "</", matched against the innermost open element
   without copying its name. *)
let close_tag st sink =
  st.pos <- st.pos + 2;
  let start = skip_name st in
  let tag = st.open_tags.(st.depth - 1) in
  let n = st.pos - start in
  if not (n = String.length tag && Str_search.is_at st.src start tag) then
    fail st
      (Printf.sprintf "mismatched closing tag </%s> for <%s>"
         (String.sub st.src start n) tag);
  skip_space st;
  expect st ">";
  st.depth <- st.depth - 1;
  sink.close_element ()

let comment st =
  expect st "<!--";
  match Str_search.find st.src ~start:st.pos "-->" with
  | Some i ->
      let body = String.sub st.src st.pos (i - st.pos) in
      st.pos <- i + 3;
      body
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
      body
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

(* Content, one event at a time, until the open-tag stack empties again
   (when [stop_at_root]) or, at depth 0, the input ends or an end tag
   begins. An end of input with elements still open is the error the
   missing end tag would raise. *)
let content st sink ~stop_at_root =
  let continue = ref true in
  while !continue do
    if eof st then begin
      if st.depth > 0 then expect st "</";
      continue := false
    end
    else if String.unsafe_get st.src st.pos = '<' then begin
      match peek2 st with
      | '/' ->
          if st.depth = 0 then continue := false
          else begin
            close_tag st sink;
            if st.depth = 0 && stop_at_root then continue := false
          end
      | '!' when looking_at st "<!--" ->
          count_node st;
          sink.comment (comment st)
      | '!' when looking_at st "<![CDATA[" ->
          count_node st;
          sink.text (cdata st)
      | '?' ->
          count_node st;
          let target, body = processing_instruction st in
          sink.pi target body
      | _ -> open_tag st sink
    end
    else begin
      let data = char_data st in
      count_node st;
      sink.text data
    end
  done

(* The root element and everything under it. *)
let element st sink =
  open_tag st sink;
  if st.depth > 0 then content st sink ~stop_at_root:true

(* <?xml version="1.0" encoding="..."?> *)
let xml_declaration st =
  if
    looking_at st "<?xml"
    && st.pos + 5 < st.len
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
  let st =
    {
      src;
      len = String.length src;
      pos = 0;
      limits;
      nodes = 0;
      open_tags = Array.make 64 "";
      depth = 0;
      buf = Buffer.create 64;
      attr_names = Array.make few_attrs "";
      n_attrs = 0;
      attr_seen = Hashtbl.create 16;
    }
  in
  match f st with
  | v -> Ok v
  | exception Fail (pos, message) ->
      let line, column = position_of_offset src pos in
      Error { line; column; message }

let scan_document sink st =
  let version, encoding = xml_declaration st in
  misc st;
  let declared_root, system_id, subset = doctype st in
  misc st;
  if not (peek st = '<' && is_name_start (peek2 st)) then
    fail st "expected the root element";
  element st sink;
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
  ({ version; encoding; doctype = declared_root }, dtd, system_id)

let scan ?limits sink src =
  Result.map
    (fun (prolog, dtd, _system) -> (prolog, dtd))
    (run ?limits src (scan_document sink))

let scan_fragment ?limits sink src =
  run ?limits src (fun st ->
      content st sink ~stop_at_root:false;
      if not (eof st) then fail st "unexpected closing tag")

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

let scan_file ?limits sink path =
  match read_file path with
  | src -> (
      match run ?limits src (scan_document sink) with
      | Error _ as e -> e
      | Ok (prolog, dtd, system_id) ->
          (* The internal subset wins; otherwise try the external one. *)
          let dtd =
            match (dtd, system_id) with
            | Some dtd, _ -> Some dtd
            | None, Some system_id ->
                Option.map
                  (fun external_dtd ->
                    { external_dtd with Dtd.declared_root = prolog.doctype })
                  (resolve_external_dtd ~document_path:path ~system_id)
            | None, None -> None
          in
          Ok (prolog, dtd))
  | exception Sys_error msg -> Error { line = 0; column = 0; message = msg }

(* --- the Tree sink ------------------------------------------------------ *)

type frame = {
  f_name : string;
  mutable f_attrs : Tree.attribute list;  (* reversed *)
  mutable f_children : Tree.node list;  (* reversed *)
}

(* Builds the DOM: one frame per open element; the bottom frame collects
   the top-level nodes. *)
let tree_sink () =
  let bottom = { f_name = ""; f_attrs = []; f_children = [] } in
  let cur = ref bottom and up = ref [] in
  let add node = !cur.f_children <- node :: !cur.f_children in
  let sink =
    {
      open_element =
        (fun name ->
          up := !cur :: !up;
          cur := { f_name = name; f_attrs = []; f_children = [] });
      attribute =
        (fun attr_name attr_value ->
          !cur.f_attrs <- { Tree.attr_name; attr_value } :: !cur.f_attrs);
      text = (fun s -> add (Tree.Text s));
      comment = (fun s -> add (Tree.Comment s));
      pi = (fun target body -> add (Tree.Pi (target, body)));
      close_element =
        (fun () ->
          let f = !cur in
          match !up with
          | parent :: rest ->
              cur := parent;
              up := rest;
              add
                (Tree.Element
                   {
                     Tree.name = f.f_name;
                     attributes = List.rev f.f_attrs;
                     children = List.rev f.f_children;
                   })
          | [] -> assert false);
    }
  in
  (sink, fun () -> List.rev bottom.f_children)

let document_of (prolog, dtd) nodes =
  match nodes with
  | [ Tree.Element root ] ->
      ( {
          Tree.version = prolog.version;
          encoding = prolog.encoding;
          doctype = prolog.doctype;
          root;
        },
        dtd )
  | _ -> assert false (* a scanned document has exactly one root element *)

let parse_with_dtd ?limits src =
  let sink, nodes = tree_sink () in
  Result.map (fun r -> document_of r (nodes ())) (scan ?limits sink src)

let parse ?limits src = Result.map fst (parse_with_dtd ?limits src)

let parse_fragment ?limits src =
  let sink, nodes = tree_sink () in
  Result.map nodes (scan_fragment ?limits sink src)

let parse_file_with_dtd ?limits path =
  let sink, nodes = tree_sink () in
  Result.map (fun r -> document_of r (nodes ())) (scan_file ?limits sink path)
