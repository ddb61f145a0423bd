module Tree = X3_xml.Tree
module Parser = X3_xml.Parser

type node = int
type kind = Element | Attribute | Text

type t = {
  kinds : kind array;
  tag_ids : int array;
  fins : int array;  (** subtree end per node; start is the id itself *)
  levels : int array;
  parents : int array;  (** -1 for the root *)
  texts : string array;  (** raw text for Text/Attribute nodes, "" else *)
  tag_names : string array;  (** tag id -> name *)
  tag_table : (string, int) Hashtbl.t;
  index : node array array;  (** tag id -> nodes in document order *)
}

(* Loading: one builder, fed either by the XML scanner's events or by a
   walk over a [Tree]. Ids are pre-order ranks handed out as nodes open;
   an element's subtree end is fixed when it closes, like TIMBER's
   loader. The columns fill chunks, so appends never copy and no size is
   needed up front; [finish] copies them out once. The first chunk has
   the caller's size: a load whose size is known exactly fills that one
   chunk, which [finish] keeps as is. *)

let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits

type chunk = {
  c_kinds : kind array;
  c_tag_ids : int array;
  c_fins : int array;
  c_levels : int array;
  c_parents : int array;
  c_texts : string array;
}

let new_chunk size =
  {
    c_kinds = Array.make size Element;
    c_tag_ids = Array.make size 0;
    c_fins = Array.make size 0;
    c_levels = Array.make size 0;
    c_parents = Array.make size 0;
    c_texts = Array.make size "";
  }

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

type builder = {
  mutable chunks : chunk array;
      (* chunk 0 holds ids from 0, each later one [chunk_size] ids *)
  mutable n_chunks : int;
  mutable cur : chunk;  (* the last chunk *)
  mutable cur_base : int;  (* the id in its slot 0 *)
  mutable next : int;
  b_tag_table : (string, int) Hashtbl.t;
  mutable b_tag_names : string list;  (* reversed *)
  mutable tag_count : int;
  attr_tags : (string, int) Hashtbl.t;  (* attribute name -> tag of "@name" *)
  mutable text_tag : int;  (* -1 until the first text node *)
  mutable open_ids : int array;  (* open elements, innermost last *)
  mutable depth : int;
}

let builder ~capacity =
  let cur = new_chunk capacity in
  {
    chunks = [| cur |];
    n_chunks = 1;
    cur;
    cur_base = 0;
    next = 0;
    b_tag_table = Hashtbl.create 16;
    b_tag_names = [];
    tag_count = 0;
    attr_tags = Hashtbl.create 8;
    text_tag = -1;
    open_ids = Array.make 16 0;
    depth = 0;
  }

(* Tag ids follow first appearance in document order. *)
let intern b name =
  match Hashtbl.find b.b_tag_table name with
  | id -> id
  | exception Not_found ->
      let id = b.tag_count in
      b.tag_count <- id + 1;
      Hashtbl.add b.b_tag_table name id;
      b.b_tag_names <- name :: b.b_tag_names;
      id

(* A node in the next slot. Element texts stay the chunk's initial "":
   a store into the texts column is a write barrier. *)
let add_node b kind tag =
  let id = b.next in
  if id - b.cur_base = Array.length b.cur.c_kinds then begin
    if b.n_chunks = Array.length b.chunks then
      b.chunks <- grow b.chunks (2 * b.n_chunks) b.cur;
    b.cur <- new_chunk chunk_size;
    b.chunks.(b.n_chunks) <- b.cur;
    b.n_chunks <- b.n_chunks + 1;
    b.cur_base <- id
  end;
  let i = id - b.cur_base in
  b.next <- id + 1;
  let c = b.cur in
  c.c_kinds.(i) <- kind;
  c.c_tag_ids.(i) <- tag;
  c.c_fins.(i) <- id;
  c.c_levels.(i) <- b.depth;
  c.c_parents.(i) <- (if b.depth = 0 then -1 else b.open_ids.(b.depth - 1));
  id

let add_leaf b kind tag text =
  let id = add_node b kind tag in
  b.cur.c_texts.(id - b.cur_base) <- text

let open_element b name =
  let id = add_node b Element (intern b name) in
  if b.depth = Array.length b.open_ids then
    b.open_ids <- grow b.open_ids (2 * b.depth) 0;
  b.open_ids.(b.depth) <- id;
  b.depth <- b.depth + 1

let attribute b name value =
  let tag =
    match Hashtbl.find b.attr_tags name with
    | tag -> tag
    | exception Not_found ->
        let tag = intern b ("@" ^ name) in
        Hashtbl.add b.attr_tags name tag;
        tag
  in
  add_leaf b Attribute tag value

let text b s =
  if b.text_tag < 0 then b.text_tag <- intern b "#text";
  add_leaf b Text b.text_tag s

let close_element b =
  b.depth <- b.depth - 1;
  let id = b.open_ids.(b.depth) and fin = b.next - 1 in
  let first = Array.length b.chunks.(0).c_fins in
  if id < first then b.chunks.(0).c_fins.(id) <- fin
  else begin
    let j = id - first in
    b.chunks.(1 + (j lsr chunk_bits)).c_fins.(j land (chunk_size - 1)) <- fin
  end

let rec add_tree b (e : Tree.element) =
  open_element b e.Tree.name;
  List.iter
    (fun { Tree.attr_name; attr_value } -> attribute b attr_name attr_value)
    e.Tree.attributes;
  List.iter
    (function
      | Tree.Element c -> add_tree b c
      | Tree.Text s -> text b s
      | Tree.Comment _ | Tree.Pi _ -> ())
    e.Tree.children;
  close_element b

let finish b =
  let n = b.next in
  let last = b.n_chunks - 1 in
  let gather column =
    let first = column b.chunks.(0) in
    if Array.length first = n then first
    else
      Array.concat
        (List.init b.n_chunks (fun k ->
             let c = column b.chunks.(k) in
             if k < last then c else Array.sub c 0 (n - b.cur_base)))
  in
  let tag_ids = gather (fun c -> c.c_tag_ids) in
  let tag_names = Array.of_list (List.rev b.b_tag_names) in
  (* Build the tag index: nodes are already in document order. *)
  let buckets = Array.make (Array.length tag_names) 0 in
  Array.iter (fun tid -> buckets.(tid) <- buckets.(tid) + 1) tag_ids;
  let index = Array.map (fun count -> Array.make count 0) buckets in
  let cursors = Array.make (Array.length tag_names) 0 in
  Array.iteri
    (fun id tid ->
      index.(tid).(cursors.(tid)) <- id;
      cursors.(tid) <- cursors.(tid) + 1)
    tag_ids;
  {
    kinds = gather (fun c -> c.c_kinds);
    tag_ids;
    fins = gather (fun c -> c.c_fins);
    levels = gather (fun c -> c.c_levels);
    parents = gather (fun c -> c.c_parents);
    texts = gather (fun c -> c.c_texts);
    tag_names;
    tag_table = b.b_tag_table;
    index;
  }

(* A tree's exact node count, so the DOM path fills one chunk: with the
   DOM still live, a second copy of the columns would add their whole
   size to the peak. *)
let rec tree_nodes acc (e : Tree.element) =
  List.fold_left
    (fun acc -> function
      | Tree.Element c -> tree_nodes acc c
      | Tree.Text _ -> acc + 1
      | Tree.Comment _ | Tree.Pi _ -> acc)
    (acc + 1 + List.length e.Tree.attributes)
    e.Tree.children

let of_document doc =
  let b = builder ~capacity:(tree_nodes 0 doc.Tree.root) in
  add_tree b doc.Tree.root;
  finish b

(* The synthetic forest root keeps multi-document loads uniform. *)
let of_documents docs =
  let capacity =
    List.fold_left (fun acc d -> tree_nodes acc d.Tree.root) 1 docs
  in
  let b = builder ~capacity in
  open_element b "#forest";
  List.iter (fun d -> add_tree b d.Tree.root) docs;
  close_element b;
  finish b

(* The scanner's events, with [graft] appended as trailing children of
   the root just before it closes. *)
let sink b ~graft =
  {
    Parser.open_element = open_element b;
    attribute = attribute b;
    text = text b;
    comment = ignore;
    pi = (fun _ _ -> ());
    close_element =
      (fun () ->
        if b.depth = 1 then List.iter (add_tree b) graft;
        close_element b);
  }

(* A scanned document's size is unknown until its end. *)
let of_string ?limits ?(graft = []) src =
  let b = builder ~capacity:chunk_size in
  Result.map (fun _ -> finish b) (Parser.scan ?limits (sink b ~graft) src)

let of_file ?limits path =
  let b = builder ~capacity:chunk_size in
  Result.map
    (fun (_prolog, dtd) -> (finish b, dtd))
    (Parser.scan_file ?limits (sink b ~graft:[]) path)

let node_count t = Array.length t.kinds
let root _t = 0
let document_order t = Array.init (node_count t) Fun.id

let check t id =
  if id < 0 || id >= node_count t then
    invalid_arg (Printf.sprintf "Store: node %d out of range" id)

let kind t id =
  check t id;
  t.kinds.(id)

let tag_id t id =
  check t id;
  t.tag_ids.(id)

let tag t id = t.tag_names.(tag_id t id)

let label t id =
  check t id;
  { Label.start = id; fin = t.fins.(id); level = t.levels.(id) }

let level t id =
  check t id;
  t.levels.(id)

let subtree_end t id =
  check t id;
  t.fins.(id)

let parent_id t id =
  check t id;
  t.parents.(id)

let parent t id =
  let p = parent_id t id in
  if p < 0 then None else Some p

let iter_children t id f =
  check t id;
  let fin = t.fins.(id) in
  let child = ref (id + 1) in
  while !child <= fin do
    f !child;
    child := t.fins.(!child) + 1
  done

let children t id =
  let acc = ref [] in
  iter_children t id (fun c -> acc := c :: !acc);
  List.rev !acc

let text t id =
  check t id;
  t.texts.(id)

(* The first Text node in [v, hi], or [hi + 1]. *)
let rec next_text t v hi =
  if v > hi then v
  else
    match t.kinds.(v) with
    | Text -> v
    | Element | Attribute -> next_text t (v + 1) hi

let string_value t id =
  check t id;
  match t.kinds.(id) with
  | Attribute | Text -> t.texts.(id)
  | Element ->
      let fin = t.fins.(id) in
      let first = next_text t (id + 1) fin in
      if first > fin then ""
      else if next_text t (first + 1) fin > fin then
        (* one text node, the common [<d>v</d>], is its own value *)
        t.texts.(first)
      else begin
        let buf = Buffer.create 16 in
        for v = first to fin do
          match t.kinds.(v) with
          | Text -> Buffer.add_string buf t.texts.(v)
          | Element | Attribute -> ()
        done;
        Buffer.contents buf
      end

let is_ancestor t ~anc ~desc =
  check t anc;
  check t desc;
  anc < desc && t.fins.(desc) <= t.fins.(anc)

let is_parent t ~parent:p ~child =
  check t child;
  t.parents.(child) = p

let id_of_tag t name = Hashtbl.find_opt t.tag_table name
let tags t = Array.to_list t.tag_names

let nodes_with_tag t name =
  match id_of_tag t name with Some tid -> t.index.(tid) | None -> [||]

(* The first position in [lo, hi) whose node exceeds [node]. *)
let rec lower_bound index node lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if index.(mid) <= node then lower_bound index node (mid + 1) hi
    else lower_bound index node lo mid
  end

(* Gallop from [lo] with doubling steps, then search the last step. *)
let rec gallop index node lo step =
  let hi = lo + step in
  if hi >= Array.length index || index.(hi) > node then
    lower_bound index node lo (min hi (Array.length index))
  else gallop index node (hi + 1) (2 * step)

let first_after index node ~from = gallop index node from 1

(* Words, headers included, of what the store holds: one block per
   column and per tag's index, every non-empty text, the tag names and
   the tag table's buckets and cells. Element texts share one static
   [""], which costs nothing. *)
let approx_bytes t =
  let block len = len + 1 in
  let str s = if s = "" then 0 else block ((String.length s / 8) + 1) in
  let n = node_count t and tags = Array.length t.tag_names in
  let texts = Array.fold_left (fun acc s -> acc + str s) 0 t.texts in
  let names = Array.fold_left (fun acc s -> acc + str s) 0 t.tag_names in
  let words =
    block 9 (* the record *)
    + (6 * block n) + texts
    + block tags + names
    + block 4 (* the table's record *)
    + block (Hashtbl.stats t.tag_table).Hashtbl.num_buckets
    + (tags * block 3)
    + block tags + n + tags (* the index's spine and its arrays *)
  in
  words * (Sys.word_size / 8)

let pp_summary ppf t =
  let elements = ref 0 and attributes = ref 0 and texts = ref 0 in
  Array.iter
    (function
      | Element -> incr elements
      | Attribute -> incr attributes
      | Text -> incr texts)
    t.kinds;
  Format.fprintf ppf
    "@[<h>nodes=%d elements=%d attributes=%d texts=%d tags=%d max-level=%d@]"
    (node_count t) !elements !attributes !texts (Array.length t.tag_names)
    (Array.fold_left max 0 t.levels)
