module Tree = X3_xml.Tree

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

(* Loading: one counting pass to size the arrays, one labelling pass.  The
   synthetic forest root keeps multi-document loads uniform. *)

let count_nodes root_elements =
  let rec count_node acc = function
    | Tree.Element e ->
        let acc = acc + 1 + List.length e.Tree.attributes in
        List.fold_left count_node acc e.Tree.children
    | Tree.Text _ -> acc + 1
    | Tree.Comment _ | Tree.Pi _ -> acc
  in
  List.fold_left
    (fun acc e -> count_node acc (Tree.Element e))
    0 root_elements

let load ~forest root_elements =
  let extra_root = if forest then 1 else 0 in
  let n = count_nodes root_elements + extra_root in
  let kinds = Array.make n Element in
  let tag_ids = Array.make n 0 in
  let fins = Array.make n 0 in
  let levels = Array.make n 0 in
  let parents = Array.make n (-1) in
  let texts = Array.make n "" in
  let tag_table = Hashtbl.create 64 in
  let tag_names = ref [] in
  let tag_count = ref 0 in
  let intern name =
    match Hashtbl.find_opt tag_table name with
    | Some id -> id
    | None ->
        let id = !tag_count in
        incr tag_count;
        Hashtbl.add tag_table name id;
        tag_names := name :: !tag_names;
        id
  in
  let next = ref 0 in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let rec load_element parent level e =
    let id = fresh () in
    kinds.(id) <- Element;
    tag_ids.(id) <- intern e.Tree.name;
    levels.(id) <- level;
    parents.(id) <- parent;
    List.iter
      (fun { Tree.attr_name; attr_value } ->
        let aid = fresh () in
        kinds.(aid) <- Attribute;
        tag_ids.(aid) <- intern ("@" ^ attr_name);
        levels.(aid) <- level + 1;
        parents.(aid) <- id;
        texts.(aid) <- attr_value;
        fins.(aid) <- aid)
      e.Tree.attributes;
    List.iter (load_child id (level + 1)) e.Tree.children;
    fins.(id) <- !next - 1
  and load_child parent level = function
    | Tree.Element e -> load_element parent level e
    | Tree.Text s ->
        let id = fresh () in
        kinds.(id) <- Text;
        tag_ids.(id) <- intern "#text";
        levels.(id) <- level;
        parents.(id) <- parent;
        texts.(id) <- s;
        fins.(id) <- id
    | Tree.Comment _ | Tree.Pi _ -> ()
  in
  if forest then begin
    let id = fresh () in
    kinds.(id) <- Element;
    tag_ids.(id) <- intern "#forest";
    levels.(id) <- 0;
    parents.(id) <- -1;
    List.iter (load_element id 1) root_elements;
    fins.(id) <- !next - 1
  end
  else begin
    match root_elements with
    | [ e ] -> load_element (-1) 0 e
    | _ -> assert false
  end;
  assert (!next = n);
  let tag_names = Array.of_list (List.rev !tag_names) in
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
  { kinds; tag_ids; fins; levels; parents; texts; tag_names; tag_table; index }

let of_document doc = load ~forest:false [ doc.Tree.root ]
let of_documents docs = load ~forest:true (List.map (fun d -> d.Tree.root) docs)

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

let parent t id =
  check t id;
  let p = t.parents.(id) in
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

let string_value t id =
  check t id;
  match t.kinds.(id) with
  | Attribute | Text -> t.texts.(id)
  | Element ->
      let buf = Buffer.create 16 in
      for v = id + 1 to t.fins.(id) do
        match t.kinds.(v) with
        | Text -> Buffer.add_string buf t.texts.(v)
        | Element | Attribute -> ()
      done;
      Buffer.contents buf

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

let nodes_with_tag_under t name ~under =
  check t under;
  match id_of_tag t name with
  | None -> []
  | Some tid ->
      let index = t.index.(tid) in
      let fin = t.fins.(under) in
      (* First index whose node id exceeds [under]. *)
      let rec lower lo hi =
        if lo >= hi then lo
        else begin
          let mid = (lo + hi) / 2 in
          if index.(mid) <= under then lower (mid + 1) hi else lower lo mid
        end
      in
      let start = lower 0 (Array.length index) in
      let rec collect i acc =
        if i >= Array.length index || index.(i) > fin then List.rev acc
        else collect (i + 1) (index.(i) :: acc)
      in
      collect start []

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
