open X3_xml
open X3_xdb

let parse_ok src =
  match Parser.parse src with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "parse failed: %a" Parser.pp_error e

(* Figure 1's publication database, slightly abridged. *)
let figure1 =
  parse_ok
    {|<database>
       <publication id="1">
         <author id="a1"><name>John</name></author>
         <author id="a2"><name>Jane</name></author>
         <publisher id="p1"/>
         <year>2003</year>
       </publication>
       <publication id="2">
         <author id="a1"><name>John</name></author>
         <publisher id="p2"/>
         <year>2004</year>
         <year>2005</year>
       </publication>
       <publication id="3">
         <authors><author id="a3"><name>Bob</name></author></authors>
         <year>2003</year>
       </publication>
       <publication id="4">
         <author id="a4"><name>Ann</name></author>
         <pubData><publisher id="p1"/><year>2005</year></pubData>
       </publication>
     </database>|}

let store = Store.of_document figure1

(* --- store ------------------------------------------------------------ *)

let test_store_counts () =
  let pubs = Store.nodes_with_tag store "publication" in
  Alcotest.(check int) "publications" 4 (Array.length pubs);
  Alcotest.(check int) "authors" 5
    (Array.length (Store.nodes_with_tag store "author"));
  Alcotest.(check int) "id attributes" 12
    (Array.length (Store.nodes_with_tag store "@id"))

let test_store_labels_nest () =
  let pubs = Store.nodes_with_tag store "publication" in
  Array.iter
    (fun pub ->
      let l = Store.label store pub in
      Alcotest.(check bool) "interval sane" true (l.Label.start <= l.Label.fin);
      Alcotest.(check int) "pub level" 1 l.Label.level)
    pubs

let test_store_parent_child () =
  let names = Store.nodes_with_tag store "name" in
  Array.iter
    (fun n ->
      match Store.parent store n with
      | Some p -> Alcotest.(check string) "name under author" "author" (Store.tag store p)
      | None -> Alcotest.fail "name has no parent")
    names

let test_store_string_value () =
  let names = Store.nodes_with_tag store "name" in
  let values = Array.to_list (Array.map (Store.string_value store) names) in
  Alcotest.(check (list string)) "names in document order"
    [ "John"; "Jane"; "John"; "Bob"; "Ann" ]
    values

let test_store_attributes () =
  let ids = Store.nodes_with_tag store "@id" in
  Alcotest.(check string) "first id value" "1" (Store.string_value store ids.(0));
  Alcotest.(check (option string)) "attr parent is publication"
    (Some "publication")
    (Option.map (Store.tag store) (Store.parent store ids.(0)))

let test_store_children_contiguous () =
  let root = Store.root store in
  (* children includes the whitespace text nodes of the pretty-printed
     source; filter to elements. *)
  let kids =
    List.filter
      (fun k -> Store.kind store k = Store.Element)
      (Store.children store root)
  in
  Alcotest.(check int) "root has 4 element children" 4 (List.length kids);
  List.iter
    (fun k ->
      Alcotest.(check string) "child tag" "publication" (Store.tag store k))
    kids

let test_store_is_ancestor () =
  let pubs = Store.nodes_with_tag store "publication" in
  let names = Store.nodes_with_tag store "name" in
  Alcotest.(check bool) "pub1 anc of first name" true
    (Store.is_ancestor store ~anc:pubs.(0) ~desc:names.(0));
  Alcotest.(check bool) "pub2 not anc of first name" false
    (Store.is_ancestor store ~anc:pubs.(1) ~desc:names.(0))

let test_store_forest () =
  let d1 = parse_ok "<a><b/></a>" and d2 = parse_ok "<a><c/></a>" in
  let s = Store.of_documents [ d1; d2 ] in
  Alcotest.(check string) "forest root" "#forest" (Store.tag s (Store.root s));
  Alcotest.(check int) "two documents" 2
    (Array.length (Store.nodes_with_tag s "a"))

(* --- structural joins ---------------------------------------------------

   A two-step path [//anc/desc] or [//anc//desc] is a binary structural
   join of the two tags' nodes; PathStack must return exactly the pairs a
   quadratic [Store.is_parent]/[Store.is_ancestor] search finds. *)

let d = Structural_join.Descendant
let c = Structural_join.Child

let path_pairs st ~axis ~anc_tag ~desc_tag =
  let acc = ref [] in
  Twig_join.path_solutions st
    [ { Twig_join.axis = d; tag = anc_tag }; { axis; tag = desc_tag } ]
    (fun s -> acc := (s.(0), s.(1)) :: !acc);
  List.sort compare !acc

let quadratic_pairs st ~axis ~anc_tag ~desc_tag =
  let related a v =
    match axis with
    | Structural_join.Descendant -> Store.is_ancestor st ~anc:a ~desc:v
    | Structural_join.Child -> Store.is_parent st ~parent:a ~child:v
  in
  let acc = ref [] in
  Array.iter
    (fun a ->
      Array.iter
        (fun v -> if related a v then acc := (a, v) :: !acc)
        (Store.nodes_with_tag st desc_tag))
    (Store.nodes_with_tag st anc_tag);
  List.sort compare !acc

let check_join_against_naive ~axis ~anc_tag ~desc_tag st =
  Alcotest.(check (list (pair int int)))
    (Printf.sprintf "%s-%s" anc_tag desc_tag)
    (quadratic_pairs st ~axis ~anc_tag ~desc_tag)
    (path_pairs st ~axis ~anc_tag ~desc_tag)

let test_join_ad () =
  check_join_against_naive ~axis:d ~anc_tag:"publication" ~desc_tag:"name"
    store;
  check_join_against_naive ~axis:d ~anc_tag:"publication" ~desc_tag:"author"
    store

let test_join_pc () =
  check_join_against_naive ~axis:c ~anc_tag:"publication" ~desc_tag:"author"
    store;
  check_join_against_naive ~axis:c ~anc_tag:"publication"
    ~desc_tag:"publisher" store

let test_join_pc_vs_ad_counts () =
  let pairs axis =
    path_pairs store ~axis ~anc_tag:"publication" ~desc_tag:"author"
  in
  (* Pub 3's author sits under <authors>, so PC misses it. *)
  Alcotest.(check int) "pc pairs" 4 (List.length (pairs c));
  Alcotest.(check int) "ad pairs" 5 (List.length (pairs d))

(* --- path joins ------------------------------------------------------- *)

let count_path_solutions st path =
  let n = ref 0 in
  Twig_join.path_solutions st path (fun _ -> incr n);
  !n

let test_pathstack_simple () =
  let path = [ { Twig_join.axis = d; tag = "publication" }; { axis = c; tag = "year" } ] in
  let count = count_path_solutions store path in
  (* pub1: 1 year, pub2: 2 years, pub3: 1 year, pub4: none (nested). *)
  Alcotest.(check int) "pub/year matches" 4 count

let test_pathstack_descendant () =
  let path = [ { Twig_join.axis = d; tag = "publication" }; { axis = d; tag = "year" } ] in
  Alcotest.(check int) "pub//year matches" 5
    (count_path_solutions store path)

let test_pathstack_three_steps () =
  let path =
    [
      { Twig_join.axis = d; tag = "publication" };
      { axis = c; tag = "author" };
      { axis = c; tag = "name" };
    ]
  in
  Alcotest.(check int) "pub/author/name" 4
    (count_path_solutions store path)

let test_pathstack_vs_naive () =
  let paths =
    [
      [ { Twig_join.axis = d; tag = "publication" }; { axis = d; tag = "name" } ];
      [ { Twig_join.axis = d; tag = "author" }; { axis = c; tag = "name" } ];
      [ { Twig_join.axis = c; tag = "database" }; { axis = d; tag = "publisher" } ];
      [
        { Twig_join.axis = d; tag = "publication" };
        { axis = d; tag = "author" };
        { axis = d; tag = "name" };
      ];
    ]
  in
  List.iter
    (fun path ->
      let fast = ref [] in
      Twig_join.path_solutions store path (fun s -> fast := Array.to_list s :: !fast);
      let slow = List.map Array.to_list (Twig_join.naive_path_solutions store path) in
      Alcotest.(check (list (list int)))
        "pathstack = naive" (List.sort compare slow)
        (List.sort compare !fast))
    paths

(* An absolute path starts at the document element, as XPath's does:
   on a [bank]-rooted treebank [/bank/s] is every [s] that [//s] names,
   and [/s] names nothing, since [s] is not the document element. *)
let test_pathstack_absolute () =
  let bank =
    Store.of_document
      (X3_workload.Treebank.generate
         { X3_workload.Treebank.default with num_trees = 30 })
  in
  let lasts path =
    let acc = ref [] in
    Twig_join.path_solutions bank path (fun s ->
        acc := s.(Array.length s - 1) :: !acc);
    List.sort_uniq compare !acc
  in
  let naive_lasts path =
    List.sort_uniq compare
      (List.map
         (fun s -> s.(Array.length s - 1))
         (Twig_join.naive_path_solutions bank path))
  in
  let all_s = Array.to_list (Store.nodes_with_tag bank "s") in
  let absolute =
    [ { Twig_join.axis = c; tag = "bank" }; { axis = c; tag = "s" } ]
  in
  let misplaced = [ { Twig_join.axis = c; tag = "s" } ] in
  Alcotest.(check int) "the treebank has facts" 30 (List.length all_s);
  Alcotest.(check (list int)) "/bank/s = //s" all_s (lasts absolute);
  Alcotest.(check (list int))
    "naive /bank/s = //s" all_s (naive_lasts absolute);
  Alcotest.(check (list int)) "/s selects nothing" [] (lasts misplaced);
  Alcotest.(check (list int))
    "naive /s selects nothing" [] (naive_lasts misplaced);
  Alcotest.(check (list int))
    "/bank is the root" [ Store.root bank ]
    (lasts [ { Twig_join.axis = c; tag = "bank" } ])

(* [approx_bytes] is what the serve cache charges for a resident store:
   it must track the heap the store really holds. *)
let test_approx_bytes_tracks_heap () =
  let check name doc =
    match Store.of_string (Serialize.to_string doc) with
    | Error e -> Alcotest.failf "%s: %a" name Parser.pp_error e
    | Ok st ->
        let heap = Obj.reachable_words (Obj.repr st) * (Sys.word_size / 8) in
        let approx = Store.approx_bytes st in
        let err =
          Float.abs (float_of_int (approx - heap)) /. float_of_int heap
        in
        if err > 0.10 then
          Alcotest.failf "%s: approx_bytes %d vs reachable %d bytes (%.1f%%)"
            name approx heap (100. *. err)
  in
  check "treebank"
    (X3_workload.Treebank.generate
       { X3_workload.Treebank.default with num_trees = 2000 });
  check "dblp"
    (X3_workload.Dblp.generate
       { X3_workload.Dblp.seed = 7; num_articles = 2000 })

(* --- property tests over random trees --------------------------------- *)

(* A tree of at most [max 1 n] nodes for size [n]: the root takes one
   node and its 1-4 children split the rest of the budget, so the
   quadratic oracles never meet more nodes than the size asks for. *)
let gen_store =
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "c" ] in
  let tree =
    sized @@ fix (fun self n ->
        if n <= 1 then map (fun t -> Tree.elem t []) tag
        else
          let* k = int_range 1 (min 4 (n - 1)) in
          map2
            (fun t children -> Tree.elem t children)
            tag
            (list_repeat k (self ((n - 1) / k))))
  in
  map
    (fun t ->
      match t with
      | Tree.Element e -> Store.of_document (Tree.document e)
      | _ -> assert false)
    tree

let prop_join_matches_naive =
  QCheck2.Test.make ~name:"structural join = naive join" ~count:200
    QCheck2.Gen.(triple gen_store (oneofl [ "a"; "b"; "c" ]) (oneofl [ "a"; "b"; "c" ]))
    (fun (st, anc_tag, desc_tag) ->
      List.for_all
        (fun axis ->
          path_pairs st ~axis ~anc_tag ~desc_tag
          = quadratic_pairs st ~axis ~anc_tag ~desc_tag)
        [ c; d ])

let prop_pathstack_matches_naive =
  QCheck2.Test.make ~name:"pathstack = naive path eval" ~count:200
    QCheck2.Gen.(
      triple gen_store
        (oneofl [ "a"; "b"; "c" ])
        (pair (oneofl [ "a"; "b"; "c" ]) (oneofl [ `C; `D ])))
    (fun (st, t1, (t2, ax)) ->
      let axis = match ax with `C -> c | `D -> d in
      let path = [ { Twig_join.axis = d; tag = t1 }; { axis; tag = t2 } ] in
      let fast = ref [] in
      Twig_join.path_solutions st path (fun s -> fast := Array.to_list s :: !fast);
      let slow = List.map Array.to_list (Twig_join.naive_path_solutions st path) in
      List.sort compare !fast = List.sort compare slow)

let prop_labels_consistent =
  QCheck2.Test.make ~name:"labels agree with parents" ~count:200 gen_store
    (fun st ->
      let ok = ref true in
      Array.iter
        (fun v ->
          match Store.parent st v with
          | None -> ()
          | Some p ->
              let lp = Store.label st p and lv = Store.label st v in
              if not (Label.is_parent lp lv) then ok := false)
        (Store.document_order st);
      !ok)

(* --- loading straight from XML ---------------------------------------- *)

(* Node for node: kind, tag, interval, level, parent, text, and the tag
   dictionary and index. *)
let store_equal a b =
  let same v =
    Store.kind a v = Store.kind b v
    && Store.tag_id a v = Store.tag_id b v
    && Store.subtree_end a v = Store.subtree_end b v
    && Store.level a v = Store.level b v
    && Store.parent a v = Store.parent b v
    && String.equal (Store.text a v) (Store.text b v)
  in
  Store.node_count a = Store.node_count b
  && Store.tags a = Store.tags b
  && List.for_all
       (fun t -> Store.nodes_with_tag a t = Store.nodes_with_tag b t)
       (Store.tags a)
  && List.for_all same (List.init (Store.node_count a) Fun.id)

let graft_into doc graft =
  let root = doc.Tree.root in
  {
    doc with
    Tree.root =
      {
        root with
        Tree.children =
          root.Tree.children @ List.map (fun e -> Tree.Element e) graft;
      };
  }

(* The scanner's store against the DOM path over the same bytes. *)
let loads_agree ?(graft = []) src =
  match (Store.of_string ~graft src, Parser.parse src) with
  | Ok direct, Ok doc ->
      store_equal direct (Store.of_document (graft_into doc graft))
  | Error e, _ | _, Error e ->
      QCheck2.Test.fail_reportf "%a" Parser.pp_error e

(* Mixed content as source text paired with the tree the parser must
   build from it. Adjacent character data coalesces into one text node;
   a CDATA section is a text node of its own. *)
let text_pieces =
  [
    ("abc", "abc"); (" ", " "); ("\n  ", "\n  "); ("&amp;", "&");
    ("&lt;", "<"); ("&gt;", ">"); ("a > b", "a > b"); ("&#65;", "A");
    ("&#x3bb;", "\xce\xbb"); ("\"'", "\"'"); ("&quot;&apos;", "\"'");
  ]

let attr_pieces quote =
  [
    ("v", "v"); ("1 2", "1 2"); ("&amp;", "&"); ("&lt;", "<");
    ("&quot;", "\""); ("&#x41;", "A"); ("&#955;", "\xce\xbb");
    (if quote = '"' then ("'", "'") else ("\"", "\""));
  ]

let concat_pieces ps =
  (String.concat "" (List.map fst ps), String.concat "" (List.map snd ps))

type item = Chars of string * string | Markup of string * Tree.node

let children_of items =
  let flush (src, nodes) = function
    | None -> (src, nodes)
    | Some (raw, text) -> (src ^ raw, Tree.Text text :: nodes)
  in
  let rec go acc pending = function
    | [] -> flush acc pending
    | Chars (raw, text) :: rest ->
        let pending =
          match pending with
          | None -> Some (raw, text)
          | Some (r, t) -> Some (r ^ raw, t ^ text)
        in
        go acc pending rest
    | Markup (raw, node) :: rest ->
        let src, nodes = flush acc pending in
        go (src ^ raw, node :: nodes) None rest
  in
  let src, nodes = go ("", []) None items in
  (src, List.rev nodes)

let gen_mixed_element =
  let open QCheck2.Gen in
  let space = oneofl [ ""; " "; "\n  " ] in
  let attribute =
    let* quote = oneofl [ '"'; '\'' ] in
    let+ key = oneofl [ "id"; "k"; "x:y"; "v2" ]
    and+ sp = space
    and+ pieces = list_size (int_bound 3) (oneofl (attr_pieces quote)) in
    let raw, value = concat_pieces pieces in
    ( Printf.sprintf " %s%s%s=%s%c%s%c" sp key sp sp quote raw quote,
      { Tree.attr_name = key; attr_value = value } )
  in
  let chars =
    map
      (fun ps ->
        let raw, text = concat_pieces ps in
        Chars (raw, text))
      (list_size (int_range 1 3) (oneofl text_pieces))
  in
  let cdata =
    map
      (fun s -> Markup ("<![CDATA[" ^ s ^ "]]>", Tree.Text s))
      (oneofl [ "x"; "<not> &amp; parsed"; ""; " "; "]]"; "]>" ])
  in
  let comment =
    map
      (fun s -> Markup ("<!--" ^ s ^ "-->", Tree.Comment s))
      (oneofl [ ""; " note "; "a<b&c"; "-" ])
  in
  let pi =
    map2
      (fun target body ->
        Markup (Printf.sprintf "<?%s %s?>" target body, Tree.Pi (target, body)))
      (oneofl [ "pi"; "x-y" ])
      (oneofl [ ""; "body"; "k=\"v\" &amp;"; "a?b" ])
  in
  sized
  @@ fix (fun self n ->
         let* name = oneofl [ "a"; "b"; "pub"; "x-y"; "n.1"; "_z"; "q:r" ]
         and* attrs = list_size (int_bound 3) attribute
         and* items =
           if n <= 0 then return []
           else
             list_size (int_bound 5)
               (frequency
                  [
                    (3, chars);
                    (1, cdata);
                    (1, comment);
                    (1, pi);
                    ( 2,
                      map
                        (fun (raw, e) -> Markup (raw, Tree.Element e))
                        (self (n / 2)) );
                  ])
         and* self_closing = bool
         and* sp = space in
         (* attribute names are unique within an element *)
         let attrs =
           List.fold_left
             (fun acc ((_, a) as attr) ->
               if
                 List.exists
                   (fun (_, b) -> String.equal a.Tree.attr_name b.Tree.attr_name)
                   acc
               then acc
               else attr :: acc)
             [] attrs
           |> List.rev
         in
         let start = "<" ^ name ^ String.concat "" (List.map fst attrs) ^ sp in
         let body, children = children_of items in
         let src =
           if items = [] && self_closing then start ^ "/>"
           else start ^ ">" ^ body ^ "</" ^ name ^ sp ^ ">"
         in
         return
           (src, { Tree.name; attributes = List.map snd attrs; children }))

let gen_mixed_doc =
  let open QCheck2.Gen in
  let+ decl =
    oneofl
      [ ""; "<?xml version=\"1.0\"?>\n"; "<?xml version='1.0' encoding='UTF-8'?>" ]
  and+ before = oneofl [ ""; "<!-- head -->\n"; "<?style x?>" ]
  and+ after = oneofl [ ""; "\n"; "<!-- tail -->" ]
  and+ src, root = gen_mixed_element in
  (decl ^ before ^ src ^ after, root)

let prop_dom_sink_exact =
  QCheck2.Test.make ~name:"DOM sink rebuilds the tree exactly" ~count:300
    ~print:fst gen_mixed_doc (fun (src, root) ->
      match Parser.parse src with
      | Ok doc -> doc.Tree.root = root
      | Error e -> QCheck2.Test.fail_reportf "%a" Parser.pp_error e)

let prop_of_string_mixed =
  QCheck2.Test.make ~name:"of_string ~graft = of_document (mixed content)"
    ~count:300
    ~print:(fun ((src, _), _) -> src)
    QCheck2.Gen.(pair gen_mixed_doc (list_size (int_bound 3) gen_mixed_element))
    (fun ((src, _), graft) -> loads_agree ~graft:(List.map snd graft) src)

(* [Store.string_value] returns a lone text node's string as is and
   concatenates otherwise; both must give the general definition, the
   concatenation of every descendant text node, which for elements is
   also [Tree.string_value] of the same element in pre-order. *)
let prop_string_value_general =
  QCheck2.Test.make ~name:"string value = concatenated descendant texts"
    ~count:300 ~print:fst gen_mixed_element (fun (_, root) ->
      let store = Store.of_document (Tree.document root) in
      let general v =
        match Store.kind store v with
        | Store.Attribute | Store.Text -> Store.text store v
        | Store.Element ->
            String.concat ""
              (List.filter_map
                 (fun u ->
                   if Store.kind store u = Store.Text then
                     Some (Store.text store u)
                   else None)
                 (List.init
                    (Store.subtree_end store v - v)
                    (fun i -> v + 1 + i)))
      in
      let elements =
        List.rev
          (Tree.fold
             (fun acc node ->
               match node with Tree.Element e -> e :: acc | _ -> acc)
             [] (Tree.Element root))
      in
      let store_elements =
        List.filter
          (fun v -> Store.kind store v = Store.Element)
          (Array.to_list (Store.document_order store))
      in
      List.for_all
        (fun v -> String.equal (Store.string_value store v) (general v))
        (Array.to_list (Store.document_order store))
      && List.length elements = List.length store_elements
      && List.for_all2
           (fun e v ->
             String.equal (Tree.string_value e) (Store.string_value store v))
           elements store_elements)

(* Documents from the workload generators, serialized flat or indented
   (whitespace-only text), with some of their own facts grafted back. *)
let gen_workload_src =
  let open QCheck2.Gen in
  let* kind = oneofl [ `Treebank; `Dblp; `Publications ]
  and* seed = int_bound 10_000
  and* size = int_range 1 40
  and* indent = bool
  and* picks = list_size (int_bound 3) (int_bound 1_000) in
  let doc =
    match kind with
    | `Treebank ->
        X3_workload.Treebank.generate
          { X3_workload.Treebank.default with seed; num_trees = size }
    | `Dblp ->
        X3_workload.Dblp.generate { X3_workload.Dblp.seed; num_articles = size }
    | `Publications -> X3_workload.Publications.document ()
  in
  let facts = List.filter_map Tree.element_of_node doc.Tree.root.Tree.children in
  let graft =
    List.map (fun i -> List.nth facts (i mod List.length facts)) picks
  in
  return (Serialize.to_string ~indent doc, graft)

let prop_of_string_workloads =
  QCheck2.Test.make ~name:"of_string ~graft = of_document (workloads)"
    ~count:60
    ~print:(fun (src, _) -> src)
    gen_workload_src
    (fun (src, graft) -> loads_agree ~graft src)

let test_of_file_matches () =
  let path = Filename.temp_file "x3_store" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let src =
        {|<?xml version="1.0"?><!DOCTYPE r [<!ELEMENT r (p*)><!ELEMENT p (#PCDATA)>]><r><p>1</p><p>2</p></r>|}
      in
      Out_channel.with_open_bin path (fun oc -> output_string oc src);
      match (Store.of_file path, Parser.parse_file_with_dtd path) with
      | Ok (direct, dtd), Ok (doc, dtd') ->
          Alcotest.(check bool) "same store" true
            (store_equal direct (Store.of_document doc));
          Alcotest.(check bool) "same DTD" true (dtd = dtd' && dtd <> None)
      | Error e, _ | _, Error e -> Alcotest.failf "%a" Parser.pp_error e)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "x3_xdb"
    [
      ( "store",
        [
          Alcotest.test_case "counts" `Quick test_store_counts;
          Alcotest.test_case "labels nest" `Quick test_store_labels_nest;
          Alcotest.test_case "parent/child" `Quick test_store_parent_child;
          Alcotest.test_case "string value" `Quick test_store_string_value;
          Alcotest.test_case "attributes" `Quick test_store_attributes;
          Alcotest.test_case "children" `Quick test_store_children_contiguous;
          Alcotest.test_case "is_ancestor" `Quick test_store_is_ancestor;
          Alcotest.test_case "forest" `Quick test_store_forest;
          Alcotest.test_case "of_file = parse_file_with_dtd" `Quick
            test_of_file_matches;
          Alcotest.test_case "approx_bytes tracks the heap" `Quick
            test_approx_bytes_tracks_heap;
        ] );
      ( "loading",
        qcheck
          [
            prop_dom_sink_exact;
            prop_of_string_mixed;
            prop_of_string_workloads;
            prop_string_value_general;
          ]
      );
      ( "structural join",
        [
          Alcotest.test_case "ancestor-descendant" `Quick test_join_ad;
          Alcotest.test_case "parent-child" `Quick test_join_pc;
          Alcotest.test_case "pc vs ad counts" `Quick test_join_pc_vs_ad_counts;
        ] );
      ( "twig join",
        [
          Alcotest.test_case "pathstack simple" `Quick test_pathstack_simple;
          Alcotest.test_case "pathstack descendant" `Quick
            test_pathstack_descendant;
          Alcotest.test_case "pathstack three steps" `Quick
            test_pathstack_three_steps;
          Alcotest.test_case "pathstack vs naive" `Quick test_pathstack_vs_naive;
          Alcotest.test_case "absolute paths start at the document element"
            `Quick test_pathstack_absolute;
        ] );
      ( "properties",
        qcheck
          [ prop_join_matches_naive; prop_pathstack_matches_naive; prop_labels_consistent ] );
    ]
