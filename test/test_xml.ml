open X3_xml

let parse_ok src =
  match Parser.parse src with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "parse failed: %a" Parser.pp_error e

let parse_err src =
  match Parser.parse src with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" src
  | Error e -> e

(* --- parser ----------------------------------------------------------- *)

let test_minimal () =
  let doc = parse_ok "<a/>" in
  Alcotest.(check string) "root name" "a" doc.Tree.root.Tree.name;
  Alcotest.(check int) "no children" 0 (List.length doc.Tree.root.Tree.children)

let test_nested_structure () =
  let doc = parse_ok "<db><pub><year>2003</year><year>2004</year></pub></db>" in
  let pub = List.hd (Tree.children_named doc.Tree.root "pub") in
  let years = Tree.children_named pub "year" in
  Alcotest.(check int) "two years" 2 (List.length years);
  Alcotest.(check (list string))
    "year values" [ "2003"; "2004" ]
    (List.map Tree.string_value years)

let test_attributes () =
  let doc = parse_ok {|<p id="1" name='x &amp; y'/>|} in
  Alcotest.(check (option string)) "id" (Some "1")
    (Tree.attribute doc.Tree.root "id");
  Alcotest.(check (option string)) "name" (Some "x & y")
    (Tree.attribute doc.Tree.root "name")

let test_entities_and_charrefs () =
  let doc = parse_ok "<t>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;</t>" in
  Alcotest.(check string) "resolved" "<>&'\"AB"
    (Tree.string_value doc.Tree.root)

let test_cdata () =
  let doc = parse_ok "<t><![CDATA[<not><parsed>&amp;]]></t>" in
  Alcotest.(check string) "cdata verbatim" "<not><parsed>&amp;"
    (Tree.string_value doc.Tree.root)

let test_comments_and_pis () =
  let doc = parse_ok "<t><!-- a comment --><?target body?>x</t>" in
  Alcotest.(check string) "text survives" "x" (Tree.string_value doc.Tree.root)

let test_xml_declaration () =
  let doc = parse_ok {|<?xml version="1.1" encoding="UTF-8"?><r/>|} in
  Alcotest.(check (option string)) "version" (Some "1.1") doc.Tree.version;
  Alcotest.(check (option string)) "encoding" (Some "UTF-8") doc.Tree.encoding

let test_whitespace_around_root () =
  let doc = parse_ok "  \n <!-- hi --> <r/> \n " in
  Alcotest.(check string) "root" "r" doc.Tree.root.Tree.name

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_mismatched_tag () =
  let e = parse_err "<a><b></a></b>" in
  Alcotest.(check bool) "mentions mismatch" true
    (contains e.Parser.message "mismatched")

let test_unterminated () = ignore (parse_err "<a><b>")
let test_trailing_garbage () = ignore (parse_err "<a/><b/>")
let test_undefined_entity () = ignore (parse_err "<a>&nope;</a>")

let test_error_position () =
  let e = parse_err "<a>\n<b>\n</c>\n</a>" in
  Alcotest.(check int) "line" 3 e.Parser.line

let test_fragment () =
  match Parser.parse_fragment "hello <b>world</b>!" with
  | Ok [ Tree.Text "hello "; Tree.Element b; Tree.Text "!" ] ->
      Alcotest.(check string) "b" "b" b.Tree.name
  | Ok _ -> Alcotest.fail "unexpected fragment shape"
  | Error e -> Alcotest.failf "fragment: %a" Parser.pp_error e

let test_utf8_charref () =
  let doc = parse_ok "<t>&#955;</t>" in
  Alcotest.(check string) "lambda" "\xce\xbb" (Tree.string_value doc.Tree.root)

let test_duplicate_attribute () =
  let e = parse_err {|<a x="1" x="2"/>|} in
  Alcotest.(check (pair int int)) "at the second name" (1, 10)
    (e.Parser.line, e.Parser.column);
  Alcotest.(check string) "message" "duplicate attribute x on <a>"
    e.Parser.message;
  let e = parse_err "<r><b\n x='1' y='2'\n x='3'/></r>" in
  Alcotest.(check (pair int int)) "across lines" (3, 2)
    (e.Parser.line, e.Parser.column);
  (* past the linear-scan threshold the table takes over *)
  let many = String.concat "" (List.init 40 (fun i -> Printf.sprintf " k%d='v'" i)) in
  ignore (parse_ok ("<a" ^ many ^ "/>"));
  let e = parse_err ("<a" ^ many ^ " k3='w'/>") in
  Alcotest.(check string) "many attributes" "duplicate attribute k3 on <a>"
    e.Parser.message

(* The Tree sink and the store sink share one scanner, so a bad input
   fails the same way, at the same place, through both. *)
let hostile_limits =
  { Parser.max_depth = 4; max_nodes = 10; max_attr_len = 8; max_text_len = 8 }

let limit_cases =
  [
    "<a><b><c><d>x</d></c></b></a>";
    "<a><b><c><d><e>x</e></d></c></b></a>";
    "<a><b/><b/><b/><b/></a>";
    "<a><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/></a>";
    {|<a k="12345678"/>|};
    {|<a k="123456789"/>|};
    {|<a k="1234567&amp;9"/>|};
    "<a>12345678</a>";
    "<a>123456789</a>";
    "<a>1234&lt;56789</a>";
    "<a><![CDATA[123456789]]></a>";
    "<a><!--1--><!--2--><!--3--><!--4--><!--5--><!--6--><!--7--><!--8--><!--9--><!--10--></a>";
  ]

let malformed =
  [
    ""; "x<a/>"; "<a/>x"; "<a/><b/>"; "<a><b></a></b>"; "<a>\n<b>\n</c>\n</a>";
    "<a><b>"; "<a><b></b>"; "<a></a"; "<a></ a>"; "<a x=1/>"; "<a x/>";
    {|<a x="1/>|}; {|<a x="<"/>|}; {|<a x="1" x="2"/>|};
    "<a><b x='1' y='2' x='3'/></a>"; "<a>&nope;</a>"; "<a>&amp</a>";
    "<a>&#;</a>"; "<a>&#xD800;</a>"; "<a>&#99999999999999999999;</a>";
    "<a><!-- x</a>"; "<a><![CDATA[x</a>"; "<a><?pi x</a>"; "<a><?</a>";
    "<a><!x/></a>"; "< a/>"; "<!DOCTYPE a [<!ELEMENT a (b)><a/>";
    {|<?xml version="1.0"?><!DOCTYPE a [ <!BOGUS> ]><a/>|};
  ]

let same_error ?limits src =
  match (Parser.parse ?limits src, X3_xdb.Store.of_string ?limits src) with
  | Ok _, Ok _ -> false
  | Error a, Error b ->
      Alcotest.(check (triple int int string))
        (Printf.sprintf "%S" src)
        (a.Parser.line, a.Parser.column, a.Parser.message)
        (b.Parser.line, b.Parser.column, b.Parser.message);
      true
  | Ok _, Error e | Error e, Ok _ ->
      Alcotest.failf "%S: only one sink failed: %a" src Parser.pp_error e

let test_error_parity () =
  List.iter
    (fun src ->
      if not (same_error src) then Alcotest.failf "%S should not parse" src)
    malformed;
  let failures =
    List.filter (same_error ~limits:hostile_limits) limit_cases
  in
  Alcotest.(check int) "over-limit cases" 8 (List.length failures);
  (* 100k unclosed opens stop at the depth limit in both sinks *)
  let bomb = String.concat "" (List.init 100_000 (fun _ -> "<a>")) in
  ignore (same_error bomb);
  match X3_xdb.Store.of_string bomb with
  | Error e ->
      Alcotest.(check bool) "names the nesting limit" true
        (contains e.Parser.message "10000-level nesting limit")
  | Ok _ -> Alcotest.fail "a 100k-deep document must not load"

(* --- serializer ------------------------------------------------------- *)

let test_roundtrip_simple () =
  let src = {|<db><p id="1">x &amp; &lt;y&gt;</p><q/></db>|} in
  let doc = parse_ok src in
  let out = Serialize.to_string ~declaration:false doc in
  Alcotest.(check string) "verbatim roundtrip" src out

let test_escaping_attribute () =
  let doc =
    Tree.document
      { Tree.name = "r";
        attributes = [ { Tree.attr_name = "a"; attr_value = "x\"<&>" } ];
        children = [] }
  in
  let out = Serialize.to_string ~declaration:false doc in
  let doc' = parse_ok out in
  Alcotest.(check (option string)) "roundtrip value" (Some "x\"<&>")
    (Tree.attribute doc'.Tree.root "a")

let test_indented_output_parses () =
  let doc = parse_ok "<db><a><b/><c/></a><d>text</d></db>" in
  let out = Serialize.to_string ~indent:true doc in
  let doc' = parse_ok out in
  (* Text content of d must survive indentation. *)
  let d = List.hd (Tree.children_named doc'.Tree.root "d") in
  Alcotest.(check string) "text preserved" "text" (Tree.string_value d)

(* --- tree utilities --------------------------------------------------- *)

let sample =
  Tree.elem "publication"
    ~attrs:[ ("id", "1") ]
    [
      Tree.elem "author" [ Tree.elem "name" [ Tree.text "John" ] ];
      Tree.elem "author" [ Tree.elem "name" [ Tree.text "Jane" ] ];
      Tree.elem "year" [ Tree.text "2003" ];
    ]

let test_counts () =
  Alcotest.(check int) "nodes" 9 (Tree.node_count sample);
  Alcotest.(check int) "elements" 6 (Tree.element_count sample);
  Alcotest.(check int) "depth" 4 (Tree.depth sample)

let test_string_value_concat () =
  match sample with
  | Tree.Element e ->
      Alcotest.(check string) "concat" "JohnJane2003" (Tree.string_value e)
  | _ -> assert false

(* --- DTD -------------------------------------------------------------- *)

let dtd_ok src =
  match Dtd.parse src with
  | Ok d -> d
  | Error msg -> Alcotest.failf "dtd parse failed: %s" msg

let dblp_dtd =
  {|
  <!ELEMENT dblp (article)*>
  <!ELEMENT article (author*, title, month?, year, journal)>
  <!ELEMENT author (#PCDATA)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT month (#PCDATA)>
  <!ELEMENT year (#PCDATA)>
  <!ELEMENT journal (#PCDATA)>
  <!ATTLIST article key CDATA #REQUIRED>
  |}

let test_dtd_parse () =
  let d = dtd_ok dblp_dtd in
  Alcotest.(check int) "elements" 7 (List.length d.Dtd.elements);
  Alcotest.(check int) "attlists" 1 (List.length d.Dtd.attlists)

let check_mult d ~parent ~child ~absent ~repeat =
  let m = Dtd.child_multiplicity d ~parent ~child in
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s may_be_absent" parent child)
    absent m.Dtd.may_be_absent;
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s may_repeat" parent child)
    repeat m.Dtd.may_repeat

let test_dtd_multiplicity () =
  let d = dtd_ok dblp_dtd in
  check_mult d ~parent:"article" ~child:"author" ~absent:true ~repeat:true;
  check_mult d ~parent:"article" ~child:"month" ~absent:true ~repeat:false;
  check_mult d ~parent:"article" ~child:"year" ~absent:false ~repeat:false;
  check_mult d ~parent:"article" ~child:"journal" ~absent:false ~repeat:false;
  check_mult d ~parent:"article" ~child:"nothing" ~absent:true ~repeat:false

let test_dtd_choice_and_plus () =
  let d =
    dtd_ok
      {|<!ELEMENT r ((a | b)+, c?)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>
        <!ELEMENT c EMPTY>|}
  in
  check_mult d ~parent:"r" ~child:"a" ~absent:true ~repeat:true;
  check_mult d ~parent:"r" ~child:"c" ~absent:true ~repeat:false

let test_dtd_seq_repeat () =
  let d = dtd_ok "<!ELEMENT r (a, a)> <!ELEMENT a EMPTY>" in
  check_mult d ~parent:"r" ~child:"a" ~absent:false ~repeat:true

let test_dtd_declared_children () =
  let d = dtd_ok dblp_dtd in
  Alcotest.(check (list string))
    "article children"
    [ "author"; "title"; "month"; "year"; "journal" ]
    (Dtd.declared_children d "article")

let test_dtd_nested_groups () =
  let d =
    dtd_ok "<!ELEMENT r ((a, (b | c)*)+, d?)> <!ELEMENT a EMPTY>"
  in
  check_mult d ~parent:"r" ~child:"a" ~absent:false ~repeat:true;
  check_mult d ~parent:"r" ~child:"b" ~absent:true ~repeat:true;
  check_mult d ~parent:"r" ~child:"d" ~absent:true ~repeat:false

let test_dtd_skips_entities_and_comments () =
  let d =
    dtd_ok
      {|<!-- header comment -->
        <!ENTITY % common "a | b">
        <!ENTITY copy "(c)">
        <!NOTATION png SYSTEM "image/png">
        <!ELEMENT r (a)>
        <!ELEMENT a (#PCDATA)>
        <!-- trailing -->|}
  in
  Alcotest.(check int) "two element decls" 2 (List.length d.Dtd.elements)

let test_dtd_attlist_multiple_attributes () =
  let d =
    dtd_ok
      {|<!ELEMENT r EMPTY>
        <!ATTLIST r id ID #REQUIRED
                    kind (a | b) "a"
                    note CDATA #IMPLIED>|}
  in
  Alcotest.(check int) "three attributes" 3 (List.length d.Dtd.attlists);
  let kinds =
    List.map (fun a -> (a.Dtd.attr, a.Dtd.default)) d.Dtd.attlists
  in
  Alcotest.(check bool) "id required" true
    (List.assoc "id" kinds = Dtd.Required);
  Alcotest.(check bool) "kind has default" true
    (List.assoc "kind" kinds = Dtd.Default "a")

let test_dtd_rejects_malformed () =
  List.iter
    (fun src ->
      match Dtd.parse src with
      | Ok _ -> Alcotest.failf "accepted malformed DTD: %s" src
      | Error _ -> ())
    [
      "<!ELEMENT r (a>";
      "<!ELEMENT r>";
      "<!ELEMENT (a)>";
      "<!BOGUS r EMPTY>";
    ]

let test_serializer_comments_and_pis () =
  let doc =
    Tree.document
      { Tree.name = "r";
        attributes = [];
        children =
          [ Tree.Comment " hello "; Tree.Pi ("target", "body"); Tree.text "x" ] }
  in
  let out = Serialize.to_string ~declaration:false doc in
  Alcotest.(check string) "verbatim" "<r><!-- hello --><?target body?>x</r>" out

let test_doctype_in_document () =
  let src =
    {|<!DOCTYPE db [ <!ELEMENT db (p*)> <!ELEMENT p (#PCDATA)> ]><db><p>x</p></db>|}
  in
  match Parser.parse_with_dtd src with
  | Ok (doc, Some dtd) ->
      Alcotest.(check (option string)) "declared root" (Some "db")
        doc.Tree.doctype;
      check_mult dtd ~parent:"db" ~child:"p" ~absent:true ~repeat:true
  | Ok (_, None) -> Alcotest.fail "dtd missing"
  | Error e -> Alcotest.failf "parse: %a" Parser.pp_error e

let test_external_dtd_resolution () =
  let dir = Filename.temp_file "x3xml" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let dtd_path = Filename.concat dir "db.dtd" in
  let doc_path = Filename.concat dir "data.xml" in
  let write path content =
    let oc = open_out path in
    output_string oc content;
    close_out oc
  in
  write dtd_path "<!ELEMENT db (p*)> <!ELEMENT p (#PCDATA)>";
  write doc_path {|<!DOCTYPE db SYSTEM "db.dtd"><db><p>x</p></db>|};
  (match Parser.parse_file_with_dtd doc_path with
  | Ok (doc, Some dtd) ->
      Alcotest.(check (option string)) "root" (Some "db") doc.Tree.doctype;
      Alcotest.(check (option string)) "declared root carried" (Some "db")
        dtd.Dtd.declared_root;
      check_mult dtd ~parent:"db" ~child:"p" ~absent:true ~repeat:true
  | Ok (_, None) -> Alcotest.fail "external DTD not resolved"
  | Error e -> Alcotest.failf "parse: %a" Parser.pp_error e);
  (* A missing external DTD degrades gracefully to no DTD. *)
  Sys.remove dtd_path;
  (match Parser.parse_file_with_dtd doc_path with
  | Ok (_, None) -> ()
  | Ok (_, Some _) -> Alcotest.fail "phantom DTD"
  | Error e -> Alcotest.failf "parse: %a" Parser.pp_error e);
  Sys.remove doc_path;
  Unix.rmdir dir

let test_internal_subset_wins () =
  let dir = Filename.temp_file "x3xml" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let write path content =
    let oc = open_out path in
    output_string oc content;
    close_out oc
  in
  write (Filename.concat dir "db.dtd") "<!ELEMENT db (q*)> <!ELEMENT q EMPTY>";
  let doc_path = Filename.concat dir "data.xml" in
  write doc_path
    {|<!DOCTYPE db SYSTEM "db.dtd" [ <!ELEMENT db (p*)> <!ELEMENT p (#PCDATA)> ]><db><p>x</p></db>|};
  (match Parser.parse_file_with_dtd doc_path with
  | Ok (_, Some dtd) ->
      Alcotest.(check bool) "internal subset declares p" true
        (Dtd.content_model dtd "p" <> None)
  | Ok (_, None) -> Alcotest.fail "dtd missing"
  | Error e -> Alcotest.failf "parse: %a" Parser.pp_error e);
  Sys.remove doc_path;
  Sys.remove (Filename.concat dir "db.dtd");
  Unix.rmdir dir

(* --- schema ----------------------------------------------------------- *)

let test_schema_of_dtd () =
  let d = dtd_ok dblp_dtd in
  let s = Schema.of_dtd d in
  Alcotest.(check bool) "edge dblp->article" true
    (Schema.has_edge s ~parent:"dblp" ~child:"article");
  Alcotest.(check bool) "no edge article->dblp" false
    (Schema.has_edge s ~parent:"article" ~child:"dblp");
  Alcotest.(check bool) "reachable dblp->author" true
    (Schema.reachable s ~from_:"dblp" ~target:"author");
  Alcotest.(check bool) "always via article" true
    (Schema.always_via s ~from_:"dblp" ~target:"author" ~via:"article")

let test_schema_of_document () =
  let doc =
    parse_ok
      "<db><p><a/><a/><b/></p><p><b/></p></db>"
  in
  let s = Schema.of_document doc in
  let m = Schema.child_multiplicity s ~parent:"p" ~child:"a" in
  Alcotest.(check bool) "a absent somewhere" true m.Dtd.may_be_absent;
  Alcotest.(check bool) "a repeats somewhere" true m.Dtd.may_repeat;
  let mb = Schema.child_multiplicity s ~parent:"p" ~child:"b" in
  Alcotest.(check bool) "b never absent" false mb.Dtd.may_be_absent;
  Alcotest.(check bool) "b never repeats" false mb.Dtd.may_repeat

let test_schema_descendant_multiplicity () =
  let d =
    dtd_ok
      {|<!ELEMENT db (pub*)> <!ELEMENT pub (authors?, year)>
        <!ELEMENT authors (author+)> <!ELEMENT author (#PCDATA)>
        <!ELEMENT year (#PCDATA)>|}
  in
  let s = Schema.of_dtd d in
  let m = Schema.descendant_multiplicity s ~ancestor:"pub" ~target:"author" in
  Alcotest.(check bool) "author may be absent under pub" true
    m.Dtd.may_be_absent;
  Alcotest.(check bool) "author may repeat under pub" true m.Dtd.may_repeat;
  let my = Schema.descendant_multiplicity s ~ancestor:"pub" ~target:"year" in
  Alcotest.(check bool) "year never absent" false my.Dtd.may_be_absent;
  Alcotest.(check bool) "year never repeats" false my.Dtd.may_repeat

let test_schema_recursive () =
  let d = dtd_ok "<!ELEMENT s (s*, v?)> <!ELEMENT v (#PCDATA)>" in
  let s = Schema.of_dtd d in
  let m = Schema.descendant_multiplicity s ~ancestor:"s" ~target:"v" in
  Alcotest.(check bool) "recursive: may be absent" true m.Dtd.may_be_absent;
  Alcotest.(check bool) "recursive: may repeat" true m.Dtd.may_repeat

let test_schema_always_via_negative () =
  let d =
    dtd_ok
      {|<!ELEMENT r (a?, b?)> <!ELEMENT a (n)> <!ELEMENT b (n)>
        <!ELEMENT n (#PCDATA)>|}
  in
  let s = Schema.of_dtd d in
  Alcotest.(check bool) "n reachable not only via a" false
    (Schema.always_via s ~from_:"r" ~target:"n" ~via:"a")

(* --- property tests --------------------------------------------------- *)

let gen_tree =
  let open QCheck2.Gen in
  let name = oneofl [ "a"; "b"; "c"; "pub"; "author" ] in
  let text_gen =
    oneofl [ "x"; "hello world"; "<&>\"'"; "2003"; "  spaced  " ]
  in
  sized @@ fix (fun self n ->
      if n <= 0 then map Tree.text text_gen
      else
        map3
          (fun tag attrs children -> Tree.elem tag ~attrs children)
          name
          (small_list (pair (oneofl [ "id"; "k" ]) text_gen)
          |> map (fun l ->
                 (* attribute names must be unique within an element *)
                 List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) l))
          (list_size (int_bound 4) (self (n / 2))))

let gen_doc =
  QCheck2.Gen.map
    (fun t ->
      match t with
      | Tree.Element e -> Tree.document e
      | other -> Tree.document { Tree.name = "root"; attributes = []; children = [ other ] })
    gen_tree

let prop_roundtrip =
  QCheck2.Test.make ~name:"serialize/parse roundtrip" ~count:300 gen_doc
    (fun doc ->
      match Parser.parse (Serialize.to_string doc) with
      | Ok doc' -> Tree.equal_node (Tree.Element doc.Tree.root) (Tree.Element doc'.Tree.root)
      | Error _ -> false)

let prop_roundtrip_indented =
  QCheck2.Test.make ~name:"indented output reparses" ~count:200 gen_doc
    (fun doc ->
      match Parser.parse (Serialize.to_string ~indent:true doc) with
      | Ok _ -> true
      | Error _ -> false)

let prop_node_count_positive =
  QCheck2.Test.make ~name:"node_count >= element_count" ~count:200 gen_tree
    (fun t -> Tree.node_count t >= Tree.element_count t)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "x3_xml"
    [
      ( "parser",
        [
          Alcotest.test_case "minimal" `Quick test_minimal;
          Alcotest.test_case "nested structure" `Quick test_nested_structure;
          Alcotest.test_case "attributes" `Quick test_attributes;
          Alcotest.test_case "entities and charrefs" `Quick
            test_entities_and_charrefs;
          Alcotest.test_case "cdata" `Quick test_cdata;
          Alcotest.test_case "comments and pis" `Quick test_comments_and_pis;
          Alcotest.test_case "xml declaration" `Quick test_xml_declaration;
          Alcotest.test_case "whitespace around root" `Quick
            test_whitespace_around_root;
          Alcotest.test_case "mismatched tag" `Quick test_mismatched_tag;
          Alcotest.test_case "unterminated" `Quick test_unterminated;
          Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
          Alcotest.test_case "undefined entity" `Quick test_undefined_entity;
          Alcotest.test_case "error position" `Quick test_error_position;
          Alcotest.test_case "fragment" `Quick test_fragment;
          Alcotest.test_case "utf8 charref" `Quick test_utf8_charref;
          Alcotest.test_case "duplicate attribute" `Quick
            test_duplicate_attribute;
          Alcotest.test_case "error parity: tree and store sinks" `Quick
            test_error_parity;
        ] );
      ( "serializer",
        [
          Alcotest.test_case "roundtrip simple" `Quick test_roundtrip_simple;
          Alcotest.test_case "attribute escaping" `Quick
            test_escaping_attribute;
          Alcotest.test_case "indented output parses" `Quick
            test_indented_output_parses;
          Alcotest.test_case "comments and PIs" `Quick
            test_serializer_comments_and_pis;
        ] );
      ( "tree",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "string value" `Quick test_string_value_concat;
        ] );
      ( "dtd",
        [
          Alcotest.test_case "parse" `Quick test_dtd_parse;
          Alcotest.test_case "multiplicity" `Quick test_dtd_multiplicity;
          Alcotest.test_case "choice and plus" `Quick test_dtd_choice_and_plus;
          Alcotest.test_case "sequence repeat" `Quick test_dtd_seq_repeat;
          Alcotest.test_case "declared children" `Quick
            test_dtd_declared_children;
          Alcotest.test_case "nested groups" `Quick test_dtd_nested_groups;
          Alcotest.test_case "skips entities/comments" `Quick
            test_dtd_skips_entities_and_comments;
          Alcotest.test_case "attlist multiple attrs" `Quick
            test_dtd_attlist_multiple_attributes;
          Alcotest.test_case "rejects malformed" `Quick
            test_dtd_rejects_malformed;
          Alcotest.test_case "doctype in document" `Quick
            test_doctype_in_document;
          Alcotest.test_case "external DTD resolution" `Quick
            test_external_dtd_resolution;
          Alcotest.test_case "internal subset wins" `Quick
            test_internal_subset_wins;
        ] );
      ( "schema",
        [
          Alcotest.test_case "of dtd" `Quick test_schema_of_dtd;
          Alcotest.test_case "of document" `Quick test_schema_of_document;
          Alcotest.test_case "descendant multiplicity" `Quick
            test_schema_descendant_multiplicity;
          Alcotest.test_case "recursive schema" `Quick test_schema_recursive;
          Alcotest.test_case "always_via negative" `Quick
            test_schema_always_via_negative;
        ] );
      ("properties", qcheck [ prop_roundtrip; prop_roundtrip_indented; prop_node_count_positive ]);
    ]
