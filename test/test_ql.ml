open X3_ql

let query1 = X3_workload.Publications.query1

let parse_ok src =
  match Parser.parse src with
  | Ok ast -> ast
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let parse_err src =
  match Parser.parse src with
  | Ok _ -> Alcotest.failf "expected parse error for %S" src
  | Error msg -> msg

(* --- lexer -------------------------------------------------------------- *)

let test_lexer_keywords () =
  match Lexer.tokenize "for $b in doc(\"f.xml\")//a X^3 $b by $n return COUNT($b)" with
  | Ok tokens ->
      Alcotest.(check bool) "starts with for" true (List.hd tokens = Lexer.For);
      Alcotest.(check bool) "contains X3" true (List.mem Lexer.X3 tokens)
  | Error e -> Alcotest.failf "lex error: %s" e.Lexer.message

let test_lexer_pc_ad_single_token () =
  match Lexer.tokenize "PC-AD" with
  | Ok [ Lexer.Ident "PC-AD"; Lexer.Eof ] -> ()
  | Ok _ -> Alcotest.fail "PC-AD should be one identifier"
  | Error e -> Alcotest.failf "lex error: %s" e.Lexer.message

let test_lexer_comment () =
  match Lexer.tokenize "for (: a comment :) $b" with
  | Ok [ Lexer.For; Lexer.Var "$b"; Lexer.Eof ] -> ()
  | Ok ts -> Alcotest.failf "unexpected tokens: %d" (List.length ts)
  | Error e -> Alcotest.failf "lex error: %s" e.Lexer.message

let test_lexer_rejects_garbage () =
  match Lexer.tokenize "for $b %" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

(* --- parser ------------------------------------------------------------- *)

let test_parse_query1 () =
  let ast = parse_ok query1 in
  Alcotest.(check int) "four bindings" 4 (List.length ast.Ast.bindings);
  Alcotest.(check int) "three axes" 3 (List.length ast.Ast.by);
  Alcotest.(check string) "aggregate" "COUNT" ast.Ast.aggregate.Ast.func;
  let n = List.hd ast.Ast.by in
  Alcotest.(check (list string)) "relaxations of $n"
    [ "LND"; "SP"; "PC-AD" ]
    (List.map X3_pattern.Relax.to_string n.Ast.relaxations)

let test_parse_pp_roundtrip () =
  let ast = parse_ok query1 in
  let printed = Format.asprintf "%a" Ast.pp ast in
  let ast' = parse_ok printed in
  Alcotest.(check bool) "pp/parse roundtrip" true (Ast.equal ast ast')

let test_parse_axis_without_relaxations () =
  let ast =
    parse_ok
      {|for $b in doc("x")//r, $a in $b/a X^3 $b by $a return COUNT($b)|}
  in
  Alcotest.(check (list string)) "no relaxations" []
    (List.map X3_pattern.Relax.to_string (List.hd ast.Ast.by).Ast.relaxations)

let test_parse_x3_spellings () =
  List.iter
    (fun kw ->
      ignore
        (parse_ok
           (Printf.sprintf
              {|for $b in doc("x")//r, $a in $b/a %s $b by $a return COUNT($b)|}
              kw)))
    [ "X^3"; "X3"; "x^3" ]

let test_parse_errors () =
  let msg = parse_err "for $b doc" in
  Alcotest.(check bool) "mentions expectation" true
    (String.length msg > 0);
  ignore (parse_err "");
  ignore (parse_err {|for $b in doc("x")//r return COUNT($b)|});
  ignore
    (parse_err {|for $b in doc("x")//r X^3 $b by $a return COUNT($b) extra|})

(* --- compiler ----------------------------------------------------------- *)

let compile_ok src =
  match Compile.parse_and_compile src with
  | Ok c -> c
  | Error msg -> Alcotest.failf "compile failed: %s" msg

let compile_err src =
  match Compile.parse_and_compile src with
  | Ok _ -> Alcotest.failf "expected compile error for %S" src
  | Error msg -> msg

let test_compile_query1 () =
  let { Compile.document; spec } = compile_ok query1 in
  Alcotest.(check string) "document" "book.xml" document;
  Alcotest.(check int) "three axes" 3 (Array.length spec.X3_core.Engine.axes);
  Alcotest.(check string) "fact tag" "publication"
    (X3_core.Engine.fact_tag spec);
  let lattice = X3_lattice.Lattice.build spec.X3_core.Engine.axes in
  Alcotest.(check int) "query 1 lattice has 30 cuboids" 30
    (X3_lattice.Lattice.size lattice)

let test_compile_query1_matches_fixture () =
  (* The hand-built axes used across the test-suite must agree with what
     the language front-end produces. *)
  let { Compile.spec; _ } = compile_ok query1 in
  let expected = X3_workload.Publications.axes () in
  Array.iteri
    (fun i axis ->
      let e = expected.(i) in
      Alcotest.(check string) "name" e.X3_pattern.Axis.name
        axis.X3_pattern.Axis.name;
      Alcotest.(check string) "path"
        (X3_pattern.Axis.path_to_string e)
        (X3_pattern.Axis.path_to_string axis);
      Alcotest.(check (list string)) "relaxations"
        (List.map X3_pattern.Relax.to_string e.X3_pattern.Axis.allowed)
        (List.map X3_pattern.Relax.to_string axis.X3_pattern.Axis.allowed))
    spec.X3_core.Engine.axes

let test_compile_sum () =
  let { Compile.spec; _ } =
    compile_ok
      {|for $b in doc("x")//r, $a in $b/a X^3 $b by $a (LND) return SUM($b/price)|}
  in
  Alcotest.(check bool) "sum func" true
    (spec.X3_core.Engine.func = X3_core.Aggregate.Sum);
  Alcotest.(check bool) "measure path set" true
    (spec.X3_core.Engine.measure_path <> None)

let test_compile_rejects_unbound_axis () =
  let msg =
    compile_err {|for $b in doc("x")//r, $a in $b/a X^3 $b by $z return COUNT($b)|}
  in
  Alcotest.(check bool) "names $z" true
    (String.length msg > 0 && String.contains msg 'z')

let test_compile_rejects_wrong_root () =
  ignore
    (compile_err
       {|for $b in doc("x")//r, $a in $b/a, $c in $a/c
         X^3 $b by $a, $c return COUNT($b)|})

let test_compile_rejects_sum_without_path () =
  ignore
    (compile_err
       {|for $b in doc("x")//r, $a in $b/a X^3 $b by $a return SUM($b)|})

let test_compile_rejects_bad_relaxation_use () =
  (* SP on a unary path is caught by axis validation. *)
  ignore
    (compile_err
       {|for $b in doc("x")//r, $a in $b/a X^3 $b by $a (SP) return COUNT($b)|})

(* --- where clauses --------------------------------------------------------- *)

let test_parse_where () =
  let ast =
    parse_ok
      {|for $b in doc("x")//r, $a in $b/a
        where $b/year >= 2003 and $b/kind = "journal"
        X^3 $b by $a (LND) return COUNT($b)|}
  in
  Alcotest.(check int) "two conditions" 2 (List.length ast.Ast.where);
  let first = List.hd ast.Ast.where in
  Alcotest.(check bool) "ge" true (first.Ast.op = Ast.Ge);
  Alcotest.(check string) "numeric operand" "2003" first.Ast.operand

let test_where_pp_roundtrip () =
  let src =
    {|for $b in doc("x")//r, $a in $b/a
      where $b/year != "1999" and $b//price <= 10.5
      X^3 $b by $a (LND) return COUNT($b)|}
  in
  let ast = parse_ok src in
  let ast' = parse_ok (Format.asprintf "%a" Ast.pp ast) in
  Alcotest.(check bool) "roundtrip" true (Ast.equal ast ast')

let test_where_rejects_non_fact_var () =
  ignore
    (compile_err
       {|for $b in doc("x")//r, $a in $b/a
         where $a/x = "1"
         X^3 $b by $a (LND) return COUNT($b)|})

let test_where_end_to_end () =
  let doc =
    {|<db>
       <r><a>x</a><year>2001</year></r>
       <r><a>x</a><year>2004</year></r>
       <r><a>y</a><year>2005</year></r>
       <r><a>y</a></r>
     </db>|}
  in
  let parsed =
    match X3_xml.Parser.parse doc with Ok d -> d | Error _ -> assert false
  in
  let store = X3_xdb.Store.of_document parsed in
  let run src =
    let { Compile.spec; _ } = compile_ok src in
    let pool =
      X3_storage.Buffer_pool.create ~capacity_pages:64
        (X3_storage.Disk.in_memory ~page_size:1024 ())
    in
    let prepared = X3_core.Engine.prepare ~pool ~store spec in
    let result, _ = X3_core.Engine.run prepared X3_core.Engine.Naive in
    let lattice = X3_core.Engine.lattice prepared in
    match
      X3_core.Cube_result.find result
        ~cuboid:(X3_lattice.Lattice.most_relaxed_id lattice)
        ~key:[]
    with
    | Some cell ->
        int_of_float (X3_core.Aggregate.value X3_core.Aggregate.Count cell)
    | None -> 0
  in
  Alcotest.(check int) "no filter: 4 facts" 4
    (run {|for $b in doc("x")//r, $a in $b/a X^3 $b by $a (LND) return COUNT($b)|});
  Alcotest.(check int) "year >= 2004: 2 facts" 2
    (run
       {|for $b in doc("x")//r, $a in $b/a
         where $b/year >= 2004
         X^3 $b by $a (LND) return COUNT($b)|});
  (* The fourth fact has no year: existential comparison excludes it. *)
  Alcotest.(check int) "year != 2004: 2 facts" 2
    (run
       {|for $b in doc("x")//r, $a in $b/a
         where $b/year != 2004
         X^3 $b by $a (LND) return COUNT($b)|});
  Alcotest.(check int) "conjunction" 1
    (run
       {|for $b in doc("x")//r, $a in $b/a
         where $b/year >= 2002 and $b/a = "x"
         X^3 $b by $a (LND) return COUNT($b)|})

let test_where_string_vs_numeric () =
  (* "10" < "9" as strings, but 10 > 9 numerically; both sides numeric
     means numeric comparison. *)
  let doc = {|<db><r><a>k</a><v>10</v></r></db>|} in
  let parsed =
    match X3_xml.Parser.parse doc with Ok d -> d | Error _ -> assert false
  in
  let store = X3_xdb.Store.of_document parsed in
  let count src =
    let { Compile.spec; _ } = compile_ok src in
    let pool =
      X3_storage.Buffer_pool.create ~capacity_pages:64
        (X3_storage.Disk.in_memory ~page_size:1024 ())
    in
    let prepared = X3_core.Engine.prepare ~pool ~store spec in
    X3_pattern.Witness.fact_count (X3_core.Engine.table prepared)
  in
  Alcotest.(check int) "numeric: 10 > 9" 1
    (count
       {|for $b in doc("x")//r, $a in $b/a
         where $b/v > 9
         X^3 $b by $a (LND) return COUNT($b)|});
  Alcotest.(check int) "string: \"10\" < \"9x\"" 1
    (count
       {|for $b in doc("x")//r, $a in $b/a
         where $b/v < "9x"
         X^3 $b by $a (LND) return COUNT($b)|})

(* --- end to end through the language ------------------------------------- *)

let test_query1_end_to_end () =
  let { Compile.spec; _ } = compile_ok query1 in
  let store = X3_xdb.Store.of_document (X3_workload.Publications.document ()) in
  let pool =
    X3_storage.Buffer_pool.create ~capacity_pages:64
      (X3_storage.Disk.in_memory ~page_size:1024 ())
  in
  let prepared = X3_core.Engine.prepare ~pool ~store spec in
  let result, _ = X3_core.Engine.run prepared X3_core.Engine.Naive in
  let lattice = X3_core.Engine.lattice prepared in
  let top = X3_lattice.Lattice.most_relaxed_id lattice in
  match
    X3_core.Cube_result.find result ~cuboid:top ~key:[]
  with
  | Some cell ->
      Alcotest.(check (float 1e-9)) "COUNT(*) = 4" 4.
        (X3_core.Aggregate.value X3_core.Aggregate.Count cell)
  | None -> Alcotest.fail "missing ALL group"

let () =
  Alcotest.run "x3_ql"
    [
      ( "lexer",
        [
          Alcotest.test_case "keywords" `Quick test_lexer_keywords;
          Alcotest.test_case "PC-AD token" `Quick test_lexer_pc_ad_single_token;
          Alcotest.test_case "comments" `Quick test_lexer_comment;
          Alcotest.test_case "garbage" `Quick test_lexer_rejects_garbage;
        ] );
      ( "parser",
        [
          Alcotest.test_case "query 1" `Quick test_parse_query1;
          Alcotest.test_case "pp roundtrip" `Quick test_parse_pp_roundtrip;
          Alcotest.test_case "axis without relaxations" `Quick
            test_parse_axis_without_relaxations;
          Alcotest.test_case "X^3 spellings" `Quick test_parse_x3_spellings;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "query 1" `Quick test_compile_query1;
          Alcotest.test_case "matches fixture axes" `Quick
            test_compile_query1_matches_fixture;
          Alcotest.test_case "sum" `Quick test_compile_sum;
          Alcotest.test_case "unbound axis" `Quick
            test_compile_rejects_unbound_axis;
          Alcotest.test_case "wrong root" `Quick test_compile_rejects_wrong_root;
          Alcotest.test_case "sum without path" `Quick
            test_compile_rejects_sum_without_path;
          Alcotest.test_case "bad relaxation" `Quick
            test_compile_rejects_bad_relaxation_use;
        ] );
      ( "where",
        [
          Alcotest.test_case "parse" `Quick test_parse_where;
          Alcotest.test_case "pp roundtrip" `Quick test_where_pp_roundtrip;
          Alcotest.test_case "rejects non-fact var" `Quick
            test_where_rejects_non_fact_var;
          Alcotest.test_case "end to end" `Quick test_where_end_to_end;
          Alcotest.test_case "string vs numeric" `Quick
            test_where_string_vs_numeric;
        ] );
      ( "end to end",
        [ Alcotest.test_case "query 1 runs" `Quick test_query1_end_to_end ] );
    ]
