open X3_pattern
open Fixtures

(* --- relax ------------------------------------------------------------- *)

let test_relax_strings () =
  List.iter
    (fun kind ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (Relax.to_string kind))
        (Option.map Relax.to_string (Relax.of_string (Relax.to_string kind))))
    [ Relax.Lnd; Relax.Pc_ad; Relax.Sp ];
  Alcotest.(check bool) "pc_ad alt spelling" true
    (Relax.of_string "pc_ad" = Some Relax.Pc_ad);
  Alcotest.(check bool) "unknown" true (Relax.of_string "XX" = None)

(* --- axis -------------------------------------------------------------- *)

let test_axis_states () =
  let n = axis_n () in
  Alcotest.(check int) "4 structural states" 4 (Axis.state_count n);
  Alcotest.(check bool) "allows lnd" true (Axis.allows_lnd n);
  Alcotest.(check int) "full mask" 3 (Axis.full_mask n);
  let y = axis_y () in
  Alcotest.(check int) "1 state" 1 (Axis.state_count y);
  Alcotest.(check int) "rigid only" 0 (Axis.full_mask y)

let test_axis_sp_needs_grandparent () =
  match
    Axis.make ~name:"$y" ~steps:[ step c "year" ] ~allowed:[ Relax.Sp ]
  with
  | Ok _ -> Alcotest.fail "SP on a unary path must be rejected"
  | Error _ -> ()

let test_axis_pcad_needs_child_edge () =
  match
    Axis.make ~name:"$x" ~steps:[ step d "x" ] ~allowed:[ Relax.Pc_ad ]
  with
  | Ok _ -> Alcotest.fail "PC-AD on an all-descendant path must be rejected"
  | Error _ -> ()

let test_axis_path_string () =
  Alcotest.(check string) "path" "author/name" (Axis.path_to_string (axis_n ()));
  Alcotest.(check string) "desc path" "//publisher/@id"
    (Axis.path_to_string (axis_p ()))

(* --- evaluation semantics ---------------------------------------------- *)

let store = figure1_store ()

let pubs () = X3_xdb.Store.nodes_with_tag store "publication"

let bindings_values axis fact =
  List.map
    (fun (node, validity) -> (X3_xdb.Store.string_value store node, validity))
    (Eval.axis_bindings store axis ~fact)

(* State masks for $n: bit 0 = PC-AD, bit 1 = SP
   (structural relaxations sorted as [Pc_ad; Sp]). *)
let state_rigid = 0
let state_pc = 1
let state_sp = 2
let state_pc_sp = 3

let validity_of_states states =
  List.fold_left (fun acc s -> acc lor (1 lsl s)) 0 states

let test_eval_pub1_authors () =
  let pub1 = (pubs ()).(0) in
  let bs = bindings_values (axis_n ()) pub1 in
  Alcotest.(check int) "two bindings" 2 (List.length bs);
  List.iter
    (fun (v, validity) ->
      Alcotest.(check bool) "name" true (v = "John" || v = "Jane");
      Alcotest.(check int) "valid at all states"
        (validity_of_states [ state_rigid; state_pc; state_sp; state_pc_sp ])
        validity)
    bs

let test_eval_pub3_nested_author () =
  (* Bob's name sits under authors/author: only PC-AD reaches it. *)
  let pub3 = (pubs ()).(2) in
  match bindings_values (axis_n ()) pub3 with
  | [ ("Bob", validity) ] ->
      Alcotest.(check int) "valid only with PC-AD"
        (validity_of_states [ state_pc; state_pc_sp ])
        validity
  | other ->
      Alcotest.failf "unexpected bindings: %d" (List.length other)

let test_eval_pub3_no_publisher () =
  let pub3 = (pubs ()).(2) in
  Alcotest.(check int) "no publisher binding" 0
    (List.length (bindings_values (axis_p ()) pub3))

let test_eval_pub4_publisher_through_pubdata () =
  (* //publisher/@id tolerates the pubData wrapper even in the rigid
     state — the first edge is already descendant. *)
  let pub4 = (pubs ()).(3) in
  match bindings_values (axis_p ()) pub4 with
  | [ ("p1", validity) ] ->
      Alcotest.(check int) "valid at both $p states"
        (validity_of_states [ 0; 1 ])
        validity
  | other -> Alcotest.failf "unexpected bindings: %d" (List.length other)

let test_eval_pub4_year_not_child () =
  let pub4 = (pubs ()).(3) in
  Alcotest.(check int) "year not a child of pub4" 0
    (List.length (bindings_values (axis_y ()) pub4))

let test_eval_pub2_two_years () =
  let pub2 = (pubs ()).(1) in
  Alcotest.(check (list string)) "two years" [ "2004"; "2005" ]
    (List.map fst (bindings_values (axis_y ()) pub2))

let test_validity_monotone () =
  (* If a binding is valid at state s and s ⊆ s', it is valid at s'. *)
  Array.iter
    (fun fact ->
      List.iter
        (fun axis ->
          List.iter
            (fun (_, validity) ->
              List.iter
                (fun s ->
                  List.iter
                    (fun s' ->
                      if
                        s land s' = s
                        && validity land (1 lsl s) <> 0
                        && validity land (1 lsl s') = 0
                      then
                        Alcotest.failf "monotonicity violated: %d -> %d" s s')
                    (Axis.states axis))
                (Axis.states axis))
            (Eval.axis_bindings store axis ~fact))
        [ axis_n (); axis_p (); axis_y () ])
    (pubs ())

let test_facts () =
  let facts = Eval.facts store fact_path in
  Alcotest.(check int) "four publications" 4 (List.length facts)

let test_rows_for_fact_cartesian () =
  let pub2 = (pubs ()).(1) in
  let rows = Eval.rows_for_fact store (query1_axes ()) ~fact:pub2 in
  (* 1 author x 1 publisher x 2 years. *)
  Alcotest.(check int) "cartesian rows" 2 (List.length rows)

let test_rows_none_padding () =
  let pub3 = (pubs ()).(2) in
  let rows = Eval.rows_for_fact store (query1_axes ()) ~fact:pub3 in
  Alcotest.(check int) "one row" 1 (List.length rows);
  let row = List.hd rows in
  Alcotest.(check bool) "publisher cell is None" true
    (row.Witness.Staged.cells.(1).Witness.Staged.value = None)

(* --- witness table ------------------------------------------------------ *)

let test_table_shape () =
  let table = query1_table () in
  (* pub1: 2 rows, pub2: 2, pub3: 1, pub4: 1. *)
  Alcotest.(check int) "rows" 6 (Witness.row_count table);
  Alcotest.(check int) "facts" 4 (Witness.fact_count table)

let test_fact_blocks () =
  let cols = Witness.columnar_of_table (query1_table ()) in
  Alcotest.(check (list int)) "block sizes" [ 2; 2; 1; 1 ]
    (List.init (Witness.Columnar.blocks cols) (fun b ->
         Witness.Columnar.block_hi cols b - Witness.Columnar.block_lo cols b + 1))

(* Values of any length survive: the dictionaries stay in memory, so a
   value far beyond a page (and the old 64 KiB inline-string ceiling)
   decodes whole. *)
let test_dict_huge_value () =
  let big =
    String.init 70_000 (fun i -> Char.chr (Char.code 'a' + (i mod 26)))
  in
  let axes = [| axis_y () |] in
  let staged =
    [
      {
        Witness.Staged.fact = 0;
        cells =
          [| { Witness.Staged.value = Some big; validity = 1; first = true } |];
      };
    ]
  in
  let table = Witness.materialize (small_pool ()) ~axes (List.to_seq staged) in
  let row = List.hd (Witness.to_list table) in
  Alcotest.(check bool) "decodes in memory" true
    (Witness.cell_value table ~axis_index:0 row.Witness.cells.(0) = Some big)

(* --- what goes in comes out ------------------------------------------------ *)

(* Staged rows and a table must agree cell for cell, the table's ids
   decoded through its dictionaries. *)
let holds_staged table (staged : Witness.Staged.row list) =
  let cols = Witness.columnar_of_table table in
  let decode axis id =
    if id < 0 then None else Some (Witness.value table ~axis_index:axis id)
  in
  let facts =
    List.length
      (List.sort_uniq Int.compare
         (List.map (fun (r : Witness.Staged.row) -> r.Witness.Staged.fact) staged))
  in
  Witness.row_count table = List.length staged
  && Witness.Columnar.rows cols = List.length staged
  && Witness.fact_count table = facts
  && Witness.Columnar.blocks cols = facts
  && List.for_all Fun.id
       (List.mapi
          (fun row (r : Witness.Staged.row) ->
            Witness.Columnar.fact cols row = r.Witness.Staged.fact
            && Array.for_all Fun.id
                 (Array.mapi
                    (fun axis (c : Witness.Staged.cell) ->
                      decode axis (Witness.Columnar.id cols ~axis ~row)
                      = c.Witness.Staged.value
                      && Witness.Columnar.validity cols ~axis ~row
                         = c.Witness.Staged.validity
                      && Witness.Columnar.first cols ~axis ~row
                         = c.Witness.Staged.first)
                    r.Witness.Staged.cells))
          staged)

(* Staged rows for 1-4 axes in 1-4 batches of fresh facts, with null
   cells, empty values, random validity and first flags, and one value
   longer than a page. *)
let gen_staged_batches =
  let open QCheck2.Gen in
  let* k = int_range 1 4 in
  let value =
    frequency
      [
        (2, return None);
        (1, return (Some ""));
        (6, map Option.some (string_size ~gen:(char_range 'a' 'c') (int_bound 3)));
      ]
  in
  let cell =
    map3
      (fun value validity first -> { Witness.Staged.value; validity; first })
      value (int_bound 0x7F) bool
  in
  let fact_rows = list_size (int_range 1 3) (array_size (return k) cell) in
  let batch n = list_size n fact_rows in
  let+ first = batch (int_range 1 40)
  and+ appends = list_size (int_bound 3) (batch (int_bound 40)) in
  let next = ref 0 in
  let rows batch =
    List.concat_map
      (fun rows ->
        let fact = !next in
        next := !next + 1 + (fact mod 3);
        List.map (fun cells -> { Witness.Staged.fact; cells }) rows)
      batch
  in
  let first = rows first in
  let appends = List.map rows appends in
  match first with
  | [] -> assert false
  | row :: rest ->
      let cells = Array.copy row.Witness.Staged.cells in
      cells.(0) <-
        { (cells.(0)) with Witness.Staged.value = Some (String.make 1500 'z') };
      (k, { row with Witness.Staged.cells } :: rest, appends)

let prop_staged_roundtrip =
  QCheck2.Test.make ~name:"staged rows = stored columns, live and appended"
    ~count:100 gen_staged_batches (fun (k, first, appends) ->
      let axes =
        Array.init k (fun i ->
            Axis.make_exn ~name:(Printf.sprintf "$a%d" i) ~steps:[ step c "a" ]
              ~allowed:[])
      in
      let table = Witness.materialize (small_pool ()) ~axes (List.to_seq first) in
      List.iter (fun batch -> ignore (Witness.append table batch)) appends;
      let staged = List.concat (first :: appends) in
      holds_staged table staged)

(* --- brute-force reference ------------------------------------------------

   [Eval] checks each candidate bottom-up, from the leaf through its
   ancestors to the fact; the reference below restates the matching rules
   of §2.2 ([Relax]) with nothing but quadratic
   [Store.is_ancestor]/[Store.is_parent] searches over whole tag lists,
   top-down from the fact. Every node with the axis's leaf tag under a
   fact is a candidate; at each structural state a candidate matches when
   a chain of the axis's steps reaches it from the fact. PC-AD turns every
   step into a descendant step; SP re-attaches the leaf under its
   grandparent with a descendant edge, and the leaf's former parent must
   still match below that grandparent. *)

module Brute = struct
  module Store = X3_xdb.Store

  let related store relation ~anc ~desc =
    match relation with
    | X3_xdb.Structural_join.Child -> Store.is_parent store ~parent:anc ~child:desc
    | X3_xdb.Structural_join.Descendant -> Store.is_ancestor store ~anc ~desc

  let relation ~pc_ad (s : Axis.step) = if pc_ad then d else s.Axis.axis

  let rec chain store ~pc_ad ~node steps ~accept =
    match steps with
    | [] -> accept node
    | (s : Axis.step) :: rest ->
        Array.exists
          (fun next ->
            related store (relation ~pc_ad s) ~anc:node ~desc:next
            && chain store ~pc_ad ~node:next rest ~accept)
          (Store.nodes_with_tag store s.Axis.tag)

  let matches store axis ~fact ~binding ~state =
    let pc_ad = Axis.mask_applies axis ~mask:state Relax.Pc_ad in
    if not (Axis.mask_applies axis ~mask:state Relax.Sp) then
      chain store ~pc_ad ~node:fact axis.Axis.steps ~accept:(Int.equal binding)
    else
      match List.rev axis.Axis.steps with
      | _leaf :: parent :: prefix_rev ->
          chain store ~pc_ad ~node:fact (List.rev prefix_rev)
            ~accept:(fun grandparent ->
              Store.is_ancestor store ~anc:grandparent ~desc:binding
              && chain store ~pc_ad ~node:grandparent [ parent ]
                   ~accept:(fun _ -> true))
      | _ -> assert false

  let bindings store axis ~fact =
    let leaf = List.nth axis.Axis.steps (List.length axis.Axis.steps - 1) in
    Array.to_list (Store.nodes_with_tag store leaf.Axis.tag)
    |> List.filter (fun v -> Store.is_ancestor store ~anc:fact ~desc:v)
    |> List.filter_map (fun binding ->
           let validity =
             List.fold_left
               (fun acc state ->
                 if matches store axis ~fact ~binding ~state then
                   acc lor (1 lsl state)
                 else acc)
               0 (Axis.states axis)
           in
           if validity land (1 lsl Axis.full_mask axis) <> 0 then
             Some (binding, validity)
           else None)

  (* Decoded rows: the fact, then per axis (value, validity, first). *)
  let rows store ~axes facts =
    List.concat_map
      (fun fact ->
        let cells =
          Array.to_list axes
          |> List.map (fun axis ->
                 match bindings store axis ~fact with
                 | [] -> [ (None, 0, true) ]
                 | bs ->
                     List.mapi
                       (fun i (v, validity) ->
                         (Some (Store.string_value store v), validity, i = 0))
                       bs)
        in
        let product =
          List.fold_right
            (fun axis_cells tails ->
              List.concat_map
                (fun cell -> List.map (fun tail -> cell :: tail) tails)
                axis_cells)
            cells [ [] ]
        in
        List.map (fun cells -> (fact, cells)) product)
      facts
end

let decoded_rows table =
  List.map
    (fun row ->
      ( row.Witness.fact,
        Array.to_list
          (Array.mapi
             (fun ai c ->
               ( Witness.cell_value table ~axis_index:ai c,
                 c.Witness.validity,
                 c.Witness.first ))
             row.Witness.cells) ))
    (Witness.to_list table)

let test_reference_bindings_figure1 () =
  List.iter
    (fun axis ->
      List.iter
        (fun fact ->
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s bindings of fact %d" axis.Axis.name fact)
            (Brute.bindings store axis ~fact)
            (Eval.axis_bindings store axis ~fact))
        (Eval.facts store fact_path))
    [ axis_n (); axis_p (); axis_y () ]

let test_reference_table_figure1 () =
  let table = query1_table () in
  Alcotest.(check bool) "identical rows" true
    (decoded_rows table
    = Brute.rows store ~axes:(query1_axes ()) (Eval.facts store fact_path))

(* Facts [r] holding small trees over [p], [mid], [other] and nested
   [r]s, with [q] leaves: enough shapes that every structural state of
   the axes below matches a different binding set. A [q] holds one text
   value, mixed content (text around an element), nothing at all, or a
   value plus an [@k] attribute. *)
let gen_relax_doc =
  let module Tree = X3_xml.Tree in
  let open QCheck2.Gen in
  let value = oneofl [ "1"; "2" ] in
  let leaf =
    oneof
      [
        map (fun v -> Tree.elem "q" [ Tree.text v ]) value;
        map2
          (fun v w ->
            Tree.elem "q"
              [ Tree.text v; Tree.elem "b" [ Tree.text w ]; Tree.text "x" ])
          value value;
        pure (Tree.elem "q" []);
        map2
          (fun v k -> Tree.elem ~attrs:[ ("k", k) ] "q" [ Tree.text v ])
          value value;
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      oneof
        [
          leaf;
          map2 Tree.elem
            (oneofl [ "p"; "p"; "mid"; "other"; "r" ])
            (list_size (int_bound 2) (node (depth - 1)));
        ]
  in
  map
    (fun facts ->
      match
        Tree.elem "db" (List.map (fun cs -> Tree.elem "r" cs) facts)
      with
      | Tree.Element e -> Tree.document e
      | _ -> assert false)
    (list_size (int_range 1 6) (list_size (int_bound 3) (node 3)))

let relax_axes () =
  [|
    Axis.make_exn ~name:"$q"
      ~steps:[ step c "p"; step c "q" ]
      ~allowed:[ Relax.Lnd; Relax.Sp; Relax.Pc_ad ];
    Axis.make_exn ~name:"$m"
      ~steps:[ step c "p"; step c "mid"; step c "q" ]
      ~allowed:[ Relax.Sp; Relax.Pc_ad ];
  |]

(* [relax_axes] plus descendant steps inside a path and [@k] leaves;
   several axes share the leaf [q] or [@k]. *)
let eval_axis_pool () =
  Array.append (relax_axes ())
    [|
      Axis.make_exn ~name:"$d"
        ~steps:[ step c "p"; step d "q" ]
        ~allowed:[ Relax.Lnd; Relax.Sp; Relax.Pc_ad ];
      Axis.make_exn ~name:"$k"
        ~steps:[ step c "p"; step c "q"; step c "@k" ]
        ~allowed:[ Relax.Sp; Relax.Pc_ad ];
      Axis.make_exn ~name:"$j"
        ~steps:[ step d "mid"; step c "q"; step c "@k" ]
        ~allowed:[ Relax.Lnd; Relax.Pc_ad ];
      Axis.make_exn ~name:"$x"
        ~steps:[ step c "p"; step d "mid"; step c "q" ]
        ~allowed:[ Relax.Sp; Relax.Pc_ad ];
    |]

(* A document and two or three distinct axes of the pool. *)
let gen_eval_case =
  let open QCheck2.Gen in
  let pool = Array.length (eval_axis_pool ()) in
  pair gen_relax_doc
    (let* n = int_range 2 3 in
     map
       (fun order -> List.filteri (fun i _ -> i < n) order)
       (shuffle_l (List.init pool Fun.id)))

let prop_eval_equals_reference =
  QCheck2.Test.make ~name:"eval = brute-force reference" ~count:150
    gen_eval_case (fun (doc, picks) ->
      let store = X3_xdb.Store.of_document doc in
      let pool = eval_axis_pool () in
      let axes = Array.of_list (List.map (fun i -> pool.(i)) picks) in
      let fact_path = [ step d "r" ] in
      let table = Eval.build_table (small_pool ()) store ~fact_path ~axes in
      decoded_rows table
      = Brute.rows store ~axes (Eval.facts store fact_path))

(* A one-step [//t] fact path reads the tag index; it must select what
   the twig join selects, nested facts and the root included. *)
let prop_facts_equal_twig_join =
  QCheck2.Test.make ~name:"one-step fact path = twig join" ~count:100
    gen_relax_doc (fun doc ->
      let store = X3_xdb.Store.of_document doc in
      List.for_all
        (fun tag ->
          let twig = ref [] in
          X3_xdb.Twig_join.path_solutions store
            [ { X3_xdb.Twig_join.axis = d; tag } ]
            (fun s -> twig := s.(Array.length s - 1) :: !twig);
          Eval.facts store [ step d tag ] = List.sort_uniq Int.compare !twig)
        [ "db"; "r"; "p"; "q"; "@k"; "#text"; "absent" ])

(* --- columnar view ------------------------------------------------------- *)

(* The column-major view is a pure re-encoding: every accessor must agree
   with the evaluator's staged rows, coded through the table's
   dictionaries. *)
let columnar_equals_rows store ~fact_path table =
  let cols = Witness.columnar_of_table table in
  let axes = Witness.axes table in
  let rows =
    Eval.facts store fact_path
    |> List.concat_map (fun fact -> Eval.rows_for_fact store axes ~fact)
    |> List.map (fun (r : Witness.Staged.row) ->
           {
             Witness.fact = r.Witness.Staged.fact;
             cells =
               Array.mapi
                 (fun ai (c : Witness.Staged.cell) ->
                   {
                     Witness.id =
                       (match c.Witness.Staged.value with
                       | None -> Witness.null_id
                       | Some v ->
                           Option.get (Witness.Dict.find (Witness.dict table ai) v));
                     validity = c.Witness.Staged.validity;
                     first = c.Witness.Staged.first;
                   })
                 r.Witness.Staged.cells;
           })
    |> Array.of_list
  in
  let lattice = X3_lattice.Lattice.build (Witness.axes table) in
  let cuboids =
    List.init (X3_lattice.Lattice.size lattice) (X3_lattice.Lattice.cuboid lattice)
  in
  Witness.Columnar.rows cols = Array.length rows
  && Witness.Columnar.blocks cols = Witness.fact_count table
  && Witness.Columnar.axes cols
     = Array.length (Witness.axes table)
  && Array.for_all Fun.id
       (Array.mapi
          (fun r row ->
            let k = Array.length row.Witness.cells in
            Witness.Columnar.fact cols r = row.Witness.fact
            && Array.for_all Fun.id
                 (Array.init k (fun ai ->
                      let c = row.Witness.cells.(ai) in
                      Witness.Columnar.id cols ~axis:ai ~row:r = c.Witness.id
                      && Witness.Columnar.validity cols ~axis:ai ~row:r
                         = c.Witness.validity
                      && Witness.Columnar.first cols ~axis:ai ~row:r
                         = c.Witness.first))
            && List.for_all
                 (fun cuboid ->
                   X3_lattice.Cuboid.represents cuboid cols ~row:r
                   = row_represents cuboid row
                   && X3_lattice.Cuboid.qualifies cuboid cols ~row:r
                      = row_qualifies cuboid row)
                 cuboids)
          rows)
  && (* block ranges partition [0, rows) in order *)
  (let ok = ref true and expect = ref 0 in
   for b = 0 to Witness.Columnar.blocks cols - 1 do
     if Witness.Columnar.block_lo cols b <> !expect then ok := false;
     expect := Witness.Columnar.block_hi cols b + 1
   done;
   !ok && !expect = Array.length rows)

let test_columnar_figure1 () =
  Alcotest.(check bool) "columnar = rows on figure 1" true
    (let store = figure1_store () in
     columnar_equals_rows store ~fact_path
       (Eval.build_table (small_pool ()) store ~fact_path ~axes:(query1_axes ())))

let prop_columnar_equals_rows =
  QCheck2.Test.make ~name:"columnar view = row view" ~count:100
    gen_relax_doc (fun doc ->
      let store = X3_xdb.Store.of_document doc in
      let axes = relax_axes () in
      let fact_path = [ step d "r" ] in
      let table = Eval.build_table (small_pool ()) store ~fact_path ~axes in
      columnar_equals_rows store ~fact_path table)

(* [extend] must give the column set a fresh build of all the rows
   gives, whether it appends in place or copies, and must leave every
   earlier version reading exactly its own rows — including one that is
   extended again after newer versions appended past it. *)
let columnar_same a b =
  let module C = Witness.Columnar in
  C.rows a = C.rows b
  && C.blocks a = C.blocks b
  && C.axes a = C.axes b
  && List.for_all
       (fun blk ->
         C.block_lo a blk = C.block_lo b blk
         && C.block_hi a blk = C.block_hi b blk)
       (List.init (C.blocks a) Fun.id)
  && List.for_all
       (fun row ->
         C.fact a row = C.fact b row
         && C.block_of_row a row = C.block_of_row b row
         && List.for_all
              (fun axis ->
                C.id a ~axis ~row = C.id b ~axis ~row
                && C.tag a ~axis ~row = C.tag b ~axis ~row)
              (List.init (C.axes a) Fun.id))
       (List.init (C.rows a) Fun.id)

let gen_fact_chunks =
  let open QCheck2.Gen in
  let cell =
    map3
      (fun id validity first -> { Witness.id; validity; first })
      (int_range (-1) 5) (int_bound 7) bool
  in
  let fact_rows = list_size (int_range 1 3) (array_size (return 2) cell) in
  (* chunks of facts; facts get consecutive ids across chunks *)
  map
    (fun chunks ->
      let next = ref 0 in
      List.map
        (List.concat_map (fun cells ->
             let fact = !next in
             incr next;
             List.map (fun cells -> { Witness.fact; cells }) cells))
        chunks)
    (list_size (int_range 1 12) (list_size (int_range 0 12) fact_rows))

let prop_columnar_extend =
  QCheck2.Test.make ~name:"extend = build, earlier versions unchanged"
    ~count:200 gen_fact_chunks (fun chunks ->
      let build rows = cols_of_rows ~axes:2 rows in
      match chunks with
      | [] -> true
      | base :: tails ->
          let versions =
            List.fold_left
              (fun acc tail ->
                Witness.Columnar.extend (List.hd acc) tail :: acc)
              [ build base ] tails
            |> List.rev
          in
          let prefixes =
            List.mapi
              (fun i _ -> List.concat (List.filteri (fun j _ -> j <= i) chunks))
              chunks
          in
          let full = build (List.concat chunks) in
          (* The second version has spare room but a newer version wrote
             chunk 2 into it: extending it with the chunks after that one
             must not disturb the newer version. *)
          let branched =
            match versions with
            | _ :: second :: _ ->
                let skip2 = List.filteri (fun j _ -> j <> 2) chunks in
                columnar_same
                  (Witness.Columnar.extend second
                     (List.concat (List.filteri (fun j _ -> j >= 2) skip2)))
                  (build (List.concat skip2))
            | _ -> true
          in
          branched
          && List.for_all2
               (fun version prefix -> columnar_same version (build prefix))
               versions prefixes
          && columnar_same
               (Witness.Columnar.extend (build base) (List.concat tails))
               full)

(* --- mrfi --------------------------------------------------------------- *)

let test_mrfi_query1 () =
  let mrfi = Mrfi.of_axes ~fact_tag:"publication" (query1_axes ()) in
  let str = Mrfi.to_string mrfi in
  (* $n with SP: author branch + promoted name branch; $p chain; $y chain. *)
  Alcotest.(check string) "rendered pattern"
    "publication[.//author]*[.//name]*[.//publisher[.//@id]*]*[./year]*" str

let test_mrfi_no_relaxations () =
  let axis =
    Axis.make_exn ~name:"$a" ~steps:[ step c "a"; step c "b" ] ~allowed:[]
  in
  let mrfi = Mrfi.of_axes ~fact_tag:"f" [| axis |] in
  Alcotest.(check string) "rigid chain kept" "f[./a[./b]*]*"
    (Mrfi.to_string mrfi)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "x3_pattern"
    [
      ( "relax",
        [ Alcotest.test_case "names" `Quick test_relax_strings ] );
      ( "axis",
        [
          Alcotest.test_case "states" `Quick test_axis_states;
          Alcotest.test_case "sp applicability" `Quick
            test_axis_sp_needs_grandparent;
          Alcotest.test_case "pc-ad applicability" `Quick
            test_axis_pcad_needs_child_edge;
          Alcotest.test_case "path string" `Quick test_axis_path_string;
        ] );
      ( "eval",
        [
          Alcotest.test_case "pub1 authors" `Quick test_eval_pub1_authors;
          Alcotest.test_case "pub3 nested author" `Quick
            test_eval_pub3_nested_author;
          Alcotest.test_case "pub3 no publisher" `Quick
            test_eval_pub3_no_publisher;
          Alcotest.test_case "pub4 publisher via pubData" `Quick
            test_eval_pub4_publisher_through_pubdata;
          Alcotest.test_case "pub4 year not child" `Quick
            test_eval_pub4_year_not_child;
          Alcotest.test_case "pub2 two years" `Quick test_eval_pub2_two_years;
          Alcotest.test_case "validity monotone" `Quick test_validity_monotone;
          Alcotest.test_case "facts" `Quick test_facts;
          Alcotest.test_case "cartesian rows" `Quick
            test_rows_for_fact_cartesian;
          Alcotest.test_case "none padding" `Quick test_rows_none_padding;
        ] );
      ( "witness",
        [
          Alcotest.test_case "table shape" `Quick test_table_shape;
          Alcotest.test_case "fact blocks" `Quick test_fact_blocks;
          Alcotest.test_case "dict huge value" `Quick test_dict_huge_value;
          Alcotest.test_case "columnar view on figure 1" `Quick
            test_columnar_figure1;
        ] );
      ( "reference",
        [
          Alcotest.test_case "bindings on figure 1" `Quick
            test_reference_bindings_figure1;
          Alcotest.test_case "table on figure 1" `Quick
            test_reference_table_figure1;
        ] );
      ( "mrfi",
        [
          Alcotest.test_case "query 1" `Quick test_mrfi_query1;
          Alcotest.test_case "no relaxations" `Quick test_mrfi_no_relaxations;
        ] );
      ( "properties",
        qcheck
          [
            prop_staged_roundtrip;
            prop_eval_equals_reference;
            prop_facts_equal_twig_join;
            prop_columnar_equals_rows;
            prop_columnar_extend;
          ] );
    ]
