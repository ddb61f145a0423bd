open X3_core
open X3_pattern
open Fixtures

(* --- aggregates ---------------------------------------------------------- *)

let test_aggregate_values () =
  let cell = Aggregate.create () in
  List.iter (Aggregate.add cell) [ 3.; 1.; 4.; 1.; 5. ];
  Alcotest.(check (float 1e-9)) "count" 5. (Aggregate.value Aggregate.Count cell);
  Alcotest.(check (float 1e-9)) "sum" 14. (Aggregate.value Aggregate.Sum cell);
  Alcotest.(check (float 1e-9)) "avg" 2.8 (Aggregate.value Aggregate.Avg cell);
  Alcotest.(check (float 1e-9)) "min" 1. (Aggregate.value Aggregate.Min cell);
  Alcotest.(check (float 1e-9)) "max" 5. (Aggregate.value Aggregate.Max cell)

let test_aggregate_merge () =
  let a = Aggregate.create () and b = Aggregate.create () in
  List.iter (Aggregate.add a) [ 1.; 2. ];
  List.iter (Aggregate.add b) [ 10. ];
  Aggregate.merge ~into:a b;
  Alcotest.(check (float 1e-9)) "count" 3. (Aggregate.value Aggregate.Count a);
  Alcotest.(check (float 1e-9)) "max" 10. (Aggregate.value Aggregate.Max a)

let test_aggregate_empty () =
  let cell = Aggregate.create () in
  Alcotest.(check (float 1e-9)) "count 0" 0.
    (Aggregate.value Aggregate.Count cell);
  Alcotest.(check bool) "avg nan" true
    (Float.is_nan (Aggregate.value Aggregate.Avg cell))

let prop_merge_associative =
  QCheck2.Test.make ~name:"merge order irrelevant for count/sum" ~count:200
    QCheck2.Gen.(pair (list (float_bound_inclusive 100.)) (list (float_bound_inclusive 100.)))
    (fun (xs, ys) ->
      let one = Aggregate.create () in
      List.iter (Aggregate.add one) (xs @ ys);
      let a = Aggregate.create () and b = Aggregate.create () in
      List.iter (Aggregate.add a) xs;
      List.iter (Aggregate.add b) ys;
      Aggregate.merge ~into:a b;
      Aggregate.equal_value Aggregate.Count one a
      && Aggregate.equal_value Aggregate.Sum one a)

(* --- group keys ---------------------------------------------------------- *)

(* A value list through the dictionary boundary: [of_parts] interns it
   into a coded key over one dictionary per axis, [to_parts] decodes it
   back. *)
let parts_roundtrip parts =
  let dicts =
    Array.of_list
      (List.map
         (fun part ->
           let d = Witness.Dict.create () in
           ignore (Witness.Dict.intern d "other" : int);
           ignore (Witness.Dict.intern d part : int);
           d)
         parts)
  in
  let shape =
    Group_key.shape
      ~widths:
        (Array.map (fun d -> Group_key.bits_for (Witness.Dict.size d)) dicts)
      (Array.map (fun _ -> X3_lattice.State.Present 0) dicts)
  in
  match Group_key.of_parts shape ~dicts parts with
  | None -> None
  | Some key -> Some (Group_key.to_parts shape ~dicts key)

let test_key_roundtrip () =
  let parts = [ "John"; ""; "20,03"; "x\x00y"; String.make 70_000 'v' ] in
  Alcotest.(check (option (list string))) "roundtrip" (Some parts)
    (parts_roundtrip parts)

let prop_key_roundtrip =
  QCheck2.Test.make ~name:"group key roundtrip" ~count:300
    QCheck2.Gen.(list_size (int_bound 6) (string_size ~gen:char (int_bound 40)))
    (fun parts -> parts_roundtrip parts = Some parts)

(* --- the running example ------------------------------------------------- *)

let prepared () =
  let spec = Engine.count_spec ~fact_path ~axes:(query1_axes ()) in
  Engine.prepare ~pool:(small_pool ()) ~store:(figure1_store ()) spec

let lattice_of p = Engine.lattice p

let count result ~cuboid ~key_parts =
  match Cube_result.find result ~cuboid ~key:key_parts with
  | Some cell -> int_of_float (Aggregate.value Aggregate.Count cell)
  | None -> 0

(* Locate a cuboid by per-axis states. *)
let cuboid_id p states =
  X3_lattice.Lattice.id (lattice_of p) (Array.of_list states)

let removed = X3_lattice.State.Removed
let present m = X3_lattice.State.Present m

let test_naive_group_by_year () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  let by_year = cuboid_id p [ removed; removed; present 0 ] in
  (* pub 3 counts even though it has no publisher (coverage example). *)
  Alcotest.(check int) "2003" 2 (count result ~cuboid:by_year ~key_parts:[ "2003" ]);
  Alcotest.(check int) "2004" 1 (count result ~cuboid:by_year ~key_parts:[ "2004" ]);
  Alcotest.(check int) "2005" 1 (count result ~cuboid:by_year ~key_parts:[ "2005" ])

let test_naive_publisher_year_disjointness () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  let c = cuboid_id p [ removed; present 0; present 0 ] in
  (* Group (p1, 2003) counts publication 1 once despite two authors. *)
  Alcotest.(check int) "(p1, 2003)" 1
    (count result ~cuboid:c ~key_parts:[ "p1"; "2003" ]);
  Alcotest.(check int) "(p2, 2004)" 1
    (count result ~cuboid:c ~key_parts:[ "p2"; "2004" ]);
  Alcotest.(check int) "(p2, 2005)" 1
    (count result ~cuboid:c ~key_parts:[ "p2"; "2005" ])

let test_naive_all_group () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  let top = X3_lattice.Lattice.most_relaxed_id (lattice_of p) in
  Alcotest.(check int) "all four pubs" 4
    (count result ~cuboid:top ~key_parts:[])

let test_naive_author_relaxation_widens () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  let rigid_n = cuboid_id p [ present 0; removed; removed ] in
  let pc_n = cuboid_id p [ present 1; removed; removed ] in
  (* Rigid: Bob's nested author is missed; PC-AD finds it. *)
  Alcotest.(check int) "rigid misses Bob" 0
    (count result ~cuboid:rigid_n ~key_parts:[ "Bob" ]);
  Alcotest.(check int) "pc-ad finds Bob" 1
    (count result ~cuboid:pc_n ~key_parts:[ "Bob" ]);
  Alcotest.(check int) "John in two pubs" 2
    (count result ~cuboid:rigid_n ~key_parts:[ "John" ])

let test_naive_rigid_cuboid () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  let rigid = X3_lattice.Lattice.rigid_id (lattice_of p) in
  Alcotest.(check int) "4 rigid groups" 4
    (Cube_result.cuboid_size result rigid);
  Alcotest.(check int) "(John,p1,2003)" 1
    (count result ~cuboid:rigid ~key_parts:[ "John"; "p1"; "2003" ])

(* --- algorithm agreement -------------------------------------------------- *)

let correct_algorithms =
  Engine.[ Counter; Buc; Buccust; Td; Tdcust ]

let test_correct_algorithms_agree () =
  let p = prepared () in
  let reference, _ = Engine.run p Engine.Naive in
  let props =
    X3_lattice.Properties.observe (Engine.table p) (lattice_of p)
  in
  List.iter
    (fun algorithm ->
      let result, _ = Engine.run ~props p algorithm in
      match
        Cube_result.first_difference ~func:Aggregate.Count reference result
      with
      | None -> ()
      | Some (cuboid, key, what) ->
          Alcotest.failf "%s differs at cuboid %d (%s): %s"
            (Engine.algorithm_to_string algorithm)
            cuboid (String.concat ", " key) what)
    correct_algorithms

let test_optimised_algorithms_wrong_on_figure1 () =
  (* Figure 1 violates both properties, so the optimised variants must
     produce different (wrong) cubes — exactly §4.3's observation. *)
  let p = prepared () in
  let reference, _ = Engine.run p Engine.Naive in
  List.iter
    (fun algorithm ->
      let result, _ = Engine.run p algorithm in
      Alcotest.(check bool)
        (Engine.algorithm_to_string algorithm ^ " computes a different cube")
        false
        (Cube_result.equal ~func:Aggregate.Count reference result))
    Engine.[ Bucopt; Tdopt; Tdoptall ]

let test_all_algorithms_agree_on_clean_data () =
  let doc =
    parse_ok
      {|<db>
         <r><a>1</a><b>x</b></r>
         <r><a>2</a><b>x</b></r>
         <r><a>1</a><b>y</b></r>
         <r><a>3</a><b>z</b></r>
       </db>|}
  in
  let store = X3_xdb.Store.of_document doc in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
        ~allowed:[ Relax.Lnd ];
      X3_pattern.Axis.make_exn ~name:"$b" ~steps:[ step c "b" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes in
  let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
  let props = X3_lattice.Properties.observe (Engine.table p) (lattice_of p) in
  Alcotest.(check bool) "clean data: all disjoint" true
    (X3_lattice.Properties.all_disjoint props);
  let reference, _ = Engine.run p Engine.Naive in
  List.iter
    (fun algorithm ->
      let result, _ = Engine.run ~props p algorithm in
      Alcotest.(check bool)
        (Engine.algorithm_to_string algorithm ^ " agrees")
        true
        (Cube_result.equal ~func:Aggregate.Count reference result))
    Engine.all_algorithms

let test_counter_multipass () =
  let p = prepared () in
  let config = { Engine.default_config with counter_budget = 3 } in
  let result, instr = Engine.run ~config p Engine.Counter in
  let reference, _ = Engine.run p Engine.Naive in
  Alcotest.(check bool) "still correct" true
    (Cube_result.equal ~func:Aggregate.Count reference result);
  Alcotest.(check bool) "needed multiple passes" true
    (instr.Instrument.passes > 1)

(* TD's hash tier sorts in memory: with the radix tiers off every cuboid
   sorts, yet the run allocates no page on the table's disk and writes
   none back. *)
let test_td_sorts_allocate_no_page () =
  let pool =
    X3_storage.Buffer_pool.create ~capacity_pages:4
      (X3_storage.Disk.in_memory ~page_size:1024 ())
  in
  let spec = Engine.count_spec ~fact_path ~axes:(query1_axes ()) in
  let p = Engine.prepare ~pool ~store:(figure1_store ()) spec in
  X3_storage.Buffer_pool.flush pool;
  let disk = X3_storage.Buffer_pool.disk pool in
  let pages = X3_storage.Disk.page_count disk in
  let writes = (X3_storage.Disk.stats disk).X3_storage.Stats.page_writes in
  let config = { Engine.default_config with radix_bits = 0 } in
  let result, instr = Engine.run ~config p Engine.Td in
  let reference, _ = Engine.run p Engine.Naive in
  Alcotest.(check bool) "in-memory sorts stay correct" true
    (Cube_result.equal ~func:Aggregate.Count reference result);
  Alcotest.(check int) "every cuboid sorted" 30 instr.Instrument.sort_ops;
  Alcotest.(check int) "no page allocated" pages
    (X3_storage.Disk.page_count disk);
  Alcotest.(check int) "no page written" writes
    (X3_storage.Disk.stats disk).X3_storage.Stats.page_writes

let test_instrumentation_sanity () =
  let p = prepared () in
  let _, instr_naive = Engine.run p Engine.Naive in
  Alcotest.(check int) "naive scans once" 1 instr_naive.Instrument.table_scans;
  let _, instr_td = Engine.run p Engine.Td in
  (* One columnarising scan plus one emulated scan per base cuboid. *)
  Alcotest.(check int) "td scans per cuboid" 31 instr_td.Instrument.table_scans;
  Alcotest.(check int) "td radix grouping covers every cuboid" 30
    (instr_td.Instrument.radix_groupings + instr_td.Instrument.hash_groupings);
  let hash_config = { Engine.default_config with radix_bits = 0 } in
  let _, instr_td_hash = Engine.run ~config:hash_config p Engine.Td in
  Alcotest.(check int) "td sorts per cuboid with radix off" 30
    instr_td_hash.Instrument.sort_ops;
  Alcotest.(check int) "td hash groupings with radix off" 30
    instr_td_hash.Instrument.hash_groupings;
  Alcotest.(check int) "td no radix groupings with radix off" 0
    instr_td_hash.Instrument.radix_groupings;
  let _, instr_tdoptall = Engine.run p Engine.Tdoptall in
  Alcotest.(check int) "tdoptall touches base once" 1
    instr_tdoptall.Instrument.base_computations;
  Alcotest.(check int) "tdoptall rolls up the rest" 29
    instr_tdoptall.Instrument.rollups

(* --- measures beyond COUNT ------------------------------------------------ *)

let test_sum_measure () =
  let doc =
    parse_ok
      {|<db>
         <r><a>x</a><price>10</price></r>
         <r><a>x</a><price>5</price></r>
         <r><a>y</a><price>2.5</price></r>
       </db>|}
  in
  let store = X3_xdb.Store.of_document doc in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  let spec =
    {
      Engine.fact_path = [ step d "r" ];
      axes;
      func = Aggregate.Sum;
      measure_path = Some [ step c "price" ];
      filters = [];
    }
  in
  let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
  let result, _ = Engine.run p Engine.Naive in
  let l = lattice_of p in
  let by_a = X3_lattice.Lattice.rigid_id l in
  let sum key_parts =
    match Cube_result.find result ~cuboid:by_a ~key:key_parts with
    | Some cell -> Aggregate.value Aggregate.Sum cell
    | None -> nan
  in
  Alcotest.(check (float 1e-9)) "sum x" 15. (sum [ "x" ]);
  Alcotest.(check (float 1e-9)) "sum y" 2.5 (sum [ "y" ]);
  let top = X3_lattice.Lattice.most_relaxed_id l in
  match Cube_result.find result ~cuboid:top ~key:[] with
  | Some cell ->
      Alcotest.(check (float 1e-9)) "sum all" 17.5
        (Aggregate.value Aggregate.Sum cell)
  | None -> Alcotest.fail "missing ALL group"

(* Three disjoint facts in one group whose measures, 1e16, -1e16 and 1,
   sum to 1 in table order but to 0 in any order that adds 1 to a large
   one first (1e16 + 1 rounds to 1e16). Every family must add a group's
   measures in table order, as NAIVE does, on either grouping tier —
   including the modes that keep no fact id (TDOPT, TDOPTALL, TDCUST's
   representative cuboids), whose sort order within a group is the
   row's alone. *)
(* Every [SUM] cell of [result] carries the bits of NAIVE's. *)
let check_sum_bits ~name ~naive lattice result =
  for cid = 0 to X3_lattice.Lattice.size lattice - 1 do
    let cells = Cube_result.cuboid_table result cid in
    Alcotest.(check int) (name ^ ": cells")
      (Cube_result.cuboid_size naive cid)
      (Group_key.Tbl.length cells);
    Cube_result.iter_cuboid naive cid (fun key cell ->
        Alcotest.(check int64)
          (Printf.sprintf "%s: cuboid %d total = NAIVE's bits" name cid)
          (Int64.bits_of_float cell.Aggregate.total)
          (match Group_key.Tbl.find_opt cells key with
          | Some c -> Int64.bits_of_float c.Aggregate.total
          | None -> Int64.bits_of_float nan))
  done

let sum_spec axes =
  {
    Engine.fact_path = [ step d "r" ];
    axes =
      Array.of_list
        (List.map
           (fun tag ->
             X3_pattern.Axis.make_exn ~name:("$" ^ tag) ~steps:[ step c tag ]
               ~allowed:[ Relax.Lnd ])
           axes);
    func = Aggregate.Sum;
    measure_path = Some [ step c "price" ];
    filters = [];
  }

(* A seeded 6,000-fact table over three axes with dictionaries of 40, 7
   and 300 values, whose prices mix +-1e16 with small values: a group's
   total depends on the order its measures are added in, and its facts
   land in many partitions (BUC) and passes (COUNTER). *)
let sum_order_doc () =
  let rng = Random.State.make [| 6000 |] in
  let b = Buffer.create (6000 * 96) in
  Buffer.add_string b "<db>";
  for _ = 1 to 6000 do
    let price =
      match Random.State.int rng 4 with
      | 0 -> 1e16
      | 1 -> -1e16
      | _ -> Random.State.float rng 100.
    in
    Printf.bprintf b
      "<r><a>a%d</a><b>b%d</b><c>c%d</c><price>%.17g</price></r>"
      (Random.State.int rng 40) (Random.State.int rng 7)
      (Random.State.int rng 300) price
  done;
  Buffer.add_string b "</db>";
  parse_ok (Buffer.contents b)

(* Every family adds a group's measures in table order, as NAIVE does, so
   every SUM cell it computes from base data carries NAIVE's bits — at
   both grouping tiers, and for COUNTER also under a budget that spreads
   the cube over several passes. A cuboid that TDOPTALL or TDCUST rolls
   up from a finer one adds the finer cells' totals instead, so those two
   are held to NAIVE's bits only on the one-group table. *)
let test_sum_in_table_order () =
  let tiny =
    parse_ok
      {|<db>
         <r><a>x</a><price>1e16</price></r>
         <r><a>x</a><price>-1e16</price></r>
         <r><a>x</a><price>1</price></r>
       </db>|}
  in
  let check_doc ~label ~budget ~algorithms doc axes =
    let p =
      Engine.prepare ~pool:(small_pool ())
        ~store:(X3_xdb.Store.of_document doc) (sum_spec axes)
    in
    let lattice = lattice_of p in
    let props = X3_lattice.Properties.observe (Engine.table p) lattice in
    let naive, _ = Engine.run p Engine.Naive in
    List.iter
      (fun radix_bits ->
        let config = { Engine.default_config with Engine.radix_bits } in
        List.iter
          (fun algorithm ->
            let result, _ = Engine.run ~config ~props p algorithm in
            check_sum_bits
              ~name:
                (Printf.sprintf "%s %s, radix_bits %d" label
                   (Engine.algorithm_to_string algorithm)
                   radix_bits)
              ~naive lattice result)
          algorithms;
        let config = { config with Engine.counter_budget = budget } in
        let result, instr = Engine.run ~config p Engine.Counter in
        let name =
          Printf.sprintf "%s COUNTER, budget %d, radix_bits %d" label budget
            radix_bits
        in
        Alcotest.(check bool) (name ^ ": several passes") true
          (instr.Instrument.passes > 1);
        check_sum_bits ~name ~naive lattice result)
      [ 0; 20 ];
    (naive, lattice)
  in
  let naive, lattice =
    check_doc ~label:"tiny" ~budget:1 ~algorithms:Engine.all_algorithms tiny
      [ "a" ]
  in
  Alcotest.(check (float 0.)) "NAIVE sums in table order" 1.
    (match
       Cube_result.find naive ~cuboid:(X3_lattice.Lattice.rigid_id lattice)
         ~key:[ "x" ]
     with
    | Some cell -> cell.Aggregate.total
    | None -> nan);
  ignore
    (check_doc ~label:"seeded" ~budget:5000
       ~algorithms:Engine.[ Naive; Counter; Buc; Bucopt; Buccust; Td; Tdopt ]
       (sum_order_doc ())
       [ "a"; "b"; "c" ])

(* --- WHERE-clause semantics (Engine.filter_holds) ------------------------- *)

let test_filter_holds_edge_cases () =
  let doc =
    parse_ok
      {|<db>
         <r><v>9</v></r>
         <r><v>2</v></r>
         <r><v>abc</v></r>
         <r><v></v></r>
         <r></r>
         <r><v>2</v><v>50</v></r>
       </db>|}
  in
  let store = X3_xdb.Store.of_document doc in
  let facts = Array.of_list (Eval.facts store [ step d "r" ]) in
  let holds i op operand =
    Engine.filter_holds store
      { Engine.filter_path = [ step c "v" ]; op; operand }
      ~fact:facts.(i)
  in
  (* Both sides numeric: compare as numbers ("9" < "10" despite "9" > "10"
     lexicographically, and "2" > "10" lexicographically but not really). *)
  Alcotest.(check bool) "9 < 10 numerically" true (holds 0 Engine.Lt "10");
  Alcotest.(check bool) "2 < 10 numerically" true (holds 1 Engine.Lt "10");
  Alcotest.(check bool) "2 not > 10" false (holds 1 Engine.Gt "10");
  (* Either side non-numeric: lexicographic. *)
  Alcotest.(check bool) "abc > 10 lexicographically" true
    (holds 2 Engine.Gt "10");
  Alcotest.(check bool) "abc not <= 10" false (holds 2 Engine.Le "10");
  (* Empty strings are not numbers; they compare lexicographically. *)
  Alcotest.(check bool) "empty = empty" true (holds 3 Engine.Eq "");
  Alcotest.(check bool) "empty < 0" true (holds 3 Engine.Lt "0");
  Alcotest.(check bool) "empty <> x" true (holds 3 Engine.Neq "x");
  (* No binding at all: existential semantics make every predicate false —
     including Neq, which is not "not Eq" over an empty binding set. *)
  Alcotest.(check bool) "missing binding fails Eq" false (holds 4 Engine.Eq "9");
  Alcotest.(check bool) "missing binding fails Neq" false
    (holds 4 Engine.Neq "9");
  Alcotest.(check bool) "missing binding fails Lt" false (holds 4 Engine.Lt "9");
  (* Multiple bindings: some binding suffices, for every operator. *)
  Alcotest.(check bool) "one of {2,50} = 50" true (holds 5 Engine.Eq "50");
  Alcotest.(check bool) "one of {2,50} < 5" true (holds 5 Engine.Lt "5");
  Alcotest.(check bool) "one of {2,50} > 40" true (holds 5 Engine.Gt "40");
  Alcotest.(check bool) "none of {2,50} = 7" false (holds 5 Engine.Eq "7");
  Alcotest.(check bool) "some of {2,50} <> 50" true (holds 5 Engine.Neq "50")

let test_filter_prunes_facts () =
  let doc =
    parse_ok
      {|<db>
         <r><a>x</a><v>10</v></r>
         <r><a>x</a><v>3</v></r>
         <r><a>y</a></r>
       </db>|}
  in
  let store = X3_xdb.Store.of_document doc in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  let spec =
    {
      Engine.fact_path = [ step d "r" ];
      axes;
      func = Aggregate.Count;
      measure_path = None;
      filters =
        [ { Engine.filter_path = [ step c "v" ]; op = Engine.Ge; operand = "5" } ];
    }
  in
  let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
  Alcotest.(check int) "only the v>=5 fact survives the WHERE clause" 1
    (Witness.fact_count (Engine.table p))

(* --- other aggregate functions across all algorithms ----------------------- *)

let clean_numeric_prepared () =
  let doc =
    parse_ok
      {|<db>
         <r><a>x</a><v>10</v></r>
         <r><a>x</a><v>4</v></r>
         <r><a>y</a><v>7</v></r>
         <r><a>y</a><v>1</v></r>
         <r><a>z</a><v>5</v></r>
       </db>|}
  in
  let store = X3_xdb.Store.of_document doc in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  fun func ->
    let spec =
      {
        Engine.fact_path = [ step d "r" ];
        axes;
        func;
        measure_path = Some [ step c "v" ];
        filters = [];
      }
    in
    Engine.prepare ~pool:(small_pool ()) ~store spec

let test_all_aggregates_all_algorithms () =
  let prepare = clean_numeric_prepared () in
  List.iter
    (fun func ->
      let p = prepare func in
      let props =
        X3_lattice.Properties.observe (Engine.table p) (Engine.lattice p)
      in
      let reference, _ = Engine.run p Engine.Naive in
      List.iter
        (fun algorithm ->
          let result, _ = Engine.run ~props p algorithm in
          Alcotest.(check bool)
            (Aggregate.func_to_string func ^ " via "
            ^ Engine.algorithm_to_string algorithm)
            true
            (Cube_result.equal ~func reference result))
        Engine.all_algorithms)
    Aggregate.[ Count; Sum; Avg; Min; Max ]

let test_aggregate_expected_values () =
  let prepare = clean_numeric_prepared () in
  let p = prepare Aggregate.Avg in
  let result, _ = Engine.run p Engine.Naive in
  let rigid = X3_lattice.Lattice.rigid_id (Engine.lattice p) in
  let value func key =
    match Cube_result.find result ~cuboid:rigid ~key:[ key ] with
    | Some cell -> Aggregate.value func cell
    | None -> nan
  in
  Alcotest.(check (float 1e-9)) "avg x" 7. (value Aggregate.Avg "x");
  Alcotest.(check (float 1e-9)) "sum y" 8. (value Aggregate.Sum "y");
  Alcotest.(check (float 1e-9)) "min y" 1. (value Aggregate.Min "y");
  Alcotest.(check (float 1e-9)) "max x" 10. (value Aggregate.Max "x")

(* --- axes that cannot be removed ------------------------------------------- *)

let test_non_lnd_axis () =
  (* $a has no LND: every cuboid groups on it; the lattice halves. *)
  let doc = parse_ok "<db><r><a>1</a><b>x</b></r><r><a>2</a><b>x</b></r></db>" in
  let store = X3_xdb.Store.of_document doc in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ] ~allowed:[];
      X3_pattern.Axis.make_exn ~name:"$b" ~steps:[ step c "b" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes in
  let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
  Alcotest.(check int) "lattice size 2" 2
    (X3_lattice.Lattice.size (Engine.lattice p));
  let reference, _ = Engine.run p Engine.Naive in
  let props = X3_lattice.Properties.observe (Engine.table p) (Engine.lattice p) in
  List.iter
    (fun algorithm ->
      let result, _ = Engine.run ~props p algorithm in
      Alcotest.(check bool)
        (Engine.algorithm_to_string algorithm ^ " agrees")
        true
        (Cube_result.equal ~func:Aggregate.Count reference result))
    Engine.all_algorithms

(* --- correct_under table ---------------------------------------------------- *)

let test_correct_under () =
  let check algorithm ~disjoint ~coverage expected =
    Alcotest.(check bool)
      (Engine.algorithm_to_string algorithm)
      expected
      (Engine.correct_under algorithm ~disjoint ~coverage)
  in
  List.iter
    (fun a -> check a ~disjoint:false ~coverage:false true)
    Engine.[ Naive; Counter; Buc; Buccust; Td; Tdcust ];
  check Engine.Bucopt ~disjoint:false ~coverage:true false;
  check Engine.Bucopt ~disjoint:true ~coverage:false true;
  check Engine.Tdopt ~disjoint:false ~coverage:true false;
  check Engine.Tdoptall ~disjoint:true ~coverage:false false;
  check Engine.Tdoptall ~disjoint:true ~coverage:true true

let test_counter_budget_one () =
  (* One counter at a time: maximal eviction pressure, still correct. *)
  let p = prepared () in
  let reference, _ = Engine.run p Engine.Naive in
  let config = { Engine.default_config with counter_budget = 1 } in
  let result, instr = Engine.run ~config p Engine.Counter in
  Alcotest.(check bool) "correct under extreme pressure" true
    (Cube_result.equal ~func:Aggregate.Count reference result);
  Alcotest.(check bool) "many passes" true (instr.Instrument.passes >= 10)

(* --- per-cuboid group keys ------------------------------------------------ *)

(* Random axis dictionary sizes (some 2^30-sized, so a cuboid keeping
   three of them is wide), one id per axis, and a random present/removed
   cuboid. *)
let gen_packed_case =
  let open QCheck2.Gen in
  let* sizes =
    list_size (int_range 1 6)
      (oneofl [ 1; 2; 3; 7; 100; 65_536; 1 lsl 30 ])
  in
  let* ids = flatten_l (List.map (fun n -> int_bound (n - 1)) sizes) in
  let* present = flatten_l (List.map (fun _ -> bool) sizes) in
  return (Array.of_list sizes, Array.of_list ids, Array.of_list present)

let cuboid_of_bools bools =
  Array.map (fun p -> if p then present 0 else removed) bools

let shape_of_sizes sizes bools =
  Group_key.shape
    ~widths:(Array.map Group_key.bits_for sizes)
    (cuboid_of_bools bools)

(* [gen_packed_case]'s sizes and cuboid plus 2-6 rows, each cell an id
   (sometimes unbound) and a validity (sometimes 0, invalid at the
   cuboid's state 0). *)
let gen_rows_case =
  let open QCheck2.Gen in
  let* sizes, _, bools = gen_packed_case in
  let cell n =
    pair
      (frequency [ (1, return (-1)); (6, int_bound (n - 1)) ])
      (frequency [ (1, return 0); (6, return 1) ])
  in
  let* rows =
    list_size (int_range 2 6)
      (flatten_l (List.map cell (Array.to_list sizes)))
  in
  return (sizes, bools, List.map Array.of_list rows)

(* Every key path agrees on every qualifying row: [Radix.load] into a
   scratch, [Radix.key]'s compact key and [of_axis_ids]. A key is [Packed]
   iff the cuboid's own present-axis bits are <= 62 and its fields read
   back the ids. [Group_key.compare], TD's sort order, is antisymmetric
   and 0 exactly where [Group_key.equal] holds. *)
let prop_packed_key_roundtrip =
  QCheck2.Test.make ~name:"packed key roundtrip (incl. wide fallback)"
    ~count:300 gen_rows_case (fun (sizes, bools, rows) ->
      let shape = shape_of_sizes sizes bools in
      let own_bits = ref 0 in
      Array.iteri
        (fun ai p ->
          if p then own_bits := !own_bits + Group_key.bits_for sizes.(ai))
        bools;
      let cols =
        cols_of_rows ~axes:(Array.length sizes)
          (List.mapi
             (fun fact row ->
               {
                 Witness.fact;
                 cells =
                   Array.map
                     (fun (id, validity) ->
                       { Witness.id; validity; first = true })
                     row;
               })
             rows)
      in
      let cur = Radix.cursor shape cols in
      let scratch = Group_key.make_scratch shape in
      let ok = ref (shape.Group_key.bits = !own_bits) in
      let keys = ref [] in
      List.iteri
        (fun r row ->
          let qualifies =
            Array.for_all Fun.id
              (Array.mapi
                 (fun ai (id, validity) ->
                   (not bools.(ai)) || (id >= 0 && validity = 1))
                 row)
          in
          ok := !ok && Radix.load cur scratch r = qualifies;
          if shape.Group_key.packed then
            ok := !ok && Radix.key cur r >= 0 = qualifies;
          if qualifies then begin
            let ids = Array.map fst row in
            let key = Group_key.of_axis_ids shape ids in
            let form_ok =
              match key with
              | Group_key.Packed k -> !own_bits <= 62 && Radix.key cur r = k
              | Group_key.Wide _ -> !own_bits > 62
            in
            let fields_ok =
              Array.for_all Fun.id
                (Array.mapi
                   (fun j ai -> Group_key.field shape key j = ids.(ai))
                   shape.Group_key.present)
            in
            ok :=
              !ok && form_ok && fields_ok
              && Group_key.equal key (Group_key.freeze scratch);
            keys := key :: !keys
          end)
        rows;
      let sign c = Int.compare c 0 in
      !ok
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 let c = Group_key.compare a b in
                 sign c = -sign (Group_key.compare b a)
                 && (c = 0) = Group_key.equal a b)
               !keys)
           !keys)

(* [project] along every lattice edge out of the cuboid (one present
   axis removed), and along a drawn multi-step coarsening, equals the key
   built directly at the coarser cuboid — packed or wide on either side. *)
let prop_packed_key_project =
  QCheck2.Test.make ~name:"packed key projection drops removed axes"
    ~count:300
    QCheck2.Gen.(
      pair gen_packed_case
        (list_size (int_range 1 6) bool))
    (fun ((sizes, ids, bools), keep) ->
      let finer = shape_of_sizes sizes bools in
      let key = Group_key.of_axis_ids finer ids in
      let keep = Array.of_list keep in
      let coarsenings =
        Array.mapi (fun ai p -> p && ai < Array.length keep && keep.(ai)) bools
        :: List.map
             (fun drop -> Array.mapi (fun ai p -> p && ai <> drop) bools)
             (Array.to_list finer.Group_key.present)
      in
      List.for_all
        (fun coarse ->
          let coarser = shape_of_sizes sizes coarse in
          Group_key.equal
            (Group_key.project (Group_key.edge ~finer ~coarser) key)
            (Group_key.of_axis_ids coarser ids))
        coarsenings)

let test_long_value_kept_whole () =
  (* Group keys once carried u16 component lengths, which silently
     truncated (or refused) values of 64 KiB and more. Values now live
     only in the dictionaries, which have no such ceiling: a 64 KiB value
     groups, looks up and prints whole. *)
  let big = String.make 0x10000 'b' in
  let doc =
    parse_ok
      (Printf.sprintf "<db><r><a>%s</a></r><r><a>%s</a></r></db>" big big)
  in
  let store = X3_xdb.Store.of_document doc in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes in
  let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
  let result, _ = Engine.run p Engine.Naive in
  let rigid = X3_lattice.Lattice.rigid_id (Engine.lattice p) in
  Alcotest.(check int) "one huge-valued group" 1
    (Cube_result.cuboid_size result rigid);
  Alcotest.(check (option (float 1e-9))) "both facts counted" (Some 2.)
    (Option.map
       (Aggregate.value Aggregate.Count)
       (Cube_result.find result ~cuboid:rigid ~key:[ big ]));
  let printed =
    Format.asprintf "%a" (Cube_result.pp ?max_groups:None ~func:Aggregate.Count)
      result
  in
  Alcotest.(check bool) "printed whole" true
    (X3_xml.Str_search.find printed ~start:0 ("(" ^ big ^ ") ") <> None)

(* --- coded path vs legacy string grouping --------------------------------- *)

(* The string keys groups had before dictionary encoding: each value as
   [u16 LE length | bytes]. Test-local, as an order reference independent
   of the engine: [String.compare] over these encodings is the historical
   group order. *)
let legacy_encode parts =
  let buf = Buffer.create 32 in
  List.iter
    (fun part ->
      let n = String.length part in
      assert (n <= 0xFFFF);
      Buffer.add_char buf (Char.chr (n land 0xFF));
      Buffer.add_char buf (Char.chr (n lsr 8));
      Buffer.add_string buf part)
    parts;
  Buffer.contents buf

let legacy_order (a, _) (b, _) =
  String.compare (legacy_encode a) (legacy_encode b)

(* Reference cube computed the way the engine grouped before dictionary
   encoding: keys assembled from decoded cell values, plain Hashtbl,
   sorted in the historical order. Every algorithm's decode-on-export
   output must be bit-identical. *)
let legacy_reference_cells p =
  let table = Engine.table p in
  let lattice = Engine.lattice p in
  let measure = Engine.measure p in
  let key_parts cuboid row =
    let parts = ref [] in
    Array.iteri
      (fun ai state ->
        match state with
        | X3_lattice.State.Removed -> ()
        | X3_lattice.State.Present _ -> (
            match
              Witness.cell_value table ~axis_index:ai row.Witness.cells.(ai)
            with
            | Some v -> parts := v :: !parts
            | None -> assert false))
      cuboid;
    List.rev !parts
  in
  Array.map
    (fun cid ->
      let cuboid = X3_lattice.Lattice.cuboid lattice cid in
      let groups : (string list, float) Hashtbl.t = Hashtbl.create 64 in
      (* Rows of one fact are contiguous: [seen] dedups within a fact. *)
      let seen = Hashtbl.create 4 and current = ref (-1) in
      List.iter
        (fun row ->
          if row.Witness.fact <> !current then begin
            current := row.Witness.fact;
            Hashtbl.reset seen
          end;
          if row_represents cuboid row then begin
            let key = key_parts cuboid row in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              Hashtbl.replace groups key
                (Option.value (Hashtbl.find_opt groups key) ~default:0.
                +. measure row.Witness.fact)
            end
          end)
        (Witness.to_list table);
      Hashtbl.fold (fun key v acc -> (key, v) :: acc) groups []
      |> List.sort legacy_order)
    (X3_lattice.Lattice.by_degree lattice)

let test_coded_path_matches_legacy_grouping () =
  let p = prepared () in
  let expected = legacy_reference_cells p in
  let props = X3_lattice.Properties.observe (Engine.table p) (lattice_of p) in
  List.iter
    (fun algorithm ->
      let result, _ = Engine.run ~props p algorithm in
      Array.iteri
        (fun i cid ->
          let got =
            List.map
              (fun (values, cell) ->
                (Array.to_list values, Aggregate.value Aggregate.Count cell))
              (Cube_result.cuboid_cells result cid)
          in
          Alcotest.(check (list (pair (list string) (float 1e-9))))
            (Printf.sprintf "%s cuboid %d"
               (Engine.algorithm_to_string algorithm)
               cid)
            expected.(i) got)
        (X3_lattice.Lattice.by_degree (lattice_of p)))
    (Engine.Naive :: correct_algorithms)

(* --- materialized intermediates (§3.6) ------------------------------------ *)

let context_of p =
  X3_core.Context.create ~table:(Engine.table p) ~lattice:(Engine.lattice p)
    ~measure:(Engine.measure p) ()

let observed p = X3_lattice.Properties.observe (Engine.table p) (lattice_of p)

let test_materialize_matches_naive () =
  let p = prepared () in
  let ctx = context_of p in
  let reference, _ = Engine.run p Engine.Naive in
  let cuboid = X3_lattice.Lattice.rigid_id (lattice_of p) in
  let intermediate = Materialized.materialize ctx ~props:(observed p) ~cuboid in
  List.iter
    (fun (key, cell) ->
      match Cube_result.find reference ~cuboid ~key with
      | Some expected ->
          Alcotest.(check bool) "cell agrees" true
            (Aggregate.equal_value Aggregate.Count expected cell)
      | None -> Alcotest.fail "group not in reference")
    (Materialized.cells intermediate);
  Alcotest.(check int) "group count" 4
    (Materialized.group_count intermediate)

let test_materialized_rollup_refuses_non_disjoint () =
  (* (n:{PC-AD}, p:removed, y:rigid) up to group-by year is covered (PC-AD
     reaches Bob), but publication 1 has two authors: merging its two
     author groups' cells would count it twice, so the view is refused
     for disjointness, not coverage. *)
  let p = prepared () in
  let ctx = context_of p in
  let props = observed p in
  let finer = cuboid_id p [ present 1; removed; present 0 ] in
  let coarser = cuboid_id p [ removed; removed; present 0 ] in
  let intermediate = Materialized.materialize ctx ~props ~cuboid:finer in
  match Materialized.rollup ctx ~props intermediate ~coarser with
  | Error X3_lattice.Properties.Not_disjoint -> ()
  | Error r ->
      Alcotest.failf "refused for %s, not disjointness"
        (X3_lattice.Properties.refusal_name r)
  | Ok _ -> Alcotest.fail "a non-disjoint view must not be rolled up"

let test_materialized_rollup_refuses_uncovered () =
  (* From the rigid-$n intermediate, group-by year misses publication 3
     (nested author): every path is uncovered, so rollup must refuse —
     §3.6's "incompleteness of coverage directly affects the computation
     from these intermediate results". *)
  let p = prepared () in
  let ctx = context_of p in
  let props = observed p in
  let finer = cuboid_id p [ present 0; removed; present 0 ] in
  let coarser = cuboid_id p [ removed; removed; present 0 ] in
  let intermediate = Materialized.materialize ctx ~props ~cuboid:finer in
  (match Materialized.rollup ctx ~props intermediate ~coarser with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "uncovered rollup must be refused");
  (* By publisher is disjoint (one publisher per publication), but
     publication 3 has none: the ALL cuboid cannot be rolled up from it. *)
  let by_publisher = cuboid_id p [ removed; present 0; removed ] in
  let all = cuboid_id p [ removed; removed; removed ] in
  let view = Materialized.materialize ctx ~props ~cuboid:by_publisher in
  match Materialized.rollup ctx ~props view ~coarser:all with
  | Error X3_lattice.Properties.Uncovered -> ()
  | Error r ->
      Alcotest.failf "refused for %s, not coverage"
        (X3_lattice.Properties.refusal_name r)
  | Ok _ -> Alcotest.fail "uncovered rollup must be refused"

let test_materialized_rollup_rejects_non_relaxation () =
  let p = prepared () in
  let ctx = context_of p in
  let props = X3_lattice.Properties.none (lattice_of p) in
  let a = cuboid_id p [ present 0; removed; removed ] in
  let b = cuboid_id p [ removed; present 0; removed ] in
  let intermediate = Materialized.materialize ctx ~props ~cuboid:a in
  match Materialized.rollup ctx ~props intermediate ~coarser:b with
  | Error X3_lattice.Properties.Not_relaxation -> ()
  | Error _ | Ok _ -> Alcotest.fail "incomparable cuboids must be rejected"

(* --- export ---------------------------------------------------------------- *)

let test_export_csv () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  let csv = Export.csv_string ~func:Aggregate.Count result in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check string) "header" "cuboid,degree,$n,$p,$y,COUNT"
    (List.hd lines);
  (* One data line per cell. *)
  Alcotest.(check int) "line count"
    (Cube_result.total_cells result)
    (List.length (List.tl lines));
  Alcotest.(check bool) "ALL marker present" true
    (List.exists (fun l -> String.length l > 0 &&
        List.exists (String.equal "(ALL)") (String.split_on_char ',' l))
       lines)

let test_export_csv_quoting () =
  let doc =
    parse_ok {|<db><r><a>x,y "z"</a></r></db>|}
  in
  let store = X3_xdb.Store.of_document doc in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes in
  let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
  let result, _ = Engine.run p Engine.Naive in
  let csv = Export.csv_string ~func:Aggregate.Count result in
  Alcotest.(check bool) "field quoted" true
    (let contains s sub =
       let n = String.length sub and h = String.length s in
       let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     contains csv {|"x,y ""z"""|})

let test_export_json_shape () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  let json = Export.json_string ~func:Aggregate.Count result in
  let count c = String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc) 0 json in
  Alcotest.(check int) "balanced brackets" (count '[') (count ']');
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check bool) "mentions all cuboids" true
    (count '{' > X3_lattice.Lattice.size (lattice_of p))

let contains ~needle s =
  let n = String.length needle and h = String.length s in
  let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
  go 0

(* Every printer spells a value so that it reads back to the same bits:
   a SUM past six significant digits prints whole, in CSV, JSON and
   table form; integral values, [-0], [nan] and [1e15] keep the
   spellings they always had. *)
let test_export_float_spelling () =
  let cube func facts =
    let doc =
      parse_ok
        ("<db>"
        ^ String.concat ""
            (List.map
               (fun (a, price) ->
                 Printf.sprintf "<r><a>%s</a><price>%s</price></r>" a price)
               facts)
        ^ "</db>")
    in
    let axes =
      [|
        X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
          ~allowed:[ Relax.Lnd ];
      |]
    in
    let spec =
      {
        Engine.fact_path = [ step d "r" ];
        axes;
        func;
        measure_path = Some [ step c "price" ];
        filters = [];
      }
    in
    let p =
      Engine.prepare ~pool:(small_pool ()) ~store:(X3_xdb.Store.of_document doc)
        spec
    in
    (X3_lattice.Lattice.rigid_id (lattice_of p), fst (Engine.run p Engine.Naive))
  in
  let has label needle s =
    Alcotest.(check bool) (label ^ ": " ^ needle) true (contains ~needle s)
  in
  let rigid, sums =
    cube Aggregate.Sum
      [ ("x", "1002202387"); ("x", "0.76"); ("y", "0.1"); ("y", "0.2");
        ("n", "nan") ]
  in
  let csv = Export.csv_string ~func:Aggregate.Sum sums in
  has "csv" (Printf.sprintf "\n%d,0,x,1002202387.76\n" rigid) csv;
  has "csv" (Printf.sprintf "\n%d,0,y,0.30000000000000004\n" rigid) csv;
  has "csv" (Printf.sprintf "\n%d,0,n,nan\n" rigid) csv;
  let json = Export.json_string ~func:Aggregate.Sum sums in
  has "json" {|{"key": ["x"], "value": 1002202387.76}|} json;
  has "json" {|{"key": ["n"], "value": null}|} json;
  let table = Format.asprintf "%a" (Cube_result.pp ~max_groups:20 ~func:Aggregate.Sum) sums in
  has "table" "(x) SUM=1002202387.76" table;
  has "table" "(y) SUM=0.30000000000000004" table;
  let rigid, mins =
    cube Aggregate.Min [ ("z", "-0"); ("w", "1e15"); ("v", "7") ]
  in
  let csv = Export.csv_string ~func:Aggregate.Min mins in
  has "csv" (Printf.sprintf "\n%d,0,z,-0\n" rigid) csv;
  has "csv" (Printf.sprintf "\n%d,0,w,1e+15\n" rigid) csv;
  has "csv" (Printf.sprintf "\n%d,0,v,7\n" rigid) csv;
  List.iter
    (fun (v, s) -> Alcotest.(check string) s s (Aggregate.float_repr v))
    [
      (0.1 +. 0.2, "0.30000000000000004");
      (-0., "-0");
      (1e15, "1e+15");
      (nan, "nan");
      (1234567., "1234567");
      (0.5, "0.5");
    ]

(* --- pivot (cross-tab) ------------------------------------------------------- *)

let test_pivot_figure1 () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  (* Rows: $n at PC-AD (so Bob appears); columns: $y rigid. *)
  match
    Pivot.make ~func:Aggregate.Count ~row_axis:0 ~row_state:1 ~col_axis:2
      result
  with
  | Error msg -> Alcotest.failf "pivot failed: %s" msg
  | Ok pivot ->
      Alcotest.(check (list string)) "rows" [ "Ann"; "Bob"; "Jane"; "John" ]
        pivot.Pivot.row_labels;
      Alcotest.(check (list string)) "cols" [ "2003"; "2004"; "2005" ]
        pivot.Pivot.col_labels;
      (* John x 2004 = publication 2. *)
      let r = 3 and c = 1 in
      Alcotest.(check (option (float 1e-9))) "John 2004" (Some 1.)
        pivot.Pivot.body.(r).(c);
      (* Ann has no year binding: empty body row, but a row total of 1. *)
      Alcotest.(check bool) "Ann row empty" true
        (Array.for_all (fun v -> v = None) pivot.Pivot.body.(0));
      Alcotest.(check (option (float 1e-9))) "Ann total" (Some 1.)
        pivot.Pivot.row_totals.(0);
      Alcotest.(check (option (float 1e-9))) "grand total" (Some 4.)
        pivot.Pivot.grand_total;
      (* Rendering sanity. *)
      let rendered = Format.asprintf "%a" Pivot.pp pivot in
      Alcotest.(check bool) "mentions total" true
        (String.length rendered > 0)

let test_pivot_rejects_same_axis () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  match Pivot.make ~func:Aggregate.Count ~row_axis:1 ~col_axis:1 result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "same axis twice must be rejected"

let test_pivot_marginals_consistent () =
  (* Column totals are the marginal cuboid, not the sum of the body — with
     coverage failures they can exceed it; on clean data they agree. *)
  let doc =
    parse_ok
      {|<db>
         <r><a>x</a><b>1</b></r>
         <r><a>x</a><b>2</b></r>
         <r><a>y</a><b>1</b></r>
       </db>|}
  in
  let store = X3_xdb.Store.of_document doc in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
        ~allowed:[ Relax.Lnd ];
      X3_pattern.Axis.make_exn ~name:"$b" ~steps:[ step c "b" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes in
  let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
  let result, _ = Engine.run p Engine.Naive in
  match Pivot.make ~func:Aggregate.Count ~row_axis:0 ~col_axis:1 result with
  | Error msg -> Alcotest.failf "pivot: %s" msg
  | Ok pivot ->
      let sum_opt arr =
        Array.fold_left
          (fun acc v -> acc +. Option.value v ~default:0.)
          0. arr
      in
      Alcotest.(check (float 1e-9)) "row totals sum to grand" 3.
        (sum_opt pivot.Pivot.row_totals);
      Alcotest.(check (float 1e-9)) "col totals sum to grand" 3.
        (sum_opt pivot.Pivot.col_totals)

(* --- randomized cross-checking -------------------------------------------- *)

(* Random shallow documents over a small vocabulary with repeats and
   missing children, cubed on two axes: every always-correct algorithm must
   match NAIVE, and property-respecting optimised variants must match when
   the observed properties license them. *)
let gen_random_facts extra =
  let open QCheck2.Gen in
  let value = oneofl [ "u"; "v"; "w" ] in
  let child tag = map (fun v -> X3_xml.Tree.elem tag [ X3_xml.Tree.text v ]) value in
  let wrapped tag =
    map
      (fun v ->
        X3_xml.Tree.elem "wrap" [ X3_xml.Tree.elem tag [ X3_xml.Tree.text v ] ])
      value
  in
  let fact =
    map3
      (fun xs ys zs -> X3_xml.Tree.elem "r" (xs @ ys @ zs))
      (list_size (int_bound 3) (oneof [ child "a"; wrapped "a" ]))
      (list_size (int_bound 3) (child "b"))
      (extra child)
  in
  map
    (fun facts ->
      match X3_xml.Tree.elem "db" facts with
      | X3_xml.Tree.Element e -> X3_xml.Tree.document e
      | _ -> assert false)
    (list_size (int_range 1 12) fact)

let gen_random_case = gen_random_facts (fun _ -> QCheck2.Gen.pure [])

let random_axes () =
  [|
    X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
      ~allowed:[ Relax.Lnd; Relax.Pc_ad ];
    X3_pattern.Axis.make_exn ~name:"$b" ~steps:[ step c "b" ]
      ~allowed:[ Relax.Lnd ];
  |]

(* [gen_random_case] plus a third axis whose facts repeat bindings (up to
   three [e] children over the same three values), run at a drawn radix
   tier — the hash path (0), a 4-bit tier where BUC counting-sorts and
   the group kernels split between direct slots and hashing, and the
   default — so BUC's block-stamp dedup meets counting sort and
   quicksort. *)
let gen_random_case_3 =
  let open QCheck2.Gen in
  pair
    (gen_random_facts (fun child -> list_size (int_bound 3) (child "e")))
    (oneofl [ 0; 4; Radix.default_radix_bits ])

let random_axes_3 () =
  Array.append (random_axes ())
    [|
      X3_pattern.Axis.make_exn ~name:"$e" ~steps:[ step c "e" ]
        ~allowed:[ Relax.Lnd ];
    |]

let prop_algorithms_agree =
  QCheck2.Test.make ~name:"correct algorithms = naive on random data"
    ~count:60 gen_random_case_3 (fun (doc, radix_bits) ->
      let store = X3_xdb.Store.of_document doc in
      let spec =
        Engine.count_spec ~fact_path:[ step d "r" ] ~axes:(random_axes_3 ())
      in
      let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
      let props = X3_lattice.Properties.observe (Engine.table p) (Engine.lattice p) in
      let reference, _ = Engine.run p Engine.Naive in
      let config = { Engine.default_config with Engine.radix_bits } in
      List.for_all
        (fun algorithm ->
          let result, _ = Engine.run ~props ~config p algorithm in
          Cube_result.equal ~func:Aggregate.Count reference result)
        correct_algorithms)

let prop_optimised_correct_when_licensed =
  QCheck2.Test.make
    ~name:"optimised variants correct when observed properties license them"
    ~count:60 gen_random_case (fun doc ->
      let store = X3_xdb.Store.of_document doc in
      let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes:(random_axes ()) in
      let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
      let props = X3_lattice.Properties.observe (Engine.table p) (Engine.lattice p) in
      let reference, _ = Engine.run p Engine.Naive in
      let check algorithm licensed =
        (not licensed)
        ||
        let result, _ = Engine.run ~props p algorithm in
        Cube_result.equal ~func:Aggregate.Count reference result
      in
      let d = X3_lattice.Properties.all_strictly_disjoint props in
      let cov = X3_lattice.Properties.all_covered props in
      check Engine.Bucopt d && check Engine.Tdopt d
      && check Engine.Tdoptall (d && cov))

(* Random documents exercising the SP relaxation: leaves live under their
   pattern parent, under a deeper wrapper, under a sibling, or directly
   under the fact — every placement interacts differently with the
   {}, {PC-AD}, {SP} and {SP, PC-AD} states. *)
let gen_sp_case =
  let open QCheck2.Gen in
  let value = oneofl [ "u"; "v" ] in
  let leaf = map (fun v -> X3_xml.Tree.elem "leaf" [ X3_xml.Tree.text v ]) value in
  let placement =
    oneof
      [
        (* under the pattern parent *)
        map (fun l -> X3_xml.Tree.elem "p" [ l ]) leaf;
        (* under the parent but one level deeper: PC-AD territory *)
        map (fun l -> X3_xml.Tree.elem "p" [ X3_xml.Tree.elem "mid" [ l ] ]) leaf;
        (* parent present, leaf astray under a sibling: SP territory *)
        map2
          (fun l filler ->
            X3_xml.Tree.elem "grp"
              [ X3_xml.Tree.elem "p" [ X3_xml.Tree.text filler ];
                X3_xml.Tree.elem "q" [ l ] ])
          leaf value;
        (* no parent at all: nothing should match, any state *)
        map (fun v -> X3_xml.Tree.elem "q" [ X3_xml.Tree.text v ]) value;
      ]
  in
  let fact = list_size (int_bound 2) placement in
  map
    (fun facts ->
      match
        X3_xml.Tree.elem "db"
          (List.map (fun children -> X3_xml.Tree.elem "r" children) facts)
      with
      | X3_xml.Tree.Element e -> X3_xml.Tree.document e
      | _ -> assert false)
    (list_size (int_range 1 10) fact)

let sp_axes () =
  [|
    X3_pattern.Axis.make_exn ~name:"$l"
      ~steps:[ step c "p"; step c "leaf" ]
      ~allowed:[ Relax.Lnd; Relax.Sp; Relax.Pc_ad ];
  |]

let prop_sp_algorithms_agree =
  QCheck2.Test.make ~name:"correct algorithms agree under SP relaxations"
    ~count:60 gen_sp_case (fun doc ->
      let store = X3_xdb.Store.of_document doc in
      let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes:(sp_axes ()) in
      let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
      let props = X3_lattice.Properties.observe (Engine.table p) (Engine.lattice p) in
      let reference, _ = Engine.run p Engine.Naive in
      List.for_all
        (fun algorithm ->
          let result, _ = Engine.run ~props p algorithm in
          Cube_result.equal ~func:Aggregate.Count reference result)
        correct_algorithms)

let prop_sp_monotone_match_sets =
  QCheck2.Test.make
    ~name:"relaxation only widens cuboid totals (SP lattice)" ~count:60
    gen_sp_case (fun doc ->
      let store = X3_xdb.Store.of_document doc in
      let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes:(sp_axes ()) in
      let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
      let lattice = Engine.lattice p in
      let result, _ = Engine.run p Engine.Naive in
      (* The set of facts reached by a cuboid grows along lattice edges
         within the Present states (coverage may fail, never the reverse:
         a stricter pattern cannot reach more facts). *)
      let total id =
        List.fold_left
          (fun acc (_, cell) ->
            acc + int_of_float (Aggregate.value Aggregate.Count cell))
          0
          (Cube_result.cuboid_cells result id)
      in
      Array.for_all
        (fun id ->
          List.for_all
            (fun parent ->
              let fine = X3_lattice.Lattice.cuboid lattice id in
              let coarse = X3_lattice.Lattice.cuboid lattice parent in
              (* Only compare edges that keep the axis present: removal
                 collapses groups and totals may shrink with dedup. *)
              match (fine.(0), coarse.(0)) with
              | X3_lattice.State.Present _, X3_lattice.State.Present _ ->
                  total id <= total parent
              | _ -> true)
            (X3_lattice.Lattice.parents lattice id))
        (X3_lattice.Lattice.by_degree lattice))

let prop_counter_budget_independent =
  QCheck2.Test.make ~name:"counter result independent of memory budget"
    ~count:40
    QCheck2.Gen.(pair gen_random_case (int_range 1 50))
    (fun (doc, budget) ->
      let store = X3_xdb.Store.of_document doc in
      let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes:(random_axes ()) in
      let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
      let reference, _ = Engine.run p Engine.Naive in
      let config = { Engine.default_config with counter_budget = budget } in
      let result, _ = Engine.run ~config p Engine.Counter in
      Cube_result.equal ~func:Aggregate.Count reference result)

(* --- serial execution ---------------------------------------------------- *)

let serial_algorithms = Engine.[ Naive; Counter; Buc; Buccust; Td; Tdcust ]

let test_families_match_naive () =
  let p = prepared () in
  let reference =
    Export.csv_string ~func:Aggregate.Count (fst (Engine.run p Engine.Naive))
  in
  List.iter
    (fun algorithm ->
      let result, _ = Engine.run p algorithm in
      Alcotest.(check string)
        (Printf.sprintf "%s = sequential NAIVE"
           (Engine.algorithm_to_string algorithm))
        reference
        (Export.csv_string ~func:Aggregate.Count result))
    serial_algorithms

let test_counter_several_passes () =
  (* A budget that forces several passes: eviction discards partials,
     yet the cube must not change. *)
  let p = prepared () in
  let reference =
    Export.csv_string ~func:Aggregate.Count (fst (Engine.run p Engine.Naive))
  in
  let config = { Engine.default_config with counter_budget = 3 } in
  let result, instr = Engine.run ~config p Engine.Counter in
  Alcotest.(check bool) "several passes" true (instr.Instrument.passes > 1);
  Alcotest.(check string) "counter, budget 3" reference
    (Export.csv_string ~func:Aggregate.Count result)

(* Every family runs on the calling domain, so each must poll for stops
   inside its main loop. The cancel hook fires on its k-th poll, with k
   just past every poll that precedes that loop (the column build polls
   once per 64 rows, then one pass, apex or cuboid check). *)
let test_stops_inside_main_loop () =
  let config = { X3_workload.Treebank.default with num_trees = 200; axes = 3 } in
  let p =
    Engine.prepare ~pool:(small_pool ())
      ~store:(X3_xdb.Store.of_document (X3_workload.Treebank.generate config))
      (X3_workload.Treebank.spec config)
  in
  let k = (Witness.row_count (Engine.table p) / 64) + 4 in
  let lines r =
    String.split_on_char '\n' (Export.csv_string ~func:Aggregate.Count r)
  in
  List.iter
    (fun algorithm ->
      let name = Engine.algorithm_to_string algorithm in
      let full = Hashtbl.create 1024 in
      List.iter
        (fun l -> Hashtbl.replace full l ())
        (lines (fst (Engine.run p algorithm)));
      let polls = ref 0 in
      match
        Engine.run_safe
          ~cancel:(fun () ->
            incr polls;
            !polls >= k)
          p algorithm
      with
      | Engine.Partial (Context.Cancelled, r, _) ->
          Alcotest.(check bool)
            (name ^ ": partial cells are a subset of the full cube")
            true
            (List.for_all (Hashtbl.mem full) (lines r))
      | _ -> Alcotest.failf "%s: expected a cancelled partial" name)
    Engine.[ Counter; Buc; Td ]

(* Two runs of one family over one table export the same bytes: no run
   leaves state behind that changes the next. *)
let prop_repeated_runs_identical =
  QCheck2.Test.make ~name:"repeated runs byte-identical"
    ~count:25 gen_random_case
    (fun doc ->
      let store = X3_xdb.Store.of_document doc in
      let spec =
        Engine.count_spec ~fact_path:[ step d "r" ] ~axes:(random_axes ())
      in
      let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
      List.for_all
        (fun algorithm ->
          let seq =
            Export.csv_string ~func:Aggregate.Count
              (fst (Engine.run p algorithm))
          in
          let again =
            Export.csv_string ~func:Aggregate.Count
              (fst (Engine.run p algorithm))
          in
          String.equal seq again)
        serial_algorithms)

(* --- radix vs hash grouping identity --------------------------------------- *)

(* The grouping strategy is an execution detail: for every family, the
   radix kernels (default config) and the hash path (radix_bits = 0) must
   produce byte-identical exports — and the strategy counters must show
   both paths really ran. *)
let check_radix_hash_identity label p =
  let hash_config = { Engine.default_config with Engine.radix_bits = 0 } in
  List.iter
    (fun algorithm ->
      let name = Engine.algorithm_to_string algorithm in
      let reference =
        Export.csv_string ~func:Aggregate.Count
          (fst (Engine.run ~config:hash_config p algorithm))
      in
      List.iter
        (fun (cname, config) ->
          let result, instr = Engine.run ~config p algorithm in
          (if config.Engine.radix_bits = 0 then
             Alcotest.(check int)
               (Printf.sprintf "%s %s: no radix groupings at bits 0" label name)
               0 instr.Instrument.radix_groupings
           else
             Alcotest.(check bool)
               (Printf.sprintf "%s %s: radix kernels engaged" label name)
               true
               (instr.Instrument.radix_groupings > 0));
          Alcotest.(check string)
            (Printf.sprintf "%s %s: %s grouping" label name cname)
            reference
            (Export.csv_string ~func:Aggregate.Count result))
        [ ("radix", Engine.default_config); ("hash", hash_config) ])
    Engine.[ Naive; Counter; Buc; Td ]

(* BUC's counting sort clears and scans a histogram the size of the
   dictionary, so it only pays while the partition is at least a quarter
   of that size. Every fact here carries its own value on both axes: the
   first level sorts all rows (counting sort), but below it each
   partition holds one fact against a 200-entry dictionary, which
   quicksort handles instead. *)
let test_buc_small_partitions_quicksort () =
  let n = 200 in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "<r>";
  for i = 0 to n - 1 do
    Printf.bprintf buf "<f><a>a%d</a><b>b%d</b></f>" i i
  done;
  Buffer.add_string buf "</r>";
  let axis name tag =
    X3_pattern.Axis.make_exn ~name ~steps:[ step c tag ] ~allowed:[ Relax.Lnd ]
  in
  let p =
    Engine.prepare ~pool:(small_pool ())
      ~store:(X3_xdb.Store.of_document (parse_ok (Buffer.contents buf)))
      (Engine.count_spec ~fact_path:[ step d "f" ]
         ~axes:[| axis "$a" "a"; axis "$b" "b" |])
  in
  let csv r = Export.csv_string ~func:Aggregate.Count r in
  let result, instr = Engine.run p Engine.Buc in
  Alcotest.(check bool)
    "full-table partitions counting-sort" true
    (instr.Instrument.radix_groupings > 0);
  Alcotest.(check bool)
    "one-fact partitions of a 200-entry dictionary quicksort" true
    (instr.Instrument.hash_groupings > 0);
  Alcotest.(check string)
    "cube = NAIVE"
    (csv (fst (Engine.run p Engine.Naive)))
    (csv result)

let test_radix_hash_identity_figure1 () =
  check_radix_hash_identity "figure1" (prepared ())

let test_radix_hash_identity_treebank () =
  let config =
    { X3_workload.Treebank.default with num_trees = 40; axes = 3 }
  in
  let store =
    X3_xdb.Store.of_document (X3_workload.Treebank.generate config)
  in
  let p =
    Engine.prepare ~pool:(small_pool ()) ~store
      (X3_workload.Treebank.spec config)
  in
  check_radix_hash_identity "treebank" p

(* A sparse treebank whose axis widths sum past 62 bits (63 at 7 axes
   and 700 trees): 284 of its 288 cuboids still pack on their own present
   axes, the 4 finest are wide. Every
   family, at either grouping tier, must export what
   NAIVE does, and projecting a key along any lattice edge must give the
   key built directly at the coarser cuboid. *)
let test_wide_layout_whole_cube () =
  let config =
    {
      X3_workload.Treebank.default with
      num_trees = 700;
      axes = 7;
      coverage = false;
    }
  in
  let p =
    Engine.prepare ~pool:(small_pool ())
      ~store:(X3_xdb.Store.of_document (X3_workload.Treebank.generate config))
      (X3_workload.Treebank.spec config)
  in
  let ctx = context_of p in
  let shapes = ctx.Context.shapes in
  let total = Array.fold_left ( + ) 0 ctx.Context.widths in
  let packed =
    Array.fold_left
      (fun n s -> if s.Group_key.packed then n + 1 else n)
      0 shapes
  in
  let radix =
    Array.fold_left
      (fun n s ->
        match
          (Radix.plan ~radix_bits:Radix.default_radix_bits s).Radix.p_strategy
        with
        | Radix.Hash -> n
        | Radix.Direct | Radix.Partitioned -> n + 1)
      0 shapes
  in
  Alcotest.(check bool)
    (Printf.sprintf "axis widths sum to %d > 62 bits" total)
    true (total > 62);
  Alcotest.(check bool) "packed and wide cuboids mix" true
    (packed > 0 && packed < Array.length shapes);
  Alcotest.(check bool) "some cuboid groups on a radix tier" true (radix > 0);
  let csv r = Export.csv_string ~func:Aggregate.Count r in
  let naive, _ = Engine.run p Engine.Naive in
  let reference = csv naive in
  List.iter
    (fun radix_bits ->
      let config = { Engine.default_config with Engine.radix_bits } in
      List.iter
        (fun algorithm ->
          Alcotest.(check string)
            (Printf.sprintf "%s, radix_bits %d = NAIVE"
               (Engine.algorithm_to_string algorithm)
               radix_bits)
            reference
            (csv (fst (Engine.run ~config p algorithm))))
        Engine.[ Counter; Buc; Td; Tdcust ])
    [ 0; Radix.default_radix_bits ];
  let lattice = Engine.lattice p in
  for coarser = 0 to X3_lattice.Lattice.size lattice - 1 do
    List.iter
      (fun finer ->
        let edge =
          Group_key.edge ~finer:shapes.(finer) ~coarser:shapes.(coarser)
        in
        Cube_result.iter_cuboid naive finer (fun key _ ->
            let ids = Array.make (Array.length ctx.Context.widths) 0 in
            Array.iteri
              (fun j ai -> ids.(ai) <- Group_key.field shapes.(finer) key j)
              shapes.(finer).Group_key.present;
            if
              not
                (Group_key.equal
                   (Group_key.project edge key)
                   (Group_key.of_axis_ids shapes.(coarser) ids))
            then
              Alcotest.failf "edge %d -> %d: projection differs" finer
                coarser))
      (X3_lattice.Lattice.children lattice coarser)
  done;
  (* Governed TD at [radix_bits = 0] sorts every cuboid. Its peak booking
     must cover the table, its columns and block measures, and one
     row-sized sort array of the costliest record: a real (key, row)
     record of each shape, measured, plus its array slot. *)
  let table = Engine.table p in
  let cols = Context.cols ctx in
  let rows = Witness.Columnar.rows cols in
  let blocks = Witness.Columnar.blocks cols in
  let held =
    Witness.approx_bytes table
    + Witness.Columnar.approx_bytes
        ~axes:(Array.length (Witness.axes table))
        ~rows ~blocks
    + (8 * blocks) + 16
  in
  let record_bytes s =
    let ids = Array.make (Array.length ctx.Context.widths) 0 in
    8 * (Obj.reachable_words (Obj.repr (Group_key.of_axis_ids s ids, 0)) + 1)
  in
  let record = Array.fold_left (fun m s -> max m (record_bytes s)) 0 shapes in
  let config = { Engine.default_config with Engine.radix_bits = 0 } in
  let stats = Engine.fresh_run_stats () in
  (match
     Engine.run_safe ~config ~governor:(Governor.create ()) ~stats p Engine.Td
   with
  | Engine.Complete (r, _) ->
      Alcotest.(check string) "governed TD = NAIVE" reference (csv r);
      Alcotest.(check bool)
        (Printf.sprintf "peak %d >= %d held + %d rows x %d bytes"
           stats.Engine.peak_bytes held rows record)
        true
        (stats.Engine.peak_bytes >= held + (rows * record))
  | _ -> Alcotest.fail "governed TD: must complete");
  (* One byte short of that, the booking is refused before any cuboid is
     grouped. *)
  match
    Engine.run_safe ~config ~max_bytes:(held + (rows * record) - 1) p Engine.Td
  with
  | Engine.Partial (Context.Over_budget, r, _) ->
      Alcotest.(check int) "refused before grouping" 0
        (Cube_result.total_cells r)
  | _ -> Alcotest.fail "governed TD: must stop over budget"

(* --- allocation pins --------------------------------------------------------- *)

(* Words allocated while [f] runs, minor and major heap alike (arrays past
   the minor heap's size limit go straight to the major heap). *)
let words_allocated f =
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* The radix kernels' per-row functions run once per row per cuboid: they
   must allocate nothing (a closure per call would show up as tens of
   thousands of words here). The slack covers the boxed floats of the
   [Gc.minor_words] calls themselves. *)
let test_radix_row_path_allocation_free () =
  let rows =
    List.init 64 (fun v ->
        {
          Witness.fact = v / 2;
          cells =
            [|
              { Witness.id = v mod 5; validity = 1; first = v mod 2 = 0 };
              { Witness.id = v mod 3; validity = 3; first = true };
              { Witness.id = v mod 7; validity = 1; first = v mod 2 = 0 };
            |];
        })
  in
  let cols = cols_of_rows ~axes:3 rows in
  let shape =
    Group_key.shape
      ~widths:(Array.map Group_key.bits_for [| 5; 3; 7 |])
      X3_lattice.State.[| Removed; Present 1; Removed |]
  in
  let cur = Radix.cursor shape cols in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    let r = i land 63 in
    if Radix.key cur r >= 0 && Radix.first_on_removed cur r then incr hits
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "some rows qualify" true (!hits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "10^4 key/first_on_removed calls: %.0f words <= 64" words)
    true (words <= 64.)

(* The witness evaluator checks every candidate binding at every
   structural state of its axis, once per fact: the check must allocate
   nothing. Query 1's [$n] has four states (PC-AD and SP), and its
   candidates include Bob's nested name, which fails the rigid state. *)
let test_eval_check_allocation_free () =
  let store = figure1_store () in
  let m = Eval.compile store (axis_n ()) in
  let pairs =
    List.concat_map
      (fun fact ->
        List.map
          (fun binding -> (fact, binding))
          (List.filter
             (fun v -> X3_xdb.Store.is_ancestor store ~anc:fact ~desc:v)
             (Array.to_list (X3_xdb.Store.nodes_with_tag store "name"))))
      (Eval.facts store fact_path)
  in
  let facts = Array.of_list (List.map fst pairs)
  and bindings = Array.of_list (List.map snd pairs) in
  let n = Array.length facts and valid = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    let j = i mod n in
    if Eval.validity m ~fact:facts.(j) ~binding:bindings.(j) <> 0 then
      incr valid
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "some candidates match" true (!valid > 0);
  Alcotest.(check bool)
    (Printf.sprintf "10^4 candidate checks: %.0f words <= 64" words)
    true (words <= 64.)

(* BUC's [Dedup] aggregation marks fact blocks in a per-run stamp array
   instead of filling a fresh hash set per cell. What remains are the
   partition index arrays, keys and cells: about 160 words per witness
   row on this dense table with repeated bindings. A fresh hash set per
   cell (about 400) or a closure per row in the [represents] check
   (about 285) breaks the bound. *)
let buc_dedup_words_per_row_cap = 200.

let test_buc_dedup_allocation_bound () =
  let config =
    {
      X3_workload.Treebank.default with
      num_trees = 1000;
      axes = 3;
      density = X3_workload.Treebank.Dense;
      disjoint = false;
    }
  in
  let p =
    Engine.prepare ~pool:(small_pool ())
      ~store:(X3_xdb.Store.of_document (X3_workload.Treebank.generate config))
      (X3_workload.Treebank.spec config)
  in
  let ctx = context_of p in
  (* the columns and block measures are the context's, built once *)
  ignore (Context.block_measures ctx (Context.cols ctx) : float array);
  let result = ref None in
  let words =
    words_allocated (fun () ->
        result := Some (X3_core.Buc.compute ~variant:`Plain ctx))
  in
  let rows = float_of_int (Witness.row_count (Engine.table p)) in
  Alcotest.(check bool) "deduplicated" true
    (ctx.Context.instr.Instrument.dedup_tracked > 0);
  Alcotest.(check string) "cube = NAIVE"
    (Export.csv_string ~func:Aggregate.Count (fst (Engine.run p Engine.Naive)))
    (Export.csv_string ~func:Aggregate.Count (Option.get !result));
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per witness row <= %.0f" (words /. rows)
       buc_dedup_words_per_row_cap)
    true
    (words /. rows <= buc_dedup_words_per_row_cap)

(* --- Seen compaction ------------------------------------------------------- *)

let test_seen_compaction () =
  let shape =
    Group_key.shape ~widths:[| Group_key.bits_for 65536 |]
      [| X3_lattice.State.Present 0 |]
  in
  let scratch = Group_key.make_scratch shape in
  let seen = Group_key.Seen.create () in
  (* Row [v] holds fact [v] and id [v]. *)
  let cols =
    cols_of_rows ~axes:1
      (List.init 10_005 (fun v ->
           {
             Witness.fact = v;
             cells = [| { Witness.id = v; validity = 1; first = true } |];
           }))
  in
  let cur = Radix.cursor shape cols in
  (* Thousands of tiny generations with mostly-fresh keys: the cache must
     track the widest single generation, not the union of every key the
     scan ever produced. *)
  for g = 0 to 2_000 do
    Group_key.Seen.reset seen;
    for i = 0 to 4 do
      ignore (Radix.load cur scratch ((g * 5) + i) : bool);
      ignore (Group_key.Seen.add seen scratch)
    done
  done;
  Alcotest.(check bool) "table stays bounded" true
    (Group_key.Seen.table_size seen <= 256);
  (* Dedup semantics survive compaction. *)
  Group_key.Seen.reset seen;
  ignore (Radix.load cur scratch 1 : bool);
  Alcotest.(check bool) "fresh key reported fresh" true
    (Group_key.Seen.add seen scratch);
  Alcotest.(check bool) "repeat key reported seen" false
    (Group_key.Seen.add seen scratch)

(* --- resource governor (PR 4) --------------------------------------------- *)

let csv result = Export.csv_string ~func:Aggregate.Count result

(* Eviction victim selection at the record-budget boundary: budget 1 makes
   every block boundary an eviction storm, yet the keep-at-least-one rule
   guarantees each pass completes something and the cube is unchanged. *)
let test_counter_eviction_budget_one () =
  let p = prepared () in
  let reference = csv (fst (Engine.run p Engine.Naive)) in
  let config = { Engine.default_config with counter_budget = 1 } in
  let result, instr = Engine.run ~config p Engine.Counter in
  Alcotest.(check string) "budget 1 still correct" reference (csv result);
  Alcotest.(check bool) "eviction forced extra passes" true
    (instr.Instrument.passes > 1);
  Alcotest.(check bool) "every pass completed at least one cuboid" true
    (instr.Instrument.passes <= X3_lattice.Lattice.size (Engine.lattice p))

let test_counter_single_cuboid_keep_rule () =
  (* One axis, no relaxations: a single-cuboid lattice. Its counters exceed
     the budget but it can never be evicted — the run must complete in one
     pass rather than loop or stop. *)
  let axes =
    [| Axis.make_exn ~name:"$y" ~steps:[ step c "year" ] ~allowed:[] |]
  in
  let p =
    Engine.prepare ~pool:(small_pool ()) ~store:(figure1_store ())
      (Engine.count_spec ~fact_path ~axes)
  in
  let reference = csv (fst (Engine.run p Engine.Naive)) in
  let config = { Engine.default_config with counter_budget = 1 } in
  let result, instr = Engine.run ~config p Engine.Counter in
  Alcotest.(check string) "correct" reference (csv result);
  Alcotest.(check int) "single pass" 1 instr.Instrument.passes;
  Alcotest.(check bool) "the budget really was exceeded" true
    (instr.Instrument.peak_counters > 1)

let test_counter_eviction_tie_deterministic () =
  (* Query 1 produces several equally-fat cuboids, so victim selection hits
     ties; the choice must be deterministic run to run. *)
  let p = prepared () in
  let reference = csv (fst (Engine.run p Engine.Naive)) in
  let config = { Engine.default_config with counter_budget = 2 } in
  let r1, i1 = Engine.run ~config p Engine.Counter in
  let r2, i2 = Engine.run ~config p Engine.Counter in
  Alcotest.(check bool) "ties forced multiple passes" true
    (i1.Instrument.passes > 1);
  Alcotest.(check string) "correct under ties" reference (csv r1);
  Alcotest.(check string) "victim choice deterministic" (csv r1) (csv r2);
  Alcotest.(check int) "same pass count" i1.Instrument.passes
    i2.Instrument.passes

(* The acceptance boundary of the byte governor: binary-search the minimal
   completing budget. At that budget the run completes through the spill
   paths byte-identical to the unbudgeted cube; one byte below, it returns
   the typed Over_budget partial. *)
let check_spill_boundary ~name ~prepared:p algorithm =
  let reference, _ = Engine.run p algorithm in
  let ref_csv = csv reference in
  let gov = Governor.create () in
  (match Engine.run_safe ~governor:gov p algorithm with
  | Engine.Complete (r, _) ->
      Alcotest.(check string)
        (name ^ ": governed run on an unlimited pool is byte-identical")
        ref_csv (csv r)
  | _ -> Alcotest.failf "%s: unlimited governed run must complete" name);
  let completes b =
    match Engine.run_safe ~max_bytes:b p algorithm with
    | Engine.Complete (r, _) -> Some r
    | Engine.Partial (Context.Over_budget, partial, _) ->
        Alcotest.(check bool)
          (name ^ ": partial never exceeds the full cube")
          true
          (Cube_result.total_cells partial <= Cube_result.total_cells reference);
        None
    | _ -> Alcotest.failf "%s: unexpected outcome under a byte budget" name
  in
  (match completes 0 with
  | None -> ()
  | Some _ -> Alcotest.failf "%s: a zero budget must stop the run" name);
  (* The pool peak of the unlimited run bounds the search from above (with
     doubling slack: a capped account can shift reservation order). *)
  let hi = ref (max 1 (Governor.peak gov)) in
  let rec settle_hi tries =
    match completes !hi with
    | Some _ -> ()
    | None when tries > 0 ->
        hi := !hi * 2;
        settle_hi (tries - 1)
    | None ->
        Alcotest.failf "%s: %d bytes (above the measured peak) still over"
          name !hi
  in
  settle_hi 4;
  let lo = ref 0 in
  while !hi - !lo > 1 do
    let mid = !lo + ((!hi - !lo) / 2) in
    match completes mid with Some _ -> hi := mid | None -> lo := mid
  done;
  (match completes !hi with
  | Some r ->
      Alcotest.(check string)
        (Printf.sprintf "%s: minimal budget (%d bytes) byte-identical" name
           !hi)
        ref_csv (csv r)
  | None -> Alcotest.failf "%s: the boundary budget must complete" name);
  match Engine.run_safe ~max_bytes:!lo p algorithm with
  | Engine.Partial (Context.Over_budget, _, _) -> ()
  | _ ->
      Alcotest.failf "%s: %d bytes (below the floor) must be Over_budget"
        name !lo

let spill_algorithms = Engine.[ Counter; Td ]

let test_governed_spill_figure1 () =
  let p = prepared () in
  List.iter
    (fun algorithm ->
      check_spill_boundary
        ~name:(Engine.algorithm_to_string algorithm)
        ~prepared:p algorithm)
    spill_algorithms

let test_governed_spill_treebank () =
  (* Enough rows that the squeezed budget genuinely drives the spill
     machinery: COUNTER's byte-derived pass budget forces
     eviction, and TD's up-front booking of its radix scratch meets the
     budget. *)
  let config = { X3_workload.Treebank.default with num_trees = 30; axes = 2 } in
  let store = X3_xdb.Store.of_document (X3_workload.Treebank.generate config) in
  let p =
    Engine.prepare ~pool:(small_pool ()) ~store
      (X3_workload.Treebank.spec config)
  in
  List.iter
    (fun algorithm ->
      check_spill_boundary
        ~name:("treebank " ^ Engine.algorithm_to_string algorithm)
        ~prepared:p algorithm)
    spill_algorithms

(* [Governor.sort_record_cost] covers what one record of TD's sort array
   really occupies, its array slot included: a packed key, and a wide key
   of 7 present axes (63 bits). *)
let test_sort_record_cost_covers_record () =
  List.iter
    (fun (name, sizes, packed) ->
      let shape = shape_of_sizes sizes (Array.map (fun _ -> true) sizes) in
      let ids = Array.map (fun n -> n - 1) sizes in
      let record = (Group_key.of_axis_ids shape ids, Array.length sizes) in
      let bytes = 8 * (Obj.reachable_words (Obj.repr record) + 1) in
      let cost = Governor.sort_record_cost shape in
      Alcotest.(check bool) (name ^ ": key form") packed
        shape.Group_key.packed;
      Alcotest.(check bool)
        (Printf.sprintf "%s: cost %d >= %d bytes" name cost bytes)
        true (cost >= bytes))
    [
      ("packed", [| 300; 5000 |], true);
      ("wide, 7 axes", Array.make 7 512, false);
    ]

let test_over_budget_below_witness () =
  (* 64 bytes cannot even hold the witness table: every algorithm family
     must stop at its first check with the typed reason. *)
  let p = prepared () in
  List.iter
    (fun algorithm ->
      match Engine.run_safe ~max_bytes:64 p algorithm with
      | Engine.Partial (Context.Over_budget, _, _) -> ()
      | _ ->
          Alcotest.failf "%s: expected Over_budget partial"
            (Engine.algorithm_to_string algorithm))
    Engine.[ Naive; Counter; Buc; Td ]

let test_governor_pool_drained () =
  (* Accounts are per-attempt and closed on every exit path, so the shared
     pool returns to zero after complete and over-budget runs alike. *)
  let p = prepared () in
  let gov = Governor.create ~max_bytes:(1 lsl 30) () in
  (match Engine.run_safe ~governor:gov p Engine.Counter with
  | Engine.Complete _ -> ()
  | _ -> Alcotest.fail "expected completion under a roomy pool");
  Alcotest.(check int) "pool drained after completion" 0 (Governor.used gov);
  (match Engine.run_safe ~governor:gov ~max_bytes:64 p Engine.Td with
  | Engine.Partial (Context.Over_budget, _, _) -> ()
  | _ -> Alcotest.fail "expected Over_budget under a 64-byte cap");
  Alcotest.(check int) "pool drained after a stopped run" 0
    (Governor.used gov);
  Alcotest.(check bool) "the pool saw real traffic" true
    (Governor.peak gov > 0)

(* --- ingest deltas ------------------------------------------------------- *)

module Tree = X3_xml.Tree

(* Cold reference for an ingest: the grafted document rebuilt from
   scratch. The delta path must be byte-identical to it. *)
let graft doc frags =
  let root = doc.Tree.root in
  {
    doc with
    Tree.root =
      {
        root with
        Tree.children =
          root.Tree.children @ List.map (fun el -> Tree.Element el) frags;
      };
  }

let frag_of_source src = (parse_ok src).Tree.root

(* Every cuboid's view, obtained as the serve daemon obtains it: finest
   first, rolled up from the nearest finer view where the session admits
   it, else materialised from base. In cuboid-id order. *)
let serve_views session =
  let lattice = Engine.lattice (Engine.Session.prepared session) in
  let obtained = Hashtbl.create 16 and recent = ref [] in
  Array.iter
    (fun cid ->
      let view =
        match
          List.find_map
            (fun finer ->
              Result.to_option (Engine.Session.rollup session finer ~coarser:cid))
            !recent
        with
        | Some v -> v
        | None -> Engine.Session.materialize session ~cuboid:cid
      in
      Hashtbl.replace obtained cid view;
      recent := view :: !recent)
    (X3_lattice.Lattice.by_degree lattice);
  List.init (X3_lattice.Lattice.size lattice) (Hashtbl.find obtained)

(* The CSV a daemon prints from a session's views (one per cuboid, by
   id); each view keeps the order this read stores. *)
let views_csv session views =
  Export.views_csv_string
    ~func:(Engine.spec_of (Engine.Session.prepared session)).Engine.func
    (Engine.lattice (Engine.Session.prepared session))
    (Array.of_list views)

(* Ingest [frags] into a session over [doc] with every cuboid's view
   obtained as [serve_views] does and read before each ingest, as a
   daemon serving requests between ingests reads them, so every patch
   lands on views that store their order. Then compare the views' export, read
   twice, with a cold run of the grafted document under four algorithm
   families, and the refreshed properties with a cold observe. A typed refusal is followed
   the way the daemon follows it — a cold rebuild of the document grafted
   so far — and counted in [refused]. Mismatches are reported on stderr;
   the result is whether everything matched. *)
let delta_vs_cold ?(refused = ref 0) ~name ~doc ~frags ~spec () =
  let fresh doc =
    let session =
      Engine.Session.create
        (Engine.prepare ~pool:(small_pool ())
           ~store:(X3_xdb.Store.of_document doc)
           spec)
    in
    (session, serve_views session)
  in
  let report fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline (name ^ ": " ^ msg);
        false)
      fmt
  in
  let rec ingest (session, views) i = function
    | [] -> Ok (session, views)
    | fragment :: rest -> (
        ignore (views_csv session views : string);
        match
          Engine.stage_fragment spec ~fragment
            ~fact_id:(Engine.synthetic_fact_id ~lsn:(i + 1))
        with
        | Engine.Not_a_fact -> Error (Printf.sprintf "fragment %d is not a fact" i)
        | Engine.Unsupported reason ->
            Error (Printf.sprintf "fragment %d unsupported: %s" i reason)
        | Engine.Staged staged -> (
            match Engine.Session.apply_delta session staged ~views with
            | Ok _ -> ingest (session, views) (i + 1) rest
            | Error _ ->
                incr refused;
                let so_far = List.filteri (fun j _ -> j <= i) frags in
                ingest (fresh (graft doc so_far)) (i + 1) rest))
  in
  match ingest (fresh doc) 0 frags with
  | Error msg -> report "%s" msg
  | Ok (session, views) ->
      let lattice = Engine.lattice (Engine.Session.prepared session) in
      let csv = Export.csv_string ~func:spec.Engine.func in
      let delta_csv = views_csv session views in
      let reread =
        String.equal delta_csv (views_csv session views)
        || report "a second read of the patched views differs"
      in
      let cold_prepared =
        Engine.prepare ~pool:(small_pool ())
          ~store:(X3_xdb.Store.of_document (graft doc frags))
          spec
      in
      let views_match =
        List.for_all
          (fun alg ->
            let cold, _ = Engine.run cold_prepared alg in
            String.equal (csv cold) delta_csv
            || report "delta <> cold rebuild (%s)"
                 (Engine.algorithm_to_string alg))
          Engine.[ Naive; Counter; Buc; Td ]
      in
      (* The refreshed properties gate future rollup decisions, so drift
         here silently unsounds the cache. *)
      let pp props =
        Format.asprintf "%a" (X3_lattice.Properties.pp_report lattice) props
      in
      let props_match =
        String.equal
          (pp (Engine.Session.props (Engine.Session.create cold_prepared)))
          (pp (Engine.Session.props session))
        || report "restricted properties <> cold re-observe"
      in
      reread && views_match && props_match

let pub5 =
  {|<publication id="5">
      <author id="a1"><name>John</name></author>
      <publisher id="p2"/>
      <year>2003</year>
    </publication>|}

(* Year 2006 is a fresh dictionary value that still fits the frozen
   packed-key width (3 committed years, 2 bits): the delta path must
   dictionary-code it in place. *)
let pub6 =
  {|<publication id="6">
      <author id="a2"><name>Jane</name></author>
      <publisher id="p1"/>
      <year>2006</year>
    </publication>|}

(* The hand-built fixtures must take the delta path all the way. *)
let check_delta_identity ~name ~doc ~frags ~spec =
  let refused = ref 0 in
  Alcotest.(check bool)
    (name ^ ": delta == cold rebuild, restricted properties == cold observe")
    true
    (delta_vs_cold ~refused ~name ~doc ~frags ~spec ());
  Alcotest.(check int) (name ^ ": no delta refused") 0 !refused

(* Two identical author bindings: the fact's two rows share every group
   key that keeps the author's name, and must count once in each. John is
   an existing name, so the packed-key layout has room. *)
let pub9 =
  {|<publication id="9">
      <author id="a1"><name>John</name></author>
      <author id="a5"><name>John</name></author>
      <publisher id="p2"/>
      <year>2004</year>
    </publication>|}

let test_delta_identity_figure1 () =
  check_delta_identity ~name:"figure-1" ~doc:(figure1 ())
    ~frags:[ frag_of_source pub5; frag_of_source pub6; frag_of_source pub9 ]
    ~spec:(Engine.count_spec ~fact_path ~axes:(query1_axes ()))

let test_delta_identity_treebank () =
  (* coverage and disjointness both off: repeats, missing bindings and
     nested dimensions all flow through the delta path. *)
  let config =
    {
      X3_workload.Treebank.default with
      num_trees = 120;
      axes = 3;
      coverage = false;
      disjoint = false;
      seed = 11;
    }
  in
  let doc = X3_workload.Treebank.generate config in
  let frags =
    List.filteri
      (fun i _ -> i < 6)
      (List.filter_map Tree.element_of_node doc.Tree.root.Tree.children)
  in
  Alcotest.(check int) "six fragments" 6 (List.length frags);
  check_delta_identity ~name:"treebank" ~doc ~frags
    ~spec:(X3_workload.Treebank.spec config)

(* Random treebank documents split at a random fact: the facts before it
   are the base document, the rest arrive as ingested fragments (none when
   the split is at the end, which pins materialize == cold run). *)
let gen_delta_case =
  let open QCheck2.Gen in
  let config =
    map3
      (fun (seed, num_trees) (axes, dense) (coverage, disjoint) ->
        {
          X3_workload.Treebank.seed;
          num_trees;
          axes;
          coverage;
          disjoint;
          density = (if dense then X3_workload.Treebank.Dense else Sparse);
        })
      (pair (int_bound 100_000) (int_range 5 150))
      (pair (int_range 2 4) bool)
      (pair bool bool)
  in
  config >>= fun config ->
  map (fun split -> (config, split)) (int_range 1 config.num_trees)

let prop_delta_vs_cold =
  QCheck2.Test.make ~name:"random split: delta == cold rebuild" ~count:25
    ~print:(fun (config, split) ->
      Printf.sprintf "seed=%d trees=%d axes=%d coverage=%b disjoint=%b \
                      dense=%b split=%d"
        config.X3_workload.Treebank.seed config.num_trees config.axes
        config.coverage config.disjoint
        (config.density = X3_workload.Treebank.Dense)
        split)
    gen_delta_case
    (fun (config, split) ->
      let doc = X3_workload.Treebank.generate config in
      let facts =
        List.filter_map Tree.element_of_node doc.Tree.root.Tree.children
      in
      let base =
        {
          doc with
          Tree.root =
            {
              doc.Tree.root with
              Tree.children =
                List.filteri (fun i _ -> i < split)
                  (List.map (fun e -> Tree.Element e) facts);
            };
        }
      in
      delta_vs_cold ~name:"random split" ~doc:base
        ~frags:(List.filteri (fun i _ -> i >= split) facts)
        ~spec:(X3_workload.Treebank.spec config) ())

let test_delta_layout_overflow_refused () =
  let spec = Engine.count_spec ~fact_path ~axes:(query1_axes ()) in
  let session =
    Engine.Session.create
      (Engine.prepare ~pool:(small_pool ()) ~store:(figure1_store ()) spec)
  in
  let prepared = Engine.Session.prepared session in
  let rows_before = Witness.row_count (Engine.table prepared) in
  let view =
    Engine.Session.materialize session
      ~cuboid:(X3_lattice.Lattice.rigid_id (Engine.lattice prepared))
  in
  let cells_before = Materialized.group_count view in
  (* Four committed author names fill 2 bits exactly: a fifth cannot be
     coded into the frozen layout, so the delta must refuse — and leave
     everything untouched for the caller's cold rebuild. *)
  let frag =
    frag_of_source
      {|<publication id="7">
          <author id="a9"><name>Zoe</name></author>
          <publisher id="p1"/>
          <year>2003</year>
        </publication>|}
  in
  match
    Engine.stage_fragment spec ~fragment:frag
      ~fact_id:(Engine.synthetic_fact_id ~lsn:1)
  with
  | Engine.Staged staged -> (
      match Engine.Session.apply_delta session staged ~views:[ view ] with
      | Error (Engine.Layout_overflow _) ->
          Alcotest.(check int) "table untouched by the refused delta"
            rows_before
            (Witness.row_count (Engine.table prepared));
          Alcotest.(check int) "view untouched by the refused delta"
            cells_before
            (Materialized.group_count view)
      | Ok _ -> Alcotest.fail "a full author dictionary cannot be sound"
      | Error fb ->
          Alcotest.failf "wrong fallback: %s" (Engine.fallback_reason_name fb))
  | _ -> Alcotest.fail "fragment should stage"

(* Staging evaluates one fragment against a store of just that fragment;
   it must give the rows a cold [prepare] of the same one-fact document
   gives, WHERE clause included. The fragments are the facts of
   [gen_random_case] (PC-AD axes) and [gen_sp_case] (SP axes). *)
let gen_stage_case =
  let open QCheck2.Gen in
  let first_fact doc =
    match doc.Tree.root.Tree.children with
    | Tree.Element e :: _ -> e
    | _ -> assert false
  in
  triple
    (oneof
       [
         map
           (fun doc -> (first_fact doc, random_axes (), [ step c "b" ]))
           gen_random_case;
         map
           (fun doc -> (first_fact doc, sp_axes (), [ step d "leaf" ]))
           gen_sp_case;
       ])
    bool (oneofl [ "u"; "v" ])

let prop_stage_equals_build =
  QCheck2.Test.make ~name:"stage_fragment rows = build_table rows" ~count:150
    gen_stage_case (fun ((fragment, axes, filter_path), filtered, operand) ->
      let filters =
        if filtered then [ { Engine.filter_path; op = Engine.Eq; operand } ]
        else []
      in
      let spec =
        { (Engine.count_spec ~fact_path:[ step d "r" ] ~axes) with filters }
      in
      let store = X3_xdb.Store.of_document (Tree.document fragment) in
      let table =
        Engine.table (Engine.prepare ~pool:(small_pool ()) ~store spec)
      in
      let built =
        List.map
          (fun (row : Witness.row) ->
            ( row.Witness.fact,
              Array.to_list
                (Array.mapi
                   (fun ai (c : Witness.cell) ->
                     ( Witness.cell_value table ~axis_index:ai c,
                       c.validity,
                       c.first ))
                   row.Witness.cells) ))
          (Witness.to_list table)
      in
      match
        Engine.stage_fragment spec ~fragment
          ~fact_id:(X3_xdb.Store.root store)
      with
      | Engine.Staged staged ->
          built
          = List.map
              (fun (r : Witness.Staged.row) ->
                ( r.Witness.Staged.fact,
                  Array.to_list
                    (Array.map
                       (fun (c : Witness.Staged.cell) ->
                         (c.Witness.Staged.value, c.validity, c.first))
                       r.Witness.Staged.cells) ))
              staged
      | Engine.Not_a_fact | Engine.Unsupported _ -> false)

let test_stage_fragment_classification () =
  let spec = Engine.count_spec ~fact_path ~axes:(query1_axes ()) in
  (match
     Engine.stage_fragment spec
       ~fragment:
         (frag_of_source {|<author id="a9"><name>Zoe</name></author>|})
       ~fact_id:1
   with
  | Engine.Not_a_fact -> ()
  | _ -> Alcotest.fail "a non-fact fragment must classify Not_a_fact");
  (match
    Engine.stage_fragment spec
      ~fragment:
        (frag_of_source
           {|<publication id="8">
               <publication id="9"><year>2003</year></publication>
             </publication>|})
      ~fact_id:1
  with
  | Engine.Unsupported _ -> ()
  | _ ->
      Alcotest.fail
        "a fragment nesting further facts must be refused (descendant path)");
  (* [/publication] selects the document element, which a grafted
     fragment never is; [/database/publication] names the fragment, but
     a fragment alone cannot prove its parent. *)
  let pub = frag_of_source {|<publication id="8"><year>2003</year></publication>|} in
  let absolute steps =
    Engine.count_spec
      ~fact_path:(List.map (fun tag -> step X3_xdb.Structural_join.Child tag) steps)
      ~axes:(query1_axes ())
  in
  (match Engine.stage_fragment (absolute [ "publication" ]) ~fragment:pub ~fact_id:1 with
  | Engine.Not_a_fact -> ()
  | _ -> Alcotest.fail "a fragment is never the document element");
  match
    Engine.stage_fragment (absolute [ "database"; "publication" ]) ~fragment:pub
      ~fact_id:1
  with
  | Engine.Unsupported _ -> ()
  | _ -> Alcotest.fail "a multi-step fact path must be refused"

(* --- views equal NAIVE's cuboids ------------------------------------------ *)

(* Every group of [view] and of NAIVE's cuboid over [reference] agree:
   the same groups, and cells equal under [func] (COUNT exactly). *)
let check_view_is_naive ~name ~func reference view =
  let cuboid = Materialized.cuboid_id view in
  let expected = Cube_result.cuboid_cells reference cuboid in
  Alcotest.(check int)
    (Printf.sprintf "%s: cuboid %d group count" name cuboid)
    (List.length expected)
    (Materialized.group_count view);
  List.iter
    (fun (key, cell) ->
      let label =
        Printf.sprintf "%s: cuboid %d (%s)" name cuboid (String.concat ", " key)
      in
      match Cube_result.find reference ~cuboid ~key with
      | None -> Alcotest.failf "%s: not in NAIVE's cube" label
      | Some naive when func = Aggregate.Count ->
          Alcotest.(check (float 0.)) label
            (Aggregate.value func naive) (Aggregate.value func cell)
      | Some naive ->
          Alcotest.(check bool) label true (Aggregate.equal_value func naive cell))
    (Materialized.cells view)

(* Every view [materialize] builds, and every rollup [rollup] admits
   between them, equals NAIVE's cuboid; returns how many rollups were
   admitted. *)
let check_views_and_rollups ~name ~func session views reference =
  List.iter (check_view_is_naive ~name:(name ^ " materialize") ~func reference)
    views;
  let lattice = Engine.lattice (Engine.Session.prepared session) in
  List.fold_left
    (fun admitted fine ->
      List.fold_left
        (fun admitted coarser ->
          match Engine.Session.rollup session fine ~coarser with
          | Ok rolled ->
              check_view_is_naive ~name:(name ^ " rollup") ~func reference
                rolled;
              admitted + 1
          | Error _ -> admitted)
        admitted
        (List.init (X3_lattice.Lattice.size lattice) Fun.id))
    0 views

let mentions msg word =
  let n = String.length word in
  let rec from i =
    i + n <= String.length msg && (String.sub msg i n = word || from (i + 1))
  in
  from 0

let session_views session =
  let lattice = Engine.lattice (Engine.Session.prepared session) in
  List.init (X3_lattice.Lattice.size lattice) (fun cuboid ->
      Engine.Session.materialize session ~cuboid)

let ingest_all spec session ~views frags =
  List.iter
    (fun (lsn, src) ->
      match
        Engine.stage_fragment spec ~fragment:(frag_of_source src)
          ~fact_id:(Engine.synthetic_fact_id ~lsn)
      with
      | Engine.Staged staged -> (
          match Engine.Session.apply_delta session staged ~views with
          | Ok _ -> ()
          | Error fb ->
              Alcotest.failf "delta refused: %s"
                (Engine.fallback_reason_name fb))
      | _ -> Alcotest.fail "fragment should stage")
    frags

let test_views_are_naive_count () =
  let spec = Engine.count_spec ~fact_path ~axes:(query1_axes ()) in
  let session =
    Engine.Session.create
      (Engine.prepare ~pool:(small_pool ()) ~store:(figure1_store ()) spec)
  in
  let prepared = Engine.Session.prepared session in
  let views = session_views session in
  let reference, _ = Engine.run prepared Engine.Naive in
  let admitted =
    check_views_and_rollups ~name:"figure 1" ~func:Aggregate.Count session
      views reference
  in
  Alcotest.(check bool) "some rollups admitted" true (admitted > 0);
  (* Publication 1 has two authors, so it sits in two groups of the
     by-author-and-year view: rolling that view up to by-year is
     refused, and the reason names disjointness. *)
  let finer = cuboid_id prepared [ present 1; removed; present 0 ] in
  let coarser = cuboid_id prepared [ removed; removed; present 0 ] in
  (match Engine.Session.rollup session (List.nth views finer) ~coarser with
  | Ok _ -> Alcotest.fail "a non-disjoint view must not be rolled up"
  | Error msg ->
      Alcotest.(check bool)
        ("refusal names disjointness: " ^ msg)
        true
        (mentions msg "disjoint"));
  (* Patched views equal NAIVE over the grafted document: pub9's two
     identical authors count once per group. *)
  let frags = [ (7, pub5); (3, pub6); (9, pub9) ] in
  ingest_all spec session ~views frags;
  let grafted =
    Engine.prepare ~pool:(small_pool ())
      ~store:
        (X3_xdb.Store.of_document
           (graft (figure1 ())
              (List.map (fun (_, src) -> frag_of_source src) frags)))
      spec
  in
  let reference, _ = Engine.run grafted Engine.Naive in
  List.iter
    (check_view_is_naive ~name:"apply_delta" ~func:Aggregate.Count reference)
    views

let test_views_are_naive_sum () =
  let doc =
    parse_ok
      {|<db>
         <r><a>x</a><b>u</b><price>10.1</price></r>
         <r><a>x</a><b>v</b><price>5.7</price></r>
         <r><a>x</a><b>u</b><b>v</b><price>0.3</price></r>
         <r><a>y</a><b>u</b><price>2.5</price></r>
       </db>|}
  in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
        ~allowed:[ Relax.Lnd ];
      X3_pattern.Axis.make_exn ~name:"$b" ~steps:[ step c "b" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  let spec =
    {
      Engine.fact_path = [ step d "r" ];
      axes;
      func = Aggregate.Sum;
      measure_path = Some [ step c "price" ];
      filters = [];
    }
  in
  let session =
    Engine.Session.create
      (Engine.prepare ~pool:(small_pool ())
         ~store:(X3_xdb.Store.of_document doc)
         spec)
  in
  let prepared = Engine.Session.prepared session in
  let reference, _ = Engine.run prepared Engine.Naive in
  let views = session_views session in
  let admitted =
    check_views_and_rollups ~name:"sum" ~func:Aggregate.Sum session views
      reference
  in
  Alcotest.(check bool) "some rollups admitted" true (admitted > 0);
  (* Fact 3 sits in both $b groups: the rigid view may not be rolled up
     to the ALL cuboid, which counts its price once. *)
  let all = cuboid_id prepared [ removed; removed ] in
  let rigid = X3_lattice.Lattice.rigid_id (Engine.lattice prepared) in
  Alcotest.(check bool) "rigid -> ALL refused" true
    (Result.is_error
       (Engine.Session.rollup session (List.nth views rigid) ~coarser:all))

(* [approx_bytes] charges 128 for the record and 200 per group (slot and
   key, cell, a slot of the stored order) after every operation, or cache
   accounting and eviction order drift. *)
let check_approx_bytes ~name view =
  Alcotest.(check int)
    (Printf.sprintf "%s: approx_bytes of cuboid %d" name
       (Materialized.cuboid_id view))
    (128 + (200 * Materialized.group_count view))
    (Materialized.approx_bytes view)

let test_approx_bytes_matches_recount () =
  let spec = Engine.count_spec ~fact_path ~axes:(query1_axes ()) in
  let session =
    Engine.Session.create
      (Engine.prepare ~pool:(small_pool ()) ~store:(figure1_store ()) spec)
  in
  let lattice = Engine.lattice (Engine.Session.prepared session) in
  let views = session_views session in
  List.iter (check_approx_bytes ~name:"materialize") views;
  List.iter
    (fun fine ->
      for coarser = 0 to X3_lattice.Lattice.size lattice - 1 do
        Result.iter
          (check_approx_bytes ~name:"rollup")
          (Engine.Session.rollup session fine ~coarser)
      done)
    views;
  ingest_all spec session ~views [ (7, pub5); (3, pub6) ];
  List.iter (check_approx_bytes ~name:"apply_delta") views

(* Ingests extend the session's cached block measures in place, past
   spare capacity: every block, old and new, keeps its fact's measure. *)
let test_delta_extends_block_measures () =
  let spec = Engine.count_spec ~fact_path ~axes:(query1_axes ()) in
  let session =
    Engine.Session.create
      (Engine.prepare ~pool:(small_pool ()) ~store:(figure1_store ()) spec)
  in
  let views = session_views session in
  let ctx = Engine.Session.context session in
  ingest_all spec session ~views [ (7, pub5); (3, pub6); (9, pub9) ];
  let cols = Context.cols ctx in
  let measures = Context.block_measures ctx cols in
  Alcotest.(check bool) "one measure per block" true
    (Array.length measures >= Witness.Columnar.blocks cols);
  for b = 0 to Witness.Columnar.blocks cols - 1 do
    Alcotest.(check (float 0.))
      (Printf.sprintf "block %d" b)
      (ctx.Context.measure
         (Witness.Columnar.fact cols (Witness.Columnar.block_lo cols b)))
      measures.(b)
  done

(* --- export: values of any length, in the historical order ---------------- *)

let doc_of_facts facts =
  match Tree.elem "db" facts with
  | Tree.Element e -> Tree.document e
  | _ -> assert false

(* The export as it was written over legacy encoded keys: each cuboid's
   groups decoded through the dictionaries and sorted by [String.compare]
   over [legacy_encode] — independent of [Cube_result.cuboid_cells], which
   shares the export's comparator. *)
let legacy_float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let legacy_csv_quote field =
  if String.exists (function '"' | ',' | '\n' | '\r' -> true | _ -> false) field
  then "\"" ^ String.concat "\"\"" (String.split_on_char '"' field) ^ "\""
  else field

let legacy_json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let legacy_groups result id =
  let dicts = Witness.dicts (Cube_result.table result) in
  let groups = ref [] in
  Cube_result.iter_cuboid result id (fun key cell ->
      let parts =
        Group_key.to_parts (Cube_result.shape result id) ~dicts key
      in
      groups := (parts, cell) :: !groups);
  List.sort legacy_order !groups

let legacy_columns cuboid key =
  let parts = ref key in
  Array.to_list
    (Array.map
       (function
         | X3_lattice.State.Removed -> "(ALL)"
         | X3_lattice.State.Present _ -> (
             match !parts with
             | part :: rest ->
                 parts := rest;
                 part
             | [] -> assert false))
       cuboid)

let legacy_csv ~func result =
  let lattice = Cube_result.lattice result in
  let axes = X3_lattice.Lattice.axes lattice in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "cuboid,degree";
  Array.iter
    (fun a -> Buffer.add_string buf ("," ^ legacy_csv_quote a.Axis.name))
    axes;
  Buffer.add_string buf ("," ^ Aggregate.func_to_string func ^ "\n");
  Array.iter
    (fun id ->
      let cuboid = X3_lattice.Lattice.cuboid lattice id in
      List.iter
        (fun (key, cell) ->
          Buffer.add_string buf
            (Printf.sprintf "%d,%d" id (X3_lattice.Lattice.degree lattice id));
          List.iter
            (fun col -> Buffer.add_string buf ("," ^ legacy_csv_quote col))
            (legacy_columns cuboid key);
          Buffer.add_string buf
            ("," ^ legacy_float_repr (Aggregate.value func cell) ^ "\n"))
        (legacy_groups result id))
    (X3_lattice.Lattice.by_degree lattice);
  Buffer.contents buf

let legacy_json ~func result =
  let lattice = Cube_result.lattice result in
  let axes = X3_lattice.Lattice.axes lattice in
  let cuboid_json id =
    let cuboid = X3_lattice.Lattice.cuboid lattice id in
    let states =
      Array.to_list
        (Array.mapi
           (fun i state ->
             legacy_json_string
               (Printf.sprintf "%s:%s" axes.(i).Axis.name
                  (X3_lattice.State.to_string axes.(i) state)))
           cuboid)
    in
    let groups =
      List.map
        (fun (key, cell) ->
          let v = Aggregate.value func cell in
          Printf.sprintf "{\"key\": [%s], \"value\": %s}"
            (String.concat ", " (List.map legacy_json_string key))
            (if Float.is_nan v then "null" else legacy_float_repr v))
        (legacy_groups result id)
    in
    Printf.sprintf "\n  {\"cuboid\": %d, \"states\": [%s], \"groups\": [%s]}" id
      (String.concat ", " states)
      (String.concat ", " groups)
  in
  "["
  ^ String.concat ","
      (List.map cuboid_json
         (Array.to_list (X3_lattice.Lattice.by_degree lattice)))
  ^ "\n]\n"

(* Values whose lengths straddle the legacy encoding's length bytes (255 /
   256 / 257, 511 / 512), plus empty strings, NUL, high bytes and CSV
   metacharacters. *)
let gen_export_case =
  let open QCheck2.Gen in
  let value =
    map3
      (fun len fill last ->
        if len = 0 then "" else String.make (len - 1) fill ^ String.make 1 last)
      (oneofl [ 0; 1; 2; 255; 256; 257; 511; 512 ])
      (oneofl [ 'a'; '\000'; '\xff' ])
      (oneofl [ 'a'; 'b'; '\000'; '\x80'; '\xff'; ','; '"' ])
  in
  let child tag = map (fun v -> Tree.elem tag [ Tree.text v ]) value in
  map doc_of_facts
    (list_size (int_range 1 10)
       (map2
          (fun xs ys -> Tree.elem "r" (xs @ ys))
          (list_size (int_bound 2) (child "a"))
          (list_size (int_bound 2) (child "b"))))

let prop_export_matches_legacy_order =
  QCheck2.Test.make ~name:"export bytes = legacy string-key export" ~count:150
    gen_export_case (fun doc ->
      let store = X3_xdb.Store.of_document doc in
      let spec =
        Engine.count_spec ~fact_path:[ step d "r" ] ~axes:(random_axes ())
      in
      let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
      let result, _ = Engine.run p Engine.Counter in
      let func = Aggregate.Count in
      let csv = Export.csv_string ~func result in
      let json = Export.json_string ~func result in
      (* the serve path: materialised views printed from their order *)
      let session = Engine.Session.create p in
      let views =
        Array.init
          (X3_lattice.Lattice.size (Engine.lattice p))
          (fun cuboid -> Engine.Session.materialize session ~cuboid)
      in
      let from_views () =
        ( Export.views_csv_string ~func (Engine.lattice p) views,
          Export.views_json_string ~func (Engine.lattice p) views )
      in
      let matches_legacy result =
        String.equal
          (Export.csv_string ~func result)
          (legacy_csv ~func result)
        && String.equal
             (Export.json_string ~func result)
             (legacy_json ~func result)
      in
      let before_growth = matches_legacy result && from_views () = (csv, json) in
      (* Grow the dictionaries after those exports memoised their value
         ranks: ingest facts whose values sort before every value (the
         empty one, when it is new), between them (3 bytes) and after
         them (767 bytes: low length byte 0xFF and more than any
         generated value), then export a run over the grown table. *)
      let late = String.make 767 'z' in
      List.iteri
        (fun i (a, b) ->
          let fragment =
            match
              Tree.elem "r"
                [ Tree.elem "a" [ Tree.text a ]; Tree.elem "b" [ Tree.text b ] ]
            with
            | Tree.Element e -> e
            | _ -> assert false
          in
          match
            Engine.stage_fragment spec ~fragment
              ~fact_id:(Engine.synthetic_fact_id ~lsn:(i + 1))
          with
          | Engine.Staged rows ->
              ignore (Witness.append (Engine.table p) rows : Witness.row list)
          | Engine.Not_a_fact | Engine.Unsupported _ -> assert false)
        [ ("", "mid"); ("mid", late); (late, "") ];
      (* the views were not patched: the order they stored before the
         growth still holds, as does a fresh sort of the same cells *)
      before_growth
      && from_views () = (csv, json)
      && Export.csv_string ~func result = csv
      && matches_legacy (fst (Engine.run p Engine.Counter)))

(* Four axes of 4,097 values (13 bits of rank each) and a fifth of 8,194
   (14 bits) need 66 bits, more than the export sort packs into one word,
   so the rigid cuboid compares two words a group. Facts come in pairs
   that share their first four values, so pairs tie on the first word and
   the second decides. Cube and view exports equal the legacy reference. *)
let test_export_ranks_past_one_word () =
  let value ~m i = Printf.sprintf "%x" (i * m mod 100_003) in
  let doc =
    doc_of_facts
      (List.init 8194 (fun i ->
           Tree.elem "r"
             (List.map2
                (fun tag m -> Tree.elem tag [ Tree.text (value ~m (i / 2)) ])
                [ "a"; "b"; "c"; "d" ]
                [ 7919; 104_729; 1_299_709; 15_485_863 ]
             @ [ Tree.elem "e" [ Tree.text (value ~m:31 i) ] ])))
  in
  let axis ~allowed name =
    X3_pattern.Axis.make_exn ~name:("$" ^ name) ~steps:[ step c name ] ~allowed
  in
  let axes =
    Array.append
      (Array.map (axis ~allowed:[]) [| "a"; "b"; "c"; "d" |])
      [| axis ~allowed:[ Relax.Lnd ] "e" |]
  in
  let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes in
  let p =
    Engine.prepare ~pool:(small_pool ()) ~store:(X3_xdb.Store.of_document doc)
      spec
  in
  let result, _ = Engine.run p Engine.Counter in
  let func = Aggregate.Count in
  let csv = legacy_csv ~func result and json = legacy_json ~func result in
  Alcotest.(check string) "csv = legacy" csv (Export.csv_string ~func result);
  Alcotest.(check string) "json = legacy" json (Export.json_string ~func result);
  let session = Engine.Session.create p in
  let views =
    Array.init
      (X3_lattice.Lattice.size (Engine.lattice p))
      (fun cuboid -> Engine.Session.materialize session ~cuboid)
  in
  Alcotest.(check string) "views csv = legacy" csv
    (Export.views_csv_string ~func (Engine.lattice p) views);
  Alcotest.(check string) "views json = legacy" json
    (Export.views_json_string ~func (Engine.lattice p) views)

let test_export_long_binary_values () =
  let long = String.make 70_000 'L' in
  let binary = "bin\000\001\x7f\xfe\xff" in
  let utf8 = "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac" in
  let doc =
    doc_of_facts
      (List.map
         (fun v -> Tree.elem "r" [ Tree.elem "a" [ Tree.text v ] ])
         [ long; binary; long; utf8; "plain" ])
  in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes in
  let p =
    Engine.prepare ~pool:(small_pool ()) ~store:(X3_xdb.Store.of_document doc)
      spec
  in
  let exports alg =
    let result, _ = Engine.run p alg in
    ( Export.csv_string ~func:Aggregate.Count result,
      Export.json_string ~func:Aggregate.Count result )
  in
  let csv, json = exports Engine.Naive in
  List.iter
    (fun alg ->
      Alcotest.(check bool)
        (Engine.algorithm_to_string alg ^ " exports = NAIVE's")
        true
        (exports alg = (csv, json)))
    Engine.[ Counter; Buc; Td ];
  let rigid = X3_lattice.Lattice.rigid_id (Engine.lattice p) in
  let row v n = Printf.sprintf "%d,0,%s,%d" rigid v n in
  let lines = String.split_on_char '\n' csv in
  List.iter
    (fun (v, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "csv row for a %d-byte value" (String.length v))
        true
        (List.mem (row v n) lines))
    [ (long, 2); (binary, 1); (utf8, 1); ("plain", 1) ];
  let module Json = X3_obs.Json in
  match Json.parse json with
  | Error msg -> Alcotest.failf "json export does not parse: %s" msg
  | Ok (Json.Arr cuboids) ->
      let keys =
        List.concat_map
          (fun cuboid ->
            match Json.member "groups" cuboid with
            | Some (Json.Arr groups) ->
                List.filter_map
                  (fun g ->
                    match (Json.member "key" g, Json.member "value" g) with
                    | Some (Json.Arr [ Json.Str k ]), Some (Json.Int n) ->
                        Some (k, n)
                    | _ -> None)
                  groups
            | _ -> [])
          cuboids
      in
      Alcotest.(check (list (pair string int)))
        "json keys decode back to the values"
        (List.sort compare [ (long, 2); (binary, 1); (utf8, 1); ("plain", 1) ])
        (List.sort compare keys)
  | Ok _ -> Alcotest.fail "json export is not an array"

(* --- awkward values end to end ------------------------------------------- *)

(* Values at every length boundary of a u16 length field (0, 1, 255,
   256, 65535, 65536) and past it, filled with plain, NUL or 0xff bytes,
   plus lone NUL and 0xff bytes and UTF-8 text. *)
let awkward_values =
  List.concat_map
    (fun len -> List.map (String.make len) [ 'a'; '\000'; '\xff' ])
    [ 0; 1; 255; 256; 65_535; 65_536; 70_000 ]
  @ [ "\000"; "\xff"; "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac" ]

let gen_awkward_case =
  let open QCheck2.Gen in
  let child tag =
    map (fun v -> Tree.elem tag [ Tree.text v ]) (oneofl awkward_values)
  in
  map doc_of_facts
    (list_size (int_range 1 6)
       (map2
          (fun xs ys -> Tree.elem "r" (xs @ ys))
          (list_size (int_bound 2) (child "a"))
          (list_size (int_bound 2) (child "b"))))

(* Cube -> CSV/JSON export, the printers and lookups by value; then
   every group value, and the exports themselves, through a warm-restart
   index file as query text and document path. *)
let prop_awkward_values_roundtrip =
  QCheck2.Test.make
    ~name:"awkward values: cube -> export, warm index roundtrip" ~count:25
    gen_awkward_case (fun doc ->
      let spec =
        Engine.count_spec ~fact_path:[ step d "r" ] ~axes:(random_axes ())
      in
      let p =
        Engine.prepare ~pool:(small_pool ())
          ~store:(X3_xdb.Store.of_document doc) spec
      in
      let lattice = Engine.lattice p in
      let func = Aggregate.Count in
      let result, _ = Engine.run p Engine.Naive in
      let csv = Export.csv_string ~func result in
      let json = Export.json_string ~func result in
      let entries =
        { X3_serve.Warm_store.ws_query = csv; ws_doc_path = json }
        :: List.concat_map
             (fun id ->
               List.concat_map
                 (fun (values, _) ->
                   List.map
                     (fun v ->
                       { X3_serve.Warm_store.ws_query = v; ws_doc_path = v })
                     (Array.to_list values))
                 (Cube_result.cuboid_cells result id))
             (Array.to_list (X3_lattice.Lattice.by_degree lattice))
      in
      let path = Filename.temp_file "x3awkward" ".snap" in
      let loaded =
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            match X3_serve.Warm_store.save ~path entries with
            | Error msg -> QCheck2.Test.fail_reportf "save: %s" msg
            | Ok () -> X3_serve.Warm_store.load ~path)
      in
      let finds_every_group cube =
        Array.for_all
          (fun id ->
            List.for_all
              (fun (values, cell) ->
                match
                  Cube_result.find cube ~cuboid:id ~key:(Array.to_list values)
                with
                | Some found -> found == cell
                | None -> false)
              (Cube_result.cuboid_cells cube id))
          (X3_lattice.Lattice.by_degree lattice)
      in
      let prints cube =
        ignore
          (Format.asprintf "%a" (Cube_result.pp ?max_groups:None ~func) cube);
        match Pivot.make ~func ~row_axis:0 ~col_axis:1 cube with
        | Ok pivot -> ignore (Format.asprintf "%a" Pivot.pp pivot)
        | Error msg -> QCheck2.Test.fail_reportf "pivot: %s" msg
      in
      prints result;
      (match loaded with
      | Ok entries' ->
          if entries' <> entries then
            QCheck2.Test.fail_report "warm index entries changed"
      | Error msg -> QCheck2.Test.fail_reportf "load: %s" msg);
      finds_every_group result)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "x3_core"
    [
      ( "aggregate",
        [
          Alcotest.test_case "values" `Quick test_aggregate_values;
          Alcotest.test_case "merge" `Quick test_aggregate_merge;
          Alcotest.test_case "empty" `Quick test_aggregate_empty;
        ] );
      ( "group key",
        [
          Alcotest.test_case "roundtrip" `Quick test_key_roundtrip;
          Alcotest.test_case "seen compaction" `Quick test_seen_compaction;
        ] );
      ( "figure 1 semantics",
        [
          Alcotest.test_case "group by year" `Quick test_naive_group_by_year;
          Alcotest.test_case "publisher-year disjointness" `Quick
            test_naive_publisher_year_disjointness;
          Alcotest.test_case "ALL group" `Quick test_naive_all_group;
          Alcotest.test_case "relaxation widens groups" `Quick
            test_naive_author_relaxation_widens;
          Alcotest.test_case "rigid cuboid" `Quick test_naive_rigid_cuboid;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "correct family agrees" `Quick
            test_correct_algorithms_agree;
          Alcotest.test_case "optimised wrong on figure 1" `Quick
            test_optimised_algorithms_wrong_on_figure1;
          Alcotest.test_case "all agree on clean data" `Quick
            test_all_algorithms_agree_on_clean_data;
          Alcotest.test_case "counter multipass" `Quick test_counter_multipass;
          Alcotest.test_case "td sorts allocate no page" `Quick
            test_td_sorts_allocate_no_page;
          Alcotest.test_case "instrumentation" `Quick
            test_instrumentation_sanity;
          Alcotest.test_case "sum measure" `Quick test_sum_measure;
          Alcotest.test_case "sum adds in table order" `Quick
            test_sum_in_table_order;
        ] );
      ( "where filters",
        [
          Alcotest.test_case "filter_holds edge cases" `Quick
            test_filter_holds_edge_cases;
          Alcotest.test_case "filters prune facts at prepare" `Quick
            test_filter_prunes_facts;
        ] );
      ( "extended coverage",
        [
          Alcotest.test_case "all aggregates x all algorithms" `Quick
            test_all_aggregates_all_algorithms;
          Alcotest.test_case "aggregate values" `Quick
            test_aggregate_expected_values;
          Alcotest.test_case "non-LND axis" `Quick test_non_lnd_axis;
          Alcotest.test_case "correct_under table" `Quick test_correct_under;
          Alcotest.test_case "counter budget 1" `Quick test_counter_budget_one;
          Alcotest.test_case "long values kept intact, not corrupted" `Quick
            test_long_value_kept_whole;
          Alcotest.test_case "coded path = legacy string grouping" `Quick
            test_coded_path_matches_legacy_grouping;
        ] );
      ( "materialized (§3.6)",
        [
          Alcotest.test_case "matches naive" `Quick
            test_materialize_matches_naive;
          Alcotest.test_case "rollup refuses non-disjoint" `Quick
            test_materialized_rollup_refuses_non_disjoint;
          Alcotest.test_case "rollup refuses uncovered" `Quick
            test_materialized_rollup_refuses_uncovered;
          Alcotest.test_case "rollup rejects non-relaxation" `Quick
            test_materialized_rollup_rejects_non_relaxation;
          Alcotest.test_case "views = naive (COUNT)" `Quick
            test_views_are_naive_count;
          Alcotest.test_case "views = naive (SUM)" `Quick
            test_views_are_naive_sum;
          Alcotest.test_case "approx_bytes = recount after every operation"
            `Quick test_approx_bytes_matches_recount;
        ] );
      ( "ingest deltas",
        [
          Alcotest.test_case "figure-1: delta == cold rebuild, 4 families"
            `Quick test_delta_identity_figure1;
          Alcotest.test_case "treebank: delta == cold rebuild, 4 families"
            `Quick test_delta_identity_treebank;
          Alcotest.test_case "layout overflow refused, nothing mutated" `Quick
            test_delta_layout_overflow_refused;
          Alcotest.test_case "fragment classification" `Quick
            test_stage_fragment_classification;
          Alcotest.test_case "block measures follow appends" `Quick
            test_delta_extends_block_measures;
        ]
        @ qcheck [ prop_delta_vs_cold; prop_stage_equals_build ] );
      ( "export",
        [
          Alcotest.test_case "csv" `Quick test_export_csv;
          Alcotest.test_case "csv quoting" `Quick test_export_csv_quoting;
          Alcotest.test_case "json shape" `Quick test_export_json_shape;
          Alcotest.test_case "long, binary and non-ASCII values" `Quick
            test_export_long_binary_values;
          Alcotest.test_case "ranks past one word" `Quick
            test_export_ranks_past_one_word;
          Alcotest.test_case "floats print in full" `Quick
            test_export_float_spelling;
        ] );
      ( "pivot",
        [
          Alcotest.test_case "figure 1 cross-tab" `Quick test_pivot_figure1;
          Alcotest.test_case "rejects same axis" `Quick
            test_pivot_rejects_same_axis;
          Alcotest.test_case "marginals" `Quick test_pivot_marginals_consistent;
        ] );
      ( "serial families",
        [
          Alcotest.test_case "every family = NAIVE" `Quick
            test_families_match_naive;
          Alcotest.test_case "counter over several passes" `Quick
            test_counter_several_passes;
          Alcotest.test_case "stops inside the main loop" `Quick
            test_stops_inside_main_loop;
        ] );
      ( "radix grouping",
        [
          Alcotest.test_case "radix = hash on figure 1" `Quick
            test_radix_hash_identity_figure1;
          Alcotest.test_case "radix = hash on treebank" `Quick
            test_radix_hash_identity_treebank;
          Alcotest.test_case "BUC quicksorts small partitions" `Quick
            test_buc_small_partitions_quicksort;
          Alcotest.test_case "wide layout: every family = NAIVE" `Quick
            test_wide_layout_whole_cube;
        ] );
      ( "allocation pins",
        [
          Alcotest.test_case "radix row path allocates nothing" `Quick
            test_radix_row_path_allocation_free;
          Alcotest.test_case "eval candidate check allocates nothing" `Quick
            test_eval_check_allocation_free;
          Alcotest.test_case "BUC dedup words per row bounded" `Quick
            test_buc_dedup_allocation_bound;
        ] );
      ( "governor",
        [
          Alcotest.test_case "counter eviction at budget 1" `Quick
            test_counter_eviction_budget_one;
          Alcotest.test_case "single cuboid survives eviction" `Quick
            test_counter_single_cuboid_keep_rule;
          Alcotest.test_case "tie-broken eviction is deterministic" `Quick
            test_counter_eviction_tie_deterministic;
          Alcotest.test_case "spill boundary (figure 1)" `Quick
            test_governed_spill_figure1;
          Alcotest.test_case "spill boundary (treebank)" `Quick
            test_governed_spill_treebank;
          Alcotest.test_case "sort record cost covers a record" `Quick
            test_sort_record_cost_covers_record;
          Alcotest.test_case "budget below the witness table" `Quick
            test_over_budget_below_witness;
          Alcotest.test_case "pool drains on every exit path" `Quick
            test_governor_pool_drained;
        ] );
      ( "randomised",
        qcheck
          [
            prop_merge_associative;
            prop_key_roundtrip;
            prop_packed_key_roundtrip;
            prop_packed_key_project;
            prop_algorithms_agree;
            prop_optimised_correct_when_licensed;
            prop_counter_budget_independent;
            prop_repeated_runs_identical;
            prop_sp_algorithms_agree;
            prop_sp_monotone_match_sets;
            prop_export_matches_legacy_order;
            prop_awkward_values_roundtrip;
          ] );
    ]
