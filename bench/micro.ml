(* Bechamel micro-benchmarks for the substrate design choices DESIGN.md
   calls out: XML loading, holistic path matching vs navigation, external
   vs in-memory sorting, buffer-pool behaviour, quicksort, witness-table
   evaluation, and a serve session's views. *)

open Bechamel
open Toolkit

module Store = X3_xdb.Store
module Sj = X3_xdb.Structural_join
module Twig = X3_xdb.Twig_join

let treebank_store trees =
  let config =
    { X3_workload.Treebank.default with num_trees = trees; axes = 3 }
  in
  Store.of_document (X3_workload.Treebank.generate config)

let path_tests () =
  let store = treebank_store 500 in
  let path =
    [
      { Twig.axis = Sj.Descendant; tag = "s" };
      { Twig.axis = Sj.Child; tag = "w1" };
      { Twig.axis = Sj.Child; tag = "d1" };
    ]
  in
  [
    Test.make ~name:"path/pathstack"
      (Staged.stage (fun () -> Twig.path_solutions store path (fun _ -> ())));
    Test.make ~name:"path/navigational"
      (Staged.stage (fun () -> ignore (Twig.naive_path_solutions store path)));
  ]

let pool_tests () =
  let make_pool capacity =
    let pool =
      X3_storage.Buffer_pool.create ~capacity_pages:capacity
        (X3_storage.Disk.in_memory ~page_size:8192 ())
    in
    let pages = Array.init 256 (fun _ -> X3_storage.Buffer_pool.allocate pool) in
    (pool, pages)
  in
  let all_hits = make_pool 512 and thrash = make_pool 16 in
  let touch (pool, pages) () =
    Array.iter
      (fun id -> X3_storage.Buffer_pool.with_page pool id (fun _ -> ()))
      pages
  in
  [
    Test.make ~name:"pool/256-pages-all-resident" (Staged.stage (touch all_hits));
    Test.make ~name:"pool/256-pages-16-frames" (Staged.stage (touch thrash));
  ]

let quicksort_tests () =
  let rng = X3_workload.Rng.create ~seed:23 in
  let base = Array.init 10_000 (fun _ -> X3_workload.Rng.int rng 1_000_000) in
  [
    Test.make ~name:"quicksort/ours"
      (Staged.stage (fun () ->
           let a = Array.copy base in
           X3_storage.Quicksort.sort ~compare:Int.compare a));
    Test.make ~name:"quicksort/stdlib-heapsort"
      (Staged.stage (fun () ->
           let a = Array.copy base in
           Array.sort Int.compare a));
  ]

let eval_tests () =
  let config =
    { X3_workload.Treebank.default with num_trees = 300; axes = 3; coverage = false }
  in
  let store = Store.of_document (X3_workload.Treebank.generate config) in
  let axes = X3_workload.Treebank.axes config in
  let fact_path = X3_workload.Treebank.fact_path in
  let pool () =
    X3_storage.Buffer_pool.create ~capacity_pages:4096
      (X3_storage.Disk.in_memory ~page_size:8192 ())
  in
  [
    Test.make ~name:"mrfi-eval/navigational"
      (Staged.stage (fun () ->
           ignore (X3_pattern.Eval.build_table (pool ()) store ~fact_path ~axes)));
  ]

(* Loading a document into the node store: the DOM path (parse, then
   label the tree) against the scanner feeding the store builder, on the
   two document sizes the serve churn workload reloads. Reported as MB/s
   and minor words per input byte as well as time per run. *)
let load_docs () =
  let treebank =
    X3_workload.Treebank.generate
      {
        X3_workload.Treebank.default with
        num_trees = 10_000;
        axes = 5;
        density = X3_workload.Treebank.Dense;
      }
  and dblp =
    X3_workload.Dblp.generate { X3_workload.Dblp.seed = 1; num_articles = 10_000 }
  in
  [
    ("treebank-1e4", X3_xml.Serialize.to_string treebank);
    ("dblp-1e4", X3_xml.Serialize.to_string dblp);
  ]

let load_tests docs =
  let ok = function Ok v -> v | Error _ -> assert false in
  List.concat_map
    (fun (name, src) ->
      [
        Test.make
          ~name:("xml.load/" ^ name ^ "/parse+of_document")
          (Staged.stage (fun () ->
               Store.of_document (ok (X3_xml.Parser.parse src))));
        Test.make
          ~name:("xml.load/" ^ name ^ "/of_string")
          (Staged.stage (fun () -> ok (Store.of_string src)));
      ])
    docs

(* A serve session's views on 10^4-tree treebanks: every cuboid built
   from base ([Session.materialize]), and every cuboid that TDCUST's rule
   lets a one-step-finer view answer, rolled up from the first such view
   ([Session.rollup]). Sparse values put the base step on the hash + sort
   tier, dense ones on the radix tiers. Reported per view, with minor
   words per witness row (base) or per finer group merged (rollup) and
   the bytes the cache charges per view. *)
type view_bench = {
  vb_name : string;
  vb_session : X3_core.Engine.Session.t;
  vb_rows : int;
  vb_views : X3_core.Materialized.t array;
  vb_edges : (int * int) list;  (* admitted (finer, coarser) *)
}

let view_bench (name, density) =
  let module Engine = X3_core.Engine in
  let module Lattice = X3_lattice.Lattice in
  let config =
    { X3_workload.Treebank.default with num_trees = 10_000; axes = 3; density }
  in
  let store = Store.of_document (X3_workload.Treebank.generate config) in
  let pool =
    X3_storage.Buffer_pool.create ~capacity_pages:65536
      (X3_storage.Disk.in_memory ~page_size:8192 ())
  in
  let prepared =
    Engine.prepare ~pool ~store (X3_workload.Treebank.spec config)
  in
  let session = Engine.Session.create prepared in
  let lattice = Engine.lattice prepared in
  let views =
    Array.init (Lattice.size lattice) (fun cuboid ->
        Engine.Session.materialize session ~cuboid)
  in
  let edges =
    List.filter_map
      (fun coarser ->
        List.find_map
          (fun finer ->
            match Engine.Session.rollup session views.(finer) ~coarser with
            | Ok _ -> Some (finer, coarser)
            | Error _ -> None)
          (Lattice.children lattice coarser))
      (List.init (Lattice.size lattice) Fun.id)
  in
  {
    vb_name = name;
    vb_session = session;
    vb_rows = X3_pattern.Witness.row_count (Engine.table prepared);
    vb_views = views;
    vb_edges = edges;
  }

let view_benches () =
  List.map view_bench
    [
      ("sparse", X3_workload.Treebank.Sparse);
      ("dense", X3_workload.Treebank.Dense);
    ]

let view_tests vb =
  let module Session = X3_core.Engine.Session in
  [
    Test.make
      ~name:("serve.view/" ^ vb.vb_name ^ "/materialize")
      (Staged.stage (fun () ->
           for cuboid = 0 to Array.length vb.vb_views - 1 do
             ignore (Session.materialize vb.vb_session ~cuboid)
           done));
    Test.make
      ~name:("serve.view/" ^ vb.vb_name ^ "/rollup")
      (Staged.stage (fun () ->
           List.iter
             (fun (finer, coarser) ->
               ignore (Session.rollup vb.vb_session vb.vb_views.(finer) ~coarser))
             vb.vb_edges));
  ]

let all_tests docs vbs =
  load_tests docs @ path_tests () @ pool_tests ()
  @ quicksort_tests () @ eval_tests ()
  @ List.concat_map view_tests vbs

let run ppf =
  let docs = load_docs () in
  let vbs = view_benches () in
  let tests = all_tests docs vbs in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:true ()
  in
  let raw =
    Benchmark.all cfg
      [ Instance.monotonic_clock; Instance.minor_allocated ]
      (Test.make_grouped ~name:"micro" tests)
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let estimate results name =
    match Analyze.OLS.estimates (Hashtbl.find results name) with
    | Some (t :: _) -> t
    | Some [] | None | (exception Not_found) -> nan
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let minor = Analyze.all ols Instance.minor_allocated raw in
  let rows =
    Hashtbl.fold (fun name _ acc -> (name, estimate results name) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Format.fprintf ppf "@.%s@.Micro-benchmarks (bechamel, monotonic clock)@.%s@."
    (String.make 100 '-') (String.make 100 '-');
  List.iter
    (fun (name, ns) ->
      let value, unit_ =
        if Float.is_nan ns then (nan, "ns")
        else if ns >= 1e9 then (ns /. 1e9, "s ")
        else if ns >= 1e6 then (ns /. 1e6, "ms")
        else if ns >= 1e3 then (ns /. 1e3, "us")
        else (ns, "ns")
      in
      Format.fprintf ppf "  %-45s %10.2f %s/run@." name value unit_)
    rows;
  Format.fprintf ppf "@.XML load (MB/s; minor words per input byte)@.";
  List.iter
    (fun (doc, src) ->
      let bytes = float_of_int (String.length src) in
      List.iter
        (fun path ->
          let name = Printf.sprintf "micro/xml.load/%s/%s" doc path in
          Format.fprintf ppf "  %-45s %8.1f MB/s %8.2f w/B@." name
            (bytes /. estimate results name *. 1e3)
            (estimate minor name /. bytes))
        [ "parse+of_document"; "of_string" ])
    docs;
  List.iter
    (fun vb ->
      let cuboids = Array.length vb.vb_views in
      let fine_groups =
        List.fold_left
          (fun acc (finer, _) ->
            acc + X3_core.Materialized.group_count vb.vb_views.(finer))
          0 vb.vb_edges
      in
      let bytes =
        Array.fold_left
          (fun acc v -> acc + X3_core.Materialized.approx_bytes v)
          0 vb.vb_views
      in
      Format.fprintf ppf
        "@.Serve views (%s treebank, 10^4 trees, %d witness rows, %d \
         cuboids, %d admitted rollups)@."
        vb.vb_name vb.vb_rows cuboids (List.length vb.vb_edges);
      List.iter
        (fun (step, views, units, unit_name) ->
          let name = Printf.sprintf "micro/serve.view/%s/%s" vb.vb_name step in
          Format.fprintf ppf "  %-45s %8.3f ms/view %8.2f w/%s@." name
            (estimate results name /. 1e6 /. float_of_int (max 1 views))
            (estimate minor name /. float_of_int (max 1 units))
            unit_name)
        [
          ("materialize", cuboids, cuboids * vb.vb_rows, "row");
          ("rollup", List.length vb.vb_edges, fine_groups, "group");
        ];
      Format.fprintf ppf "  %-45s %8d B/view@." "approx_bytes (materialized)"
        (bytes / cuboids))
    vbs
