(* One sweep per evaluation figure of the paper (§4, Figs. 4-10).

   Input sizes are scaled down by default (the paper's 10^4/10^5 matching
   input trees become 10^3/10^4 at --scale 1); the COUNTER memory budget
   scales with them so the multi-pass meltdown appears at the same axis
   counts. Absolute seconds are machine-specific; the claims under test are
   the *shapes*: who wins where, and where curves blow up. *)

module Engine = X3_core.Engine
module Treebank = X3_workload.Treebank
module Dblp = X3_workload.Dblp

let axes_range = [ 2; 3; 4; 5; 6; 7 ]

(* The COUNTER budget: generous enough that low-dimensional cubes fit
   comfortably, small enough that 6-7 axis sparse cubes force extra passes
   (the paper needed 2 passes at 6 axes, 5 at 7 on Fig. 5). *)
let counter_budget ~trees = 40 * trees

let treebank_make ~trees ~coverage ~disjoint ~density ~with_schema axes =
  let config =
    {
      Treebank.seed = 42 + axes;
      num_trees = trees;
      axes;
      coverage;
      disjoint;
      density;
    }
  in
  let doc = Treebank.generate config in
  let store = X3_xdb.Store.of_document doc in
  let schema =
    if with_schema then Some (X3_xml.Schema.of_dtd (Treebank.dtd config))
    else None
  in
  (store, Treebank.spec config, schema)

let treebank_sweep ~name ~title ~trees ~coverage ~disjoint ~density
    ~algorithms ~cutoff =
  {
    Harness.name;
    sweep_title = title;
    xs = axes_range;
    algorithms;
    cutoff;
    make =
      treebank_make ~trees ~coverage ~disjoint ~density ~with_schema:false;
    config_for =
      (fun _ ->
        { Engine.default_config with counter_budget = counter_budget ~trees });
  }

(* §4.1: total coverage fails, disjointness holds.  TDOPT is applicable
   (correct) because disjointness holds; TDOPTALL is not. *)
let standard_algorithms =
  Engine.[ Counter; Buc; Bucopt; Td; Tdopt ]

(* §4.2: both hold — the paper swaps TDOPT for TDOPTALL. *)
let both_hold_algorithms = Engine.[ Counter; Buc; Bucopt; Td; Tdoptall ]

(* §4.3: neither holds — every variant is timed, the optimised ones
   knowingly compute wrong cubes ("we still ran them"). *)
let neither_algorithms = Engine.[ Counter; Buc; Bucopt; Td; Tdopt; Tdoptall ]

let fig4 ~scale ~cutoff =
  treebank_sweep ~name:"Fig. 4"
    ~title:
      (Printf.sprintf
         "sparse cubes, %d input trees (paper: 10^4), coverage does not \
          hold, disjointness holds"
         (1_000 * scale))
    ~trees:(1_000 * scale) ~coverage:false ~disjoint:true
    ~density:Treebank.Sparse ~algorithms:standard_algorithms ~cutoff

let fig5 ~scale ~cutoff =
  treebank_sweep ~name:"Fig. 5"
    ~title:
      (Printf.sprintf
         "sparse cubes, %d input trees (paper: 10^5), coverage does not \
          hold, disjointness holds"
         (10_000 * scale))
    ~trees:(10_000 * scale) ~coverage:false ~disjoint:true
    ~density:Treebank.Sparse ~algorithms:standard_algorithms ~cutoff

let fig6 ~scale ~cutoff =
  treebank_sweep ~name:"Fig. 6"
    ~title:
      (Printf.sprintf
         "dense cubes, %d input trees (paper: 10^5), coverage does not \
          hold, disjointness holds"
         (10_000 * scale))
    ~trees:(10_000 * scale) ~coverage:false ~disjoint:true
    ~density:Treebank.Dense ~algorithms:standard_algorithms ~cutoff

let fig7 ~scale ~cutoff =
  treebank_sweep ~name:"Fig. 7"
    ~title:
      (Printf.sprintf
         "sparse cubes, %d input trees (paper: 10^5), total coverage and \
          disjointness hold"
         (10_000 * scale))
    ~trees:(10_000 * scale) ~coverage:true ~disjoint:true
    ~density:Treebank.Sparse ~algorithms:both_hold_algorithms ~cutoff

let fig8 ~scale ~cutoff =
  treebank_sweep ~name:"Fig. 8"
    ~title:
      (Printf.sprintf
         "dense cubes, %d input trees (paper: 10^5), total coverage and \
          disjointness hold"
         (10_000 * scale))
    ~trees:(10_000 * scale) ~coverage:true ~disjoint:true
    ~density:Treebank.Dense ~algorithms:both_hold_algorithms ~cutoff

let fig9 ~scale ~cutoff =
  treebank_sweep ~name:"Fig. 9"
    ~title:
      (Printf.sprintf
         "dense cubes, %d input trees (paper: 10^5), neither total coverage \
          nor disjointness holds"
         (10_000 * scale))
    ~trees:(10_000 * scale) ~coverage:false ~disjoint:false
    ~density:Treebank.Dense ~algorithms:neither_algorithms ~cutoff

(* §4.5: the DBLP experiment — one cube (4 axes), all algorithm variants
   including the schema-customised BUCCUST/TDCUST, whose property oracle
   comes from the DBLP DTD. *)
let fig10 ~scale ~cutoff =
  let articles = 20_000 * scale in
  {
    Harness.name = "Fig. 10";
    sweep_title =
      Printf.sprintf
        "DBLP: cube article by /author, /month, /year, /journal — %d input \
         trees (paper: 2.2*10^5)"
        articles;
    xs = [ 4 ];
    algorithms =
      Engine.[ Counter; Buc; Bucopt; Buccust; Td; Tdopt; Tdoptall; Tdcust ];
    cutoff;
    make =
      (fun _ ->
        let doc = Dblp.generate { Dblp.seed = 7; num_articles = articles } in
        let store = X3_xdb.Store.of_document doc in
        (store, Dblp.spec (), Some (X3_xml.Schema.of_dtd (Dblp.dtd ()))));
    config_for =
      (fun _ ->
        {
          Engine.default_config with
          counter_budget = counter_budget ~trees:articles;
        });
  }

let all ~scale ~cutoff =
  [
    ("fig4", fig4 ~scale ~cutoff);
    ("fig5", fig5 ~scale ~cutoff);
    ("fig6", fig6 ~scale ~cutoff);
    ("fig7", fig7 ~scale ~cutoff);
    ("fig8", fig8 ~scale ~cutoff);
    ("fig9", fig9 ~scale ~cutoff);
    ("fig10", fig10 ~scale ~cutoff);
  ]

(* §4.4: the scaling experiment is Fig. 4 vs Fig. 5 — same setting at 10x
   the input.  Printed as the per-algorithm slowdown factor. *)
let print_scaling ppf (fig4 : Harness.figure) (fig5 : Harness.figure) =
  Format.fprintf ppf
    "@.%s@.Scaling (Fig. 4 vs Fig. 5): slowdown factor for 10x the input \
     trees@.%s@."
    (String.make 100 '-') (String.make 100 '-');
  Format.fprintf ppf "  %-9s" "";
  List.iter
    (fun (p : Harness.point) -> Format.fprintf ppf "%11d" p.Harness.x)
    fig4.Harness.points;
  Format.fprintf ppf "@.";
  let algorithms =
    List.sort_uniq compare
      (List.concat_map
         (fun (p : Harness.point) ->
           List.map (fun o -> o.Harness.algorithm) p.Harness.outcomes)
         fig4.Harness.points)
  in
  List.iter
    (fun algorithm ->
      Format.fprintf ppf "  %-9s" (Engine.algorithm_to_string algorithm);
      List.iter
        (fun (p4 : Harness.point) ->
          let find (fig : Harness.figure) x =
            List.find_opt (fun (p : Harness.point) -> p.Harness.x = x)
              fig.Harness.points
            |> Fun.flip Option.bind (fun (p : Harness.point) ->
                   List.find_opt
                     (fun o -> o.Harness.algorithm = algorithm)
                     p.Harness.outcomes)
          in
          match (find fig4 p4.Harness.x, find fig5 p4.Harness.x) with
          | Some small, Some large when small.Harness.seconds > 1e-6 ->
              Format.fprintf ppf "%10.1fx"
                (large.Harness.seconds /. small.Harness.seconds)
          | _ -> Format.fprintf ppf "%11s" "-")
        fig4.Harness.points;
      Format.fprintf ppf "@.")
    algorithms
