(* The PR 9 ingest smoke benchmark: delta cube maintenance vs full
   recompute on a small-delta treebank workload.

   A resident session holds the base document with every cuboid
   materialised; each incoming fact is staged ([Engine.stage_fragment])
   and folded into the views cell-by-cell ([Session.apply_delta]) — the
   path `x3 serve` takes for an ingest.  The alternative the daemon
   falls back to is a full cold rebuild: re-prepare the grafted document
   and recompute the cube.  Two claims are gated:

   - speed: the mean per-fact delta apply must be >= 5x faster than one
     full recompute of the grafted document;
   - identity (gated always): after all deltas the session's views must
     export byte-identically to a cold rebuild of the grafted document,
     across all four algorithm families.

   Writes BENCH_PR9.json, an x3-metrics/1 document whose meta block
   carries the timings and gate verdicts and whose registry snapshot is
   the instrumented cold Counter run.  Exits non-zero if any gate fails,
   so `dune runtest` gates on all of it. *)

module Engine = X3_core.Engine
module Export = X3_core.Export
module Aggregate = X3_core.Aggregate
module Report = X3_core.Report
module Buffer_pool = X3_storage.Buffer_pool
module Disk = X3_storage.Disk
module Treebank = X3_workload.Treebank
module Tree = X3_xml.Tree
module Json = X3_obs.Json
module Obs_metrics = X3_obs.Metrics
module Obs_export = X3_obs.Export

let trees = 600
let axes = 3
let delta_facts = 8
let speed_gate = 5.0
let families = Engine.[ Naive; Counter; Buc; Td ]

let pool () =
  Buffer_pool.create ~capacity_pages:65536 (Disk.in_memory ~page_size:8192 ())

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

let () =
  let out_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_PR9.json"
  in
  let config =
    { Treebank.default with num_trees = trees; axes; seed = 23 }
  in
  let doc = Treebank.generate config in
  let spec = Treebank.spec config in
  (* The delta: clones of existing facts, so every axis value is already
     dictionary-coded — the provably-sound in-place regime. Each clone is
     staged under a fresh synthetic fact id, and the patch adds it once to
     each of its groups. *)
  let frags =
    List.filteri
      (fun i _ -> i < delta_facts)
      (List.filter_map Tree.element_of_node doc.Tree.root.Tree.children)
  in
  assert (List.length frags = delta_facts);
  let grafted = graft doc frags in
  Printf.printf
    "  ingest smoke (treebank trees=%d axes=%d, %d-fact delta):\n" trees axes
    delta_facts;

  (* Delta path, best of 3: a fresh session + materialised views each
     round (setup untimed), then stage+apply every fragment timed. *)
  let stage_all () =
    List.mapi
      (fun i fragment ->
        match
          Engine.stage_fragment spec ~fragment
            ~fact_id:(Engine.synthetic_fact_id ~lsn:(i + 1))
        with
        | Engine.Staged staged -> staged
        | Engine.Not_a_fact | Engine.Unsupported _ ->
            prerr_endline "ingest-smoke: a cloned fact failed to stage";
            exit 1)
      frags
  in
  let fresh_session () =
    let session =
      Engine.Session.create
        (Engine.prepare ~pool:(pool ()) ~store:(X3_xdb.Store.of_document doc)
           spec)
    in
    let lattice = Engine.lattice (Engine.Session.prepared session) in
    let views =
      List.init (X3_lattice.Lattice.size lattice) (fun c ->
          Engine.Session.materialize session ~cuboid:c)
    in
    (session, views)
  in
  let delta_best = ref infinity in
  let final = ref None in
  for _ = 1 to 3 do
    let session, views = fresh_session () in
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let staged = stage_all () in
    List.iter
      (fun staged ->
        match Engine.Session.apply_delta session staged ~views with
        | Ok _ -> ()
        | Error fb ->
            Printf.eprintf "ingest-smoke: delta refused: %s\n"
              (Engine.fallback_reason_name fb);
            exit 1)
      staged;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !delta_best then delta_best := dt;
    final := Some (session, views)
  done;
  let session, views = Option.get !final in
  let delta_csv =
    Export.views_csv_string ~func:spec.Engine.func
      (Engine.lattice (Engine.Session.prepared session))
      (Array.of_list views)
  in
  let per_fact = !delta_best /. float_of_int delta_facts in

  (* Full recompute, best of 3: what a fallback costs — re-prepare the
     grafted document and recompute the cube (COUNTER). *)
  let full_best = ref infinity in
  for _ = 1 to 3 do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let prepared =
      Engine.prepare ~pool:(pool ())
        ~store:(X3_xdb.Store.of_document grafted)
        spec
    in
    ignore (Engine.run prepared Engine.Counter);
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !full_best then full_best := dt
  done;
  let speedup = !full_best /. per_fact in
  Printf.printf
    "    delta %d facts %8.5fs (%8.6fs/fact)   full recompute %8.5fs   \
     %6.1fx/fact (gate %.0fx)\n"
    delta_facts !delta_best per_fact !full_best speedup speed_gate;

  (* Identity, gated always: the delta-maintained views vs a cold
     rebuild of the grafted document, every family. *)
  let cold_prepared =
    Engine.prepare ~pool:(pool ())
      ~store:(X3_xdb.Store.of_document grafted)
      spec
  in
  let identical = ref true in
  let counter_run = ref None in
  List.iter
    (fun alg ->
      let cold, instr = Engine.run cold_prepared alg in
      if alg = Engine.Counter then counter_run := Some (cold, instr);
      let cold_csv = Export.csv_string ~func:spec.Engine.func cold in
      if not (String.equal cold_csv delta_csv) then begin
        identical := false;
        Printf.eprintf "ingest-smoke: delta cube diverged from %s\n"
          (Engine.algorithm_to_string alg)
      end)
    families;
  Printf.printf "    identity: %s (4 families)\n"
    (if !identical then "byte-identical" else "DIVERGED");

  let meta =
    [
      ( "bench",
        Json.Str
          "PR9: write-ahead ingest log with crash-consistent delta cube \
           maintenance" );
      ( "workload",
        Json.Str
          (Printf.sprintf "treebank trees=%d axes=%d delta=%d facts" trees
             axes delta_facts) );
      ("delta_seconds", Json.Float !delta_best);
      ("delta_seconds_per_fact", Json.Float per_fact);
      ("full_recompute_seconds", Json.Float !full_best);
      ( "gates",
        Json.Obj
          [
            ("delta_speedup_per_fact", Json.Float speedup);
            ("delta_speedup_gate", Json.Float speed_gate);
            ("byte_identical", Json.Bool !identical);
          ] );
    ]
  in
  (* the cold COUNTER cube: byte-identical to the views, gated above *)
  let result, instr = Option.get !counter_run in
  let metrics =
    Report.build ~instr ~result
      ~phases:
        [ ("delta", !delta_best); ("full_recompute", !full_best) ]
      ~algorithm:"COUNTER" ()
  in
  Json.to_file out_path
    (Obs_export.metrics_json ~meta (Obs_metrics.snapshot metrics));
  Printf.printf "  wrote %s\n" out_path;
  let fail = ref false in
  if not !identical then fail := true;
  if speedup < speed_gate then begin
    Printf.eprintf
      "ingest-smoke: per-fact delta apply is %.1fx a full recompute (< \
       %.0fx)\n"
      speedup speed_gate;
    fail := true
  end;
  if !fail then exit 1
