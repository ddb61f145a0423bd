(* The PR 6 columnar/radix smoke benchmark: the dense treebank workload
   through every family (NAIVE, COUNTER, BUC, TD) twice — once with the
   radix grouping tiers enabled (the default config) and once with
   radix_bits = 0, which forces every cuboid onto the legacy
   hash/sort path over the same columnar scan.  Checks that the two
   paths export byte-identical cubes, and gates two claims of the
   columnar refactor on the TD family (where the radix kernel replaces
   the sort outright):

   - grouping throughput: the radix path must be >= 1.5x the hash path;
   - allocation: the radix path must allocate >= 30% fewer minor words.

   Writes BENCH_PR6.json, an x3-metrics/1 document (the same schema
   `x3 cube --metrics` emits) whose meta block carries the full A/B table
   and gate verdicts, and whose registry snapshot is the instrumented
   radix TD run — including the new cube.grouping_strategy.* counters and
   the profile.radix_scratch_bytes_sum gauge.  Exits non-zero if any identity
   check or gate fails, so `dune runtest` gates on all of it. *)

module Engine = X3_core.Engine
module Instrument = X3_core.Instrument
module Export = X3_core.Export
module Aggregate = X3_core.Aggregate
module Report = X3_core.Report
module Buffer_pool = X3_storage.Buffer_pool
module Disk = X3_storage.Disk
module Treebank = X3_workload.Treebank
module Json = X3_obs.Json
module Obs_metrics = X3_obs.Metrics
module Obs_export = X3_obs.Export

let trees = 300
let axes = 3
let families = Engine.[ Naive; Counter; Buc; Td ]

let radix_config = Engine.default_config
let hash_config = { Engine.default_config with Engine.radix_bits = 0 }

type ab = {
  ab_algorithm : Engine.algorithm;
  ab_radix_seconds : float;
  ab_hash_seconds : float;
  ab_radix_minor_words : float;
  ab_hash_minor_words : float;
  ab_identical : bool;  (** radix and hash runs byte-identical *)
}

let speedup ab = ab.ab_hash_seconds /. ab.ab_radix_seconds

let minor_reduction ab =
  1.0 -. (ab.ab_radix_minor_words /. ab.ab_hash_minor_words)

(* Best-of-N compute time and minor-heap allocation of one sequential
   run; the prepared input is shared, so only cube work is measured (each
   run columnarises through its own context). *)
let measure ~prepared ~config algorithm =
  let best = ref infinity and best_minor = ref infinity in
  for _ = 1 to 3 do
    Gc.full_major ();
    let minor0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    ignore (Engine.run ~config prepared algorithm);
    let dt = Unix.gettimeofday () -. t0 in
    let minor = Gc.minor_words () -. minor0 in
    if dt < !best then best := dt;
    if minor < !best_minor then best_minor := minor
  done;
  (!best, !best_minor)

let () =
  let out_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_PR6.json"
  in
  (* Dense values draw the grouping domain small — exactly the
     low-cardinality regime the radix tiers target. *)
  let config =
    { Treebank.default with num_trees = trees; axes; density = Treebank.Dense }
  in
  let store = X3_xdb.Store.of_document (Treebank.generate config) in
  let spec = Treebank.spec config in
  let pool =
    Buffer_pool.create ~capacity_pages:65536
      (Disk.in_memory ~page_size:8192 ())
  in
  let prepared = Engine.prepare ~pool ~store spec in
  Printf.printf
    "  columnar A/B (dense treebank trees=%d axes=%d, radix bits %d vs \
     hash):\n"
    trees axes radix_config.Engine.radix_bits;
  let results =
    List.map
      (fun algorithm ->
        let reference =
          Export.csv_string ~func:Aggregate.Count
            (fst (Engine.run ~config:hash_config prepared algorithm))
        in
        let identical =
          String.equal reference
            (Export.csv_string ~func:Aggregate.Count
               (fst (Engine.run ~config:radix_config prepared algorithm)))
        in
        let radix_seconds, radix_minor =
          measure ~prepared ~config:radix_config algorithm
        in
        let hash_seconds, hash_minor =
          measure ~prepared ~config:hash_config algorithm
        in
        let ab =
          {
            ab_algorithm = algorithm;
            ab_radix_seconds = radix_seconds;
            ab_hash_seconds = hash_seconds;
            ab_radix_minor_words = radix_minor;
            ab_hash_minor_words = hash_minor;
            ab_identical = identical;
          }
        in
        Printf.printf
          "    %-9s radix %8.4fs %10.0f words   hash %8.4fs %10.0f words  \
           %5.2fx  minor %+5.1f%%  %s\n"
          (Engine.algorithm_to_string algorithm)
          radix_seconds radix_minor hash_seconds hash_minor (speedup ab)
          (-100. *. minor_reduction ab)
          (if identical then "identical" else "DIVERGED");
        ab)
      families
  in
  let td =
    List.find (fun ab -> ab.ab_algorithm = Engine.Td) results
  in
  Printf.printf
    "    TD gates: grouping speedup %.2fx (gate 1.5x), minor words \
     -%.1f%% (gate -30%%)\n"
    (speedup td)
    (100. *. minor_reduction td);
  (* The instrumented radix TD run feeds the metrics document. *)
  let instr_t0 = Unix.gettimeofday () in
  let result, instr = Engine.run ~config:radix_config prepared Engine.Td in
  let compute_seconds = Unix.gettimeofday () -. instr_t0 in
  let ab_json ab =
    Json.Obj
      [
        ("name", Json.Str (Engine.algorithm_to_string ab.ab_algorithm));
        ("radix_seconds", Json.Float ab.ab_radix_seconds);
        ("hash_seconds", Json.Float ab.ab_hash_seconds);
        ("radix_minor_words", Json.Float ab.ab_radix_minor_words);
        ("hash_minor_words", Json.Float ab.ab_hash_minor_words);
        ("speedup", Json.Float (speedup ab));
        ("minor_word_reduction", Json.Float (minor_reduction ab));
        ("identical", Json.Bool ab.ab_identical);
      ]
  in
  let meta =
    [
      ( "bench",
        Json.Str
          "PR6: columnar witness layout with radix-partitioned grouping" );
      ( "workload",
        Json.Str
          (Printf.sprintf "dense treebank trees=%d axes=%d" trees axes) );
      ("algorithm", Json.Str "TD");
      ("radix_bits", Json.Int radix_config.Engine.radix_bits);
      ("ab", Json.Arr (List.map ab_json results));
      ( "gates",
        Json.Obj
          [
            ("td_grouping_speedup", Json.Float (speedup td));
            ("td_grouping_speedup_gate", Json.Float 1.5);
            ("td_minor_word_reduction", Json.Float (minor_reduction td));
            ("td_minor_word_reduction_gate", Json.Float 0.30);
          ] );
    ]
  in
  let metrics =
    Report.build ~instr ~result
      ~phases:[ ("compute", compute_seconds) ]
      ~algorithm:"TD" ()
  in
  Json.to_file out_path
    (Obs_export.metrics_json ~meta (Obs_metrics.snapshot metrics));
  Printf.printf "  wrote %s\n" out_path;
  let fail = ref false in
  List.iter
    (fun ab ->
      if not ab.ab_identical then begin
        Printf.eprintf
          "columnar-smoke: %s radix/parallel cube diverged from the hash \
           path\n"
          (Engine.algorithm_to_string ab.ab_algorithm);
        fail := true
      end)
    results;
  if instr.Instrument.radix_groupings = 0 then begin
    prerr_endline
      "columnar-smoke: the radix TD run never used a radix kernel";
    fail := true
  end;
  if speedup td < 1.5 then begin
    Printf.eprintf
      "columnar-smoke: TD radix grouping speedup is %.2fx (< 1.5x) on the \
       dense workload\n"
      (speedup td);
    fail := true
  end;
  if minor_reduction td < 0.30 then begin
    Printf.eprintf
      "columnar-smoke: TD radix path cuts minor words by %.1f%% (< 30%%)\n"
      (100. *. minor_reduction td);
    fail := true
  end;
  if !fail then exit 1
