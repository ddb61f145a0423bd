(* Ablation for the COUNTER budget, the memory knob DESIGN.md calls out
   (the paper's "fits in memory" condition, §3.3 and §4.6): sweeping it
   shows the time/passes cliff that produces the COUNTER meltdown
   curves. *)

module Engine = X3_core.Engine
module Treebank = X3_workload.Treebank

let run ppf ~scale =
  let trees = 5_000 * scale in
  let config =
    {
      Treebank.default with
      num_trees = trees;
      axes = 5;
      coverage = false;
      disjoint = true;
    }
  in
  let store = X3_xdb.Store.of_document (Treebank.generate config) in
  let spec = Treebank.spec config in
  let hr = String.make 100 '-' in
  Format.fprintf ppf
    "@.%s@.Ablation: COUNTER memory budget (sparse 5-axis cube, %d trees)@.%s@."
    hr trees hr;
  Format.fprintf ppf "  %-16s %10s %8s %8s@." "budget (counters)" "time(s)"
    "passes" "scans";
  List.iter
    (fun budget ->
      let pool =
        X3_storage.Buffer_pool.create ~capacity_pages:65536
          (X3_storage.Disk.in_memory ~page_size:8192 ())
      in
      let prepared = Engine.prepare ~pool ~store spec in
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      let _, instr =
        Engine.run
          ~config:{ Engine.default_config with counter_budget = budget }
          prepared Engine.Counter
      in
      Format.fprintf ppf "  %-16d %10.3f %8d %8d@." budget
        (Unix.gettimeofday () -. t0)
        instr.X3_core.Instrument.passes instr.X3_core.Instrument.table_scans)
    [ trees / 2; trees * 2; trees * 8; trees * 32; trees * 128 ]
