module Metrics = X3_obs.Metrics
module Stats = X3_storage.Stats

(* Name scheme — the partition matters for determinism tests and bench
   gates, not just taste:
   - cube.*     algorithm-semantic counters, identical for a fixed
                (query, algorithm, budget) on every run;
   - profile.*  resource-shaped values (peaks, attempts) that vary with
                the budget and the retries a run needed;
   - io.*       substrate counters (pool + disk);
   - latency.*  wall-clock histograms — never deterministic. *)

let count m name v = Metrics.inc (Metrics.counter m name) ~by:v
let set m name v = Metrics.set (Metrics.gauge m name) v

let add_instr m (i : Instrument.t) =
  count m "cube.table_scans" i.Instrument.table_scans;
  count m "cube.rows_scanned" i.Instrument.rows_scanned;
  count m "cube.sort_ops" i.Instrument.sort_ops;
  count m "cube.rows_sorted" i.Instrument.rows_sorted;
  count m "cube.passes" i.Instrument.passes;
  count m "cube.rollups" i.Instrument.rollups;
  count m "cube.base_computations" i.Instrument.base_computations;
  count m "cube.dedup_tracked" i.Instrument.dedup_tracked;
  count m "cube.keys_built" i.Instrument.keys_built;
  count m "cube.grouping_strategy.radix" i.Instrument.radix_groupings;
  count m "cube.grouping_strategy.hash" i.Instrument.hash_groupings;
  set m "cube.dict_size" i.Instrument.dict_size;
  set m "profile.peak_counters_sum" i.Instrument.peak_counters;
  set m "profile.radix_scratch_bytes_sum" i.Instrument.radix_scratch_bytes

let add_io m (s : Stats.t) =
  count m "io.page_reads" s.Stats.page_reads;
  count m "io.page_writes" s.Stats.page_writes;
  count m "io.pages_allocated" s.Stats.pages_allocated;
  count m "io.pool_hits" s.Stats.pool_hits;
  count m "io.pool_misses" s.Stats.pool_misses;
  count m "io.evictions" s.Stats.evictions;
  count m "io.syncs" s.Stats.syncs

let add_result m result =
  set m "cube.cells" (Cube_result.total_cells result);
  set m "cube.cuboids"
    (X3_lattice.Lattice.size (Cube_result.lattice result))

let add_run m (rs : Engine.run_stats) =
  add_io m rs.Engine.io;
  set m "profile.peak_bytes" rs.Engine.peak_bytes;
  count m "profile.attempts" rs.Engine.attempts

let observe_phase m name seconds =
  Metrics.observe (Metrics.histogram m ("latency.phase." ^ name)) seconds

let observe_algorithm m algorithm seconds =
  Metrics.observe
    (Metrics.histogram m ("latency.algorithm." ^ algorithm))
    seconds

let build ?instr ?io ?result ?run ?(phases = []) ?algorithm () =
  let m = Metrics.create () in
  Option.iter (add_instr m) instr;
  Option.iter (add_io m) io;
  Option.iter (add_result m) result;
  Option.iter (add_run m) run;
  List.iter (fun (name, seconds) -> observe_phase m name seconds) phases;
  Option.iter
    (fun a ->
      match List.assoc_opt "compute" phases with
      | Some seconds -> observe_algorithm m a seconds
      | None -> ())
    algorithm;
  m
