(* The PR smoke benchmark: a tiny treebank workload through every
   unconditionally-correct algorithm family (COUNTER, BUC/BUCCUST,
   TD/TDCUST) checked cell-for-cell against NAIVE, one timed run per
   family on a larger input, and the V0-vs-V1 page checksum
   overhead comparison, and the PR 4 resource-governor overhead
   comparison (governed vs ungoverned grouping with a non-binding
   budget, plus per-run `Gc.quick_stat` peak-heap records), and the PR 5
   tracing overhead comparison (the same grouping workload with tracing
   compiled in but disabled, then with tracing enabled).  Writes the
   results as JSON through the shared `X3_obs.Json` encoder
   (BENCH_PR2.json .. BENCH_PR5.json by default, or
   argv.(1)..argv.(4)); BENCH_PR5.json is an x3-metrics/1 document —
   the same schema `x3 cube --metrics` emits — carrying the per-phase
   latency breakdown of one instrumented grouping run.  Exits non-zero
   if any algorithm disagrees with NAIVE, if any timed family run's cube
   is not byte-identical to NAIVE's, if any run allocates a disk page, if
   checksummed pages slow the grouping workload by more than 15%, if the
   governed path slows grouping by more than 20% when the budget is not
   binding, or if disabled tracing costs more than 2% or enabled tracing
   more than 10% on the grouping workload, so `dune runtest` gates on all
   of it.  The three
   overhead gates read medians of interleaved per-round ratios (see
   [Harness.interleaved]). *)

module Engine = X3_core.Engine
module Instrument = X3_core.Instrument
module Export = X3_core.Export
module Aggregate = X3_core.Aggregate
module Buffer_pool = X3_storage.Buffer_pool
module Disk = X3_storage.Disk
module Treebank = X3_workload.Treebank
module Json = X3_obs.Json
module Trace = X3_obs.Trace
module Obs_metrics = X3_obs.Metrics
module Obs_export = X3_obs.Export
module Report = X3_core.Report

let trees = 200
let axes = 3

(* The timed family runs use a larger input so per-run times are
   dominated by cube work rather than fixed costs. *)
let sweep_trees = 400
let sweep_algorithms = Engine.[ Naive; Counter; Buc; Td ]

type family_run = {
  fr_algorithm : Engine.algorithm;
  fr_seconds : float;
  fr_identical : bool;  (** export byte-identical to NAIVE's *)
  fr_leaked_pages : int;  (** pages the run allocated on the table's disk *)
  fr_top_heap_words : int;
      (** [Gc.quick_stat] peak heap observed after the run *)
}

let family_runs ~store ~spec ~config =
  let pool =
    Buffer_pool.create ~capacity_pages:65536
      (Disk.in_memory ~page_size:8192 ())
  in
  let prepared = Engine.prepare ~pool ~store spec in
  let disk = Buffer_pool.disk pool in
  let reference =
    Export.csv_string ~func:Aggregate.Count
      (fst (Engine.run ~config prepared Engine.Naive))
  in
  List.map
    (fun algorithm ->
      let pages_before = Disk.page_count disk in
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      let result, _ = Engine.run ~config prepared algorithm in
      let fr_seconds = Unix.gettimeofday () -. t0 in
      {
        fr_algorithm = algorithm;
        fr_seconds;
        fr_identical =
          String.equal reference
            (Export.csv_string ~func:Aggregate.Count result);
        fr_leaked_pages = Disk.page_count disk - pages_before;
        fr_top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
      })
    sweep_algorithms

(* --- checksum overhead (PR 3) ------------------------------------------- *)

(* Raw page traffic: write then read back a page set several times larger
   than the pool, so every access is real disk I/O, under V0 (headerless)
   and V1 (CRC-32 + LSN header) formats. *)
let page_io_rate ~format =
  let n_pages = 2048 and page_size = 1024 in
  let disk = Disk.in_memory ~page_size ~format () in
  let pool = Buffer_pool.create ~capacity_pages:32 disk in
  let payload = Bytes.make page_size 'x' in
  let t0 = Unix.gettimeofday () in
  let ids = Array.init n_pages (fun _ -> Buffer_pool.allocate pool) in
  Array.iter
    (fun id ->
      Buffer_pool.with_page_mut pool id (fun b ->
          Bytes.blit payload 0 b 0 page_size))
    ids;
  Buffer_pool.flush pool;
  Buffer_pool.drop_cache pool;
  let acc = ref 0 in
  Array.iter
    (fun id ->
      Buffer_pool.with_page pool id (fun b ->
          acc := !acc + Char.code (Bytes.get b 0)))
    ids;
  let dt = Unix.gettimeofday () -. t0 in
  Sys.opaque_identity !acc |> ignore;
  Disk.close disk;
  float_of_int (2 * n_pages) /. dt

(* --- overhead gates --------------------------------------------------- *)

(* One batch of the grouping workload (materialise + COUNTER via [run],
   five times over a fresh pool of [format] pages): mean CPU seconds per
   run. *)
let grouping_batch ?format ~store ~spec run =
  Gc.full_major ();
  let t0 = Harness.cpu_seconds () in
  for _ = 1 to 5 do
    let pool =
      Buffer_pool.create ~capacity_pages:256
        (Disk.in_memory ~page_size:1024 ?format ())
    in
    let prepared = Engine.prepare ~pool ~store spec in
    run prepared
  done;
  (Harness.cpu_seconds () -. t0) /. 5.

let () =
  let out_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_PR2.json"
  in
  let out_path3 =
    if Array.length Sys.argv > 2 then Sys.argv.(2) else "BENCH_PR3.json"
  in
  let out_path4 =
    if Array.length Sys.argv > 3 then Sys.argv.(3) else "BENCH_PR4.json"
  in
  let out_path5 =
    if Array.length Sys.argv > 4 then Sys.argv.(4) else "BENCH_PR5.json"
  in
  let config = { Treebank.default with num_trees = trees; axes } in
  let store = X3_xdb.Store.of_document (Treebank.generate config) in
  let spec = Treebank.spec config in
  let schema = Some (X3_xml.Schema.of_dtd (Treebank.dtd config)) in
  let run_config =
    { Engine.default_config with counter_budget = 40 * trees }
  in
  let algorithms = Engine.[ Counter; Buc; Buccust; Td; Tdcust ] in
  let outcomes =
    Harness.run_point ~store ~spec ~config:run_config ~schema ~algorithms
      ~skip:[]
  in
  let all_correct = List.for_all (fun o -> o.Harness.correct) outcomes in
  List.iter
    (fun o ->
      Printf.printf "  %-9s %8.4fs  %7d cells  keys=%d dict=%d  %s\n"
        (Engine.algorithm_to_string o.Harness.algorithm)
        o.Harness.seconds o.Harness.cells
        o.Harness.instr.Instrument.keys_built
        o.Harness.instr.Instrument.dict_size
        (if o.Harness.correct then "ok" else "WRONG"))
    outcomes;
  (* --- one timed run per family ----------------------------------------- *)
  let sweep_config = { Treebank.default with num_trees = sweep_trees; axes } in
  let sweep_store =
    X3_xdb.Store.of_document (Treebank.generate sweep_config)
  in
  let runs =
    family_runs ~store:sweep_store ~spec:(Treebank.spec sweep_config)
      ~config:{ Engine.default_config with counter_budget = 40 * sweep_trees }
  in
  Printf.printf "  family runs (treebank trees=%d axes=%d):\n" sweep_trees axes;
  List.iter
    (fun r ->
      Printf.printf "    %-9s %8.4fs  %s%s\n"
        (Engine.algorithm_to_string r.fr_algorithm)
        r.fr_seconds
        (if r.fr_identical then "identical" else "DIVERGED")
        (if r.fr_leaked_pages = 0 then ""
         else Printf.sprintf "  LEAKED %d pages" r.fr_leaked_pages))
    runs;
  let all_identical = List.for_all (fun r -> r.fr_identical) runs in
  let no_leaks = List.for_all (fun r -> r.fr_leaked_pages = 0) runs in
  (* --- checksum overhead ------------------------------------------------ *)
  let v0_rate = page_io_rate ~format:Disk.V0 in
  let v1_rate = page_io_rate ~format:Disk.V1 in
  let io_overhead = (v0_rate /. v1_rate) -. 1.0 in
  (* The grouping workload end to end on each page format: the checksum
     cost must stay amortised against the cube work. *)
  let counter prepared =
    ignore (Engine.run ~config:run_config prepared Engine.Counter)
  in
  let group_seconds, group_ratios =
    Harness.interleaved ~rounds:12
      (Array.map
         (fun format () -> grouping_batch ~format ~store ~spec counter)
         [| Disk.V0; Disk.V1 |])
  in
  let v0_group = group_seconds.(0) and v1_group = group_seconds.(1) in
  let group_overhead = group_ratios.(1) -. 1.0 in
  Printf.printf
    "  checksum overhead (V1 CRC-32+LSN pages vs V0 raw):\n\
    \    raw page I/O        V0 %10.0f pages/s   V1 %10.0f pages/s  (%+.1f%%)\n\
    \    grouping workload   V0 %8.4fs   V1 %8.4fs  (%+.1f%%, gate 15%%)\n"
    v0_rate v1_rate (100. *. io_overhead) v0_group v1_group
    (100. *. group_overhead);
  (* --- governor overhead ----------------------------------------------- *)
  (* The plain engine against run_safe under a byte budget far above the
     workload's peak: with the budget not binding, every reservation is a
     couple of atomic operations. *)
  let governor_budget = 1 lsl 30 in
  let governed prepared =
    match
      Engine.run_safe ~config:run_config ~max_bytes:governor_budget prepared
        Engine.Counter
    with
    | Engine.Complete _ -> ()
    | _ ->
        prerr_endline
          "smoke: governed grouping run did not complete under a \
           non-binding budget";
        exit 1
  in
  let governor_seconds, governor_ratios =
    Harness.interleaved ~rounds:12
      (Array.map
         (fun run () -> grouping_batch ~store ~spec run)
         [| counter; governed |])
  in
  let ungoverned_group = governor_seconds.(0)
  and governed_group = governor_seconds.(1) in
  let governed_overhead = governor_ratios.(1) -. 1.0 in
  let top_heap_after_grouping = (Gc.quick_stat ()).Gc.top_heap_words in
  Printf.printf
    "  governor overhead (byte-budgeted run_safe vs plain run):\n\
    \    grouping workload   plain %8.4fs   governed %8.4fs  (%+.1f%%, gate \
     20%%)\n\
    \    peak heap observed  %d words\n"
    ungoverned_group governed_group
    (100. *. governed_overhead)
    top_heap_after_grouping;
  (* --- tracing overhead ------------------------------------------------ *)
  (* Tracing is always compiled in, so the disabled path — one atomic load
     per instrumentation point — runs the same code as the baseline; the
     third variant runs with the rings live. *)
  let traced () =
    Trace.enable ~ring_size:65536 ();
    Fun.protect
      ~finally:(fun () ->
        Trace.disable ();
        Trace.reset ())
      (fun () -> grouping_batch ~store ~spec counter)
  in
  let untraced () = grouping_batch ~store ~spec counter in
  let tracing_seconds, tracing_ratios =
    Harness.interleaved ~rounds:48 [| untraced; untraced; traced |]
  in
  let tracing_baseline = tracing_seconds.(0)
  and traced_off_group = tracing_seconds.(1)
  and traced_on_group = tracing_seconds.(2) in
  let traced_off_overhead = tracing_ratios.(1) -. 1.0 in
  let traced_on_overhead = tracing_ratios.(2) -. 1.0 in
  Printf.printf
    "  tracing overhead (grouping workload, baseline %8.4fs):\n\
    \    traced off  %8.4fs  (%+.1f%%, gate 2%%)\n\
    \    traced on   %8.4fs  (%+.1f%%, gate 10%%)\n"
    tracing_baseline traced_off_group
    (100. *. traced_off_overhead)
    traced_on_group
    (100. *. traced_on_overhead);
  (* One instrumented pass feeds the PR 5 metrics document: phase
     latencies plus the unified-registry view of the run. *)
  let pr5_pool =
    Buffer_pool.create ~capacity_pages:256
      (Disk.in_memory ~page_size:1024 ())
  in
  let mat_t0 = Unix.gettimeofday () in
  let pr5_prepared = Engine.prepare ~pool:pr5_pool ~store spec in
  let mat_seconds = Unix.gettimeofday () -. mat_t0 in
  let pr5_stats = Engine.fresh_run_stats () in
  let compute_t0 = Unix.gettimeofday () in
  let pr5_result, pr5_instr =
    match
      Engine.run_safe ~config:run_config ~max_bytes:governor_budget
        ~stats:pr5_stats pr5_prepared Engine.Counter
    with
    | Engine.Complete (r, i) -> (r, i)
    | _ ->
        prerr_endline
          "smoke: instrumented metrics run did not complete under a \
           non-binding budget";
        exit 1
  in
  let compute_seconds = Unix.gettimeofday () -. compute_t0 in
  (* --- JSON ------------------------------------------------------------ *)
  let pr2 =
    Json.Obj
      [
        ( "bench",
          Json.Str "PR2: every cube family against NAIVE over packed keys" );
        ( "smoke",
          Json.Obj
            [
              ( "workload",
                Json.Str
                  (Printf.sprintf "treebank trees=%d axes=%d" trees axes) );
              ("reference", Json.Str "NAIVE");
              ( "algorithms",
                Json.Arr
                  (List.map
                     (fun o ->
                       Json.Obj
                         [
                           ( "name",
                             Json.Str
                               (Engine.algorithm_to_string
                                  o.Harness.algorithm) );
                           ("seconds", Json.Float o.Harness.seconds);
                           ("cells", Json.Int o.Harness.cells);
                           ("correct", Json.Bool o.Harness.correct);
                           ( "keys_built",
                             Json.Int
                               o.Harness.instr.Instrument.keys_built );
                           ( "dict_size",
                             Json.Int o.Harness.instr.Instrument.dict_size );
                           ("minor_words", Json.Float o.Harness.minor_words);
                         ])
                     outcomes) );
            ] );
        ( "families",
          Json.Obj
            [
              ( "workload",
                Json.Str
                  (Printf.sprintf "treebank trees=%d axes=%d" sweep_trees
                     axes) );
              ("reference", Json.Str "NAIVE export");
              ( "runs",
                Json.Arr
                  (List.map
                     (fun r ->
                       Json.Obj
                         [
                           ( "name",
                             Json.Str
                               (Engine.algorithm_to_string r.fr_algorithm) );
                           ("seconds", Json.Float r.fr_seconds);
                           ("identical", Json.Bool r.fr_identical);
                           ("leaked_pages", Json.Int r.fr_leaked_pages);
                         ])
                     runs) );
            ] );
      ]
  in
  Json.to_file out_path pr2;
  Printf.printf "  wrote %s\n" out_path;
  let grouping_workload =
    Printf.sprintf "treebank trees=%d axes=%d prepare+COUNTER" trees axes
  in
  let pr3 =
    Json.Obj
      [
        ("bench", Json.Str "PR3: checksummed crash-safe storage");
        ( "checksum_overhead",
          Json.Obj
            [
              ( "page_io",
                Json.Obj
                  [
                    ("v0_pages_per_sec", Json.Float v0_rate);
                    ("v1_pages_per_sec", Json.Float v1_rate);
                    ("overhead", Json.Float io_overhead);
                  ] );
              ( "grouping",
                Json.Obj
                  [
                    ("workload", Json.Str grouping_workload);
                    ("v0_seconds", Json.Float v0_group);
                    ("v1_seconds", Json.Float v1_group);
                    ("overhead", Json.Float group_overhead);
                    ("gate", Json.Float 0.15);
                  ] );
            ] );
      ]
  in
  Json.to_file out_path3 pr3;
  Printf.printf "  wrote %s\n" out_path3;
  let pr4 =
    Json.Obj
      [
        ( "bench",
          Json.Str
            "PR4: resource governor, admission control and hostile input \
             hardening" );
        ( "governed_overhead",
          Json.Obj
            [
              ("workload", Json.Str grouping_workload);
              ("max_bytes", Json.Int governor_budget);
              ("ungoverned_seconds", Json.Float ungoverned_group);
              ("governed_seconds", Json.Float governed_group);
              ("overhead", Json.Float governed_overhead);
              ("gate", Json.Float 0.20);
            ] );
        ( "peak_heap",
          Json.Obj
            [
              ("unit", Json.Str "words");
              ( "note",
                Json.Str
                  "Gc.quick_stat top_heap_words observed after each run \
                   (the calling domain's heap high-water mark at that \
                   point)" );
              ("after_grouping", Json.Int top_heap_after_grouping);
              ( "family_runs",
                Json.Arr
                  (List.map
                     (fun r ->
                       Json.Obj
                         [
                           ( "name",
                             Json.Str
                               (Engine.algorithm_to_string r.fr_algorithm) );
                           ("top_heap_words", Json.Int r.fr_top_heap_words);
                         ])
                     runs) );
            ] );
      ]
  in
  Json.to_file out_path4 pr4;
  Printf.printf "  wrote %s\n" out_path4;
  let pr5_metrics =
    Report.build ~instr:pr5_instr ~result:pr5_result ~run:pr5_stats
      ~phases:
        [ ("materialise", mat_seconds); ("compute", compute_seconds) ]
      ~algorithm:"COUNTER" ()
  in
  let pr5_meta =
    [
      ("bench", Json.Str "PR5: query-scoped tracing and unified metrics");
      ("workload", Json.Str grouping_workload);
      ("algorithm", Json.Str "COUNTER");
      ( "tracing_overhead",
        Json.Obj
          [
            ("baseline_seconds", Json.Float tracing_baseline);
            ("traced_off_seconds", Json.Float traced_off_group);
            ("traced_off_overhead", Json.Float traced_off_overhead);
            ("traced_off_gate", Json.Float 0.02);
            ("traced_on_seconds", Json.Float traced_on_group);
            ("traced_on_overhead", Json.Float traced_on_overhead);
            ("traced_on_gate", Json.Float 0.10);
          ] );
    ]
  in
  Json.to_file out_path5
    (Obs_export.metrics_json ~meta:pr5_meta
       (Obs_metrics.snapshot pr5_metrics));
  Printf.printf "  wrote %s\n" out_path5;
  let fail = ref false in
  if not all_correct then begin
    prerr_endline "smoke: some algorithm disagrees with NAIVE";
    fail := true
  end;
  if not all_identical then begin
    prerr_endline "smoke: a family run diverged from NAIVE's cube";
    fail := true
  end;
  if not no_leaks then begin
    prerr_endline "smoke: a run leaked disk pages";
    fail := true
  end;
  if group_overhead > 0.15 then begin
    Printf.eprintf
      "smoke: V1 checksum overhead on the grouping workload is %.1f%% (> 15%%)\n"
      (100. *. group_overhead);
    fail := true
  end;
  if governed_overhead > 0.20 then begin
    Printf.eprintf
      "smoke: governor overhead on the grouping workload is %.1f%% (> 20%%) \
       with a non-binding budget\n"
      (100. *. governed_overhead);
    fail := true
  end;
  if traced_off_overhead > 0.02 then begin
    Printf.eprintf
      "smoke: disabled tracing costs %.1f%% (> 2%%) on the grouping \
       workload\n"
      (100. *. traced_off_overhead);
    fail := true
  end;
  if traced_on_overhead > 0.10 then begin
    Printf.eprintf
      "smoke: enabled tracing costs %.1f%% (> 10%%) on the grouping \
       workload\n"
      (100. *. traced_on_overhead);
    fail := true
  end;
  if !fail then exit 1
