(* The figure runner: generates a workload, materialises the witness table
   (excluded from timing, as §4 excludes pattern pre-evaluation), runs each
   algorithm cold, verifies it against NAIVE, and prints both per-point rows
   and a per-figure time matrix shaped like the paper's plots. *)

module Engine = X3_core.Engine
module Instrument = X3_core.Instrument
module Cube_result = X3_core.Cube_result
module Properties = X3_lattice.Properties
module Stats = X3_storage.Stats

type outcome = {
  algorithm : Engine.algorithm;
  seconds : float;
  minor_words : float;  (** minor-heap words allocated during the run *)
  cells : int;
  correct : bool;
  instr : Instrument.t;
  io : Stats.t;
}

type point = { x : int; outcomes : outcome list }

type figure = {
  fig_name : string;
  title : string;
  x_label : string;
  points : point list;
}

let fresh_pool () =
  X3_storage.Buffer_pool.create ~capacity_pages:65536
    (X3_storage.Disk.in_memory ~page_size:8192 ())

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Properties knowledge handed to each algorithm: the custom variants get
   schema-inferred facts; everything else needs none. *)
let props_for ~inferred lattice = function
  | Engine.Buccust | Engine.Tdcust -> (
      match inferred with
      | Some props -> props
      | None -> Properties.none lattice)
  | Engine.Naive | Engine.Counter | Engine.Buc | Engine.Bucopt | Engine.Td
  | Engine.Tdopt | Engine.Tdoptall ->
      Properties.none lattice

(* One algorithm at one point, on a fresh pool and freshly materialised
   table so in-memory disk pages from previous runs never accumulate. *)
let run_algorithm ~store ~spec ~config ~schema algorithm =
  let pool = fresh_pool () in
  let prepared, _prep_time = time (fun () -> Engine.prepare ~pool ~store spec) in
  let lattice = Engine.lattice prepared in
  let inferred =
    Option.map
      (fun schema ->
        Properties.infer ~schema ~fact_tag:(Engine.fact_tag spec) lattice)
      schema
  in
  let props = props_for ~inferred lattice algorithm in
  X3_storage.Buffer_pool.drop_cache pool;
  (* Cold, stabilised start: the paper measures each run with a cold cache;
     a full major collection keeps one algorithm's garbage from being
     charged to the next. *)
  Gc.full_major ();
  let io_before = Stats.copy (X3_storage.Buffer_pool.stats pool) in
  let disk_before =
    Stats.copy (X3_storage.Disk.stats (X3_storage.Buffer_pool.disk pool))
  in
  let minor_before = Gc.minor_words () in
  let (result, instr), seconds =
    time (fun () -> Engine.run ~props ~config prepared algorithm)
  in
  let minor_words = Gc.minor_words () -. minor_before in
  let io = Stats.create () in
  Stats.add io (X3_storage.Buffer_pool.stats pool);
  Stats.add io (X3_storage.Disk.stats (X3_storage.Buffer_pool.disk pool));
  io.Stats.pool_hits <- io.Stats.pool_hits - io_before.Stats.pool_hits;
  io.Stats.pool_misses <- io.Stats.pool_misses - io_before.Stats.pool_misses;
  io.Stats.evictions <- io.Stats.evictions - io_before.Stats.evictions;
  io.Stats.page_reads <- io.Stats.page_reads - disk_before.Stats.page_reads;
  io.Stats.page_writes <- io.Stats.page_writes - disk_before.Stats.page_writes;
  (result, seconds, minor_words, instr, io)

let algorithm_name = Engine.algorithm_to_string

let run_point ~store ~spec ~config ~schema ~algorithms ~skip =
  (* NAIVE provides the reference cube for correctness checking. *)
  let reference, _, _, _, _ =
    run_algorithm ~store ~spec ~config ~schema Engine.Naive
  in
  List.filter_map
    (fun algorithm ->
      if List.mem algorithm skip then None
      else begin
        let result, seconds, minor_words, instr, io =
          run_algorithm ~store ~spec ~config ~schema algorithm
        in
        Some
          {
            algorithm;
            seconds;
            minor_words;
            cells = Cube_result.total_cells result;
            correct = Cube_result.equal ~func:X3_core.Aggregate.Count reference result;
            instr;
            io;
          }
      end)
    algorithms

(* --- printing ---------------------------------------------------------- *)

let hr = String.make 100 '-'

let print_point_rows ppf ~x outcomes =
  List.iter
    (fun o ->
      Format.fprintf ppf
        "  %3d  %-9s %9.3fs  %9d cells  %s  passes=%d sorts=%d radix=%d \
         hash=%d scans=%d sorted=%d dedup=%d rollups=%d keys=%d dict=%d \
         reads=%d minorMw=%.1f@."
        x
        (algorithm_name o.algorithm)
        o.seconds o.cells
        (if o.correct then "   ok" else "WRONG")
        o.instr.Instrument.passes o.instr.Instrument.sort_ops
        o.instr.Instrument.radix_groupings o.instr.Instrument.hash_groupings
        o.instr.Instrument.table_scans o.instr.Instrument.rows_sorted
        o.instr.Instrument.dedup_tracked o.instr.Instrument.rollups
        o.instr.Instrument.keys_built o.instr.Instrument.dict_size
        o.io.Stats.page_reads
        (o.minor_words /. 1e6))
    outcomes

let print_matrix ppf figure =
  let algorithms =
    List.sort_uniq compare
      (List.concat_map
         (fun p -> List.map (fun o -> o.algorithm) p.outcomes)
         figure.points)
  in
  Format.fprintf ppf "@.  time (seconds) by %s:@." figure.x_label;
  Format.fprintf ppf "  %-9s" "";
  List.iter (fun p -> Format.fprintf ppf "%11d" p.x) figure.points;
  Format.fprintf ppf "@.";
  List.iter
    (fun algorithm ->
      Format.fprintf ppf "  %-9s" (algorithm_name algorithm);
      List.iter
        (fun p ->
          match List.find_opt (fun o -> o.algorithm = algorithm) p.outcomes with
          | Some o ->
              Format.fprintf ppf "%10.3f%s" o.seconds
                (if o.correct then " " else "!")
          | None -> Format.fprintf ppf "%11s" "DNF")
        figure.points;
      Format.fprintf ppf "@.")
    algorithms;
  Format.fprintf ppf "  (! marks a run whose cube differs from NAIVE — the \
                      paper's \"computing wrong results\"; DNF: skipped \
                      after exceeding the per-run cutoff at a smaller x.)@."

let print_figure ppf figure =
  Format.fprintf ppf "@.%s@.%s — %s@.%s@." hr figure.fig_name figure.title hr;
  List.iter (fun p -> print_point_rows ppf ~x:p.x p.outcomes) figure.points;
  print_matrix ppf figure

(* --- sweep driver ------------------------------------------------------- *)

type sweep = {
  name : string;
  sweep_title : string;
  xs : int list;  (** number of axes, or a single point for Fig. 10 *)
  algorithms : Engine.algorithm list;
  cutoff : float;  (** per-run DNF threshold, seconds *)
  make : int -> X3_xdb.Store.t * Engine.spec * X3_xml.Schema.t option;
  config_for : int -> Engine.config;
}

let run_sweep ?(progress = ignore) sweep =
  let dnf = ref [] in
  let points =
    List.map
      (fun x ->
        progress (Printf.sprintf "%s x=%d" sweep.name x);
        let store, spec, schema = sweep.make x in
        let outcomes =
          run_point ~store ~spec ~config:(sweep.config_for x) ~schema
            ~algorithms:sweep.algorithms ~skip:!dnf
        in
        List.iter
          (fun o ->
            if o.seconds > sweep.cutoff && not (List.mem o.algorithm !dnf)
            then dnf := o.algorithm :: !dnf)
          outcomes;
        { x; outcomes })
      sweep.xs
  in
  {
    fig_name = sweep.name;
    title = sweep.sweep_title;
    x_label = "# of axes";
    points;
  }

(* --- overhead gates ------------------------------------------------------ *)

(* Process CPU seconds (getrusage, microsecond resolution): unlike wall
   time it leaves out the intervals the process sat descheduled, which on
   a shared machine are noise, not overhead. *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The overhead gates (smoke's checksum, governor and tracing gates,
   serve_obs_smoke's observability gate) each compare variants of one
   workload whose true difference is a few percent, on a shared machine
   whose speed drifts by more than that within a run.  Each round
   runs one batch of every variant back to back, cycling through every
   rotation of the variants and its reverse, so each variant precedes and
   follows each other equally often; a round yields each variant's ratio
   to the baseline batch (variant 0) beside it.  Returns per variant the
   median batch seconds and the median ratio: a load change cancels out
   of every ratio instead of biasing whichever variant it fell on.  The
   2% gate between two identical paths needs the most rounds. *)
let interleaved ~rounds variants =
  let n = Array.length variants in
  let rotation k = List.init n (fun i -> (i + k) mod n) in
  let orders =
    Array.of_list
      (List.concat_map
         (fun k -> [ rotation k; List.rev (rotation k) ])
         (List.init n Fun.id))
  in
  let samples =
    List.init rounds (fun round ->
        let t = Array.make n 0. in
        List.iter
          (fun v -> t.(v) <- variants.(v) ())
          orders.(round mod Array.length orders);
        t)
  in
  let col f = median (List.map f samples) in
  ( Array.init n (fun v -> col (fun t -> t.(v))),
    Array.init n (fun v -> col (fun t -> t.(v) /. t.(0))) )
