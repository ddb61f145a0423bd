module Lattice = X3_lattice.Lattice
module Cuboid = X3_lattice.Cuboid
module Properties = X3_lattice.Properties
module Witness = X3_pattern.Witness
module Columnar = Witness.Columnar
module Buffer_pool = X3_storage.Buffer_pool
module Disk = X3_storage.Disk
module External_sort = X3_storage.External_sort
module Heap_file = X3_storage.Heap_file
module Stats = X3_storage.Stats
module Trace = X3_obs.Trace

type variant = [ `Plain | `Opt | `OptAll | `Custom of X3_lattice.Properties.t ]

type mode = [ `Dedup | `Raw | `Representative ]

let mode_name = function
  | `Dedup -> "dedup"
  | `Raw -> "raw"
  | `Representative -> "representative"

let custom_mode props cid : mode =
  if Properties.cuboid_disjoint props cid then `Representative else `Dedup

(* Find-or-create a group's cell in one cuboid's table. *)
let cell_in into key =
  match Group_key.Tbl.find_opt into key with
  | Some c -> c
  | None ->
      let c = Aggregate.create () in
      Group_key.Tbl.replace into key c;
      c

(* Compute one cuboid from the base columns (§3.5) into its cell table
   [into]. Modes:
   - [`Dedup] (TD): duplicate facts within a group contribute once —
     "the identifier of the data must be retained (to eliminate
     duplicates)". Correct always.
   - [`Raw] (TDOPT/TDOPTALL's base step): qualifying rows counted blindly;
     assumes strict disjointness.
   - [`Representative] (TDCUST where the oracle proves the cuboid
     disjoint): only representative rows, no ids — correct and cheaper.

   The grouping strategy comes from [Radix.plan]: a direct slot array or a
   radix-partitioned pass aggregates in place with no sort at all (a
   fact's rows are contiguous, so a per-slot mark stamp removes duplicates
   exactly as the sorted sweep's consecutive-fact skip does, and in the
   same row order); the hash fallback keeps the paper's sort — emit
   (sortable key, fact, measure) records, external-sort them, sweep. The
   caller chooses where sorts spill ([pool]), which counters it bumps and
   whether to poll for stops, so the same code serves the calling domain's
   lane, the helper lanes and a serve session's base views. The columns
   and block measures come from the context's caches, which a fan-out
   fills on the calling domain before any helper starts. *)
let compute_from_base (ctx : Context.t) ~instr ~pool ~polls ~budget_records
    ~(mode : mode) cid into =
  let checkpoint =
    if polls then fun () -> Context.checkpoint ctx else fun () -> ()
  in
  let cols = Context.cols ctx in
  let bm = Context.block_measures ctx cols in
  let p = Radix.plan ~radix_bits:ctx.radix_bits ctx.shapes.(cid) in
  let sp =
    Trace.start "td.base"
      ~attrs:
        [
          ("cuboid", Trace.Int cid);
          ("mode", Trace.Str (mode_name mode));
          ("strategy", Trace.Str (Radix.strategy_name p.Radix.p_strategy));
        ]
  in
  let fed_total = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Trace.finish sp ~attrs:[ ("rows", Trace.Int !fed_total) ])
  @@ fun () ->
  instr.Instrument.base_computations <- instr.Instrument.base_computations + 1;
  (* Every base computation walks all the rows once, whatever the
     strategy — the columnar stand-in for the row path's table scan. *)
  let rows = Columnar.rows cols in
  instr.Instrument.table_scans <- instr.Instrument.table_scans + 1;
  instr.Instrument.rows_scanned <- instr.Instrument.rows_scanned + rows;
  let dedup = mode = `Dedup in
  let representative = mode = `Representative in
  let measure_row r = bm.(Columnar.block_of_row cols r) in
  let cur = Radix.cursor p.Radix.p_shape cols in
  match p.Radix.p_strategy with
  | Radix.Direct ->
      instr.Instrument.radix_groupings <-
        instr.Instrument.radix_groupings + 1;
      let acc = Radix.acc_create p in
      for r = 0 to rows - 1 do
        checkpoint ();
        let k = Radix.key cur r in
        if k >= 0 && ((not representative) || Radix.first_on_removed cur r)
        then begin
          instr.Instrument.keys_built <- instr.Instrument.keys_built + 1;
          incr fed_total;
          if dedup then begin
            instr.Instrument.dedup_tracked <-
              instr.Instrument.dedup_tracked + 1;
            ignore
              (Radix.acc_add acc ~slot:k ~mark:(Columnar.fact cols r)
                 (measure_row r))
          end
          else ignore (Radix.acc_add_raw acc ~slot:k (measure_row r))
        end
      done;
      Radix.acc_flush acc ~f:(fun k cell ->
          Group_key.Tbl.replace into (Group_key.Packed k) cell)
  | Radix.Partitioned ->
      instr.Instrument.radix_groupings <-
        instr.Instrument.radix_groupings + 1;
      Radix.partitioned p ~rows
        ~key:(fun r ->
          checkpoint ();
          let k = Radix.key cur r in
          if k >= 0 && ((not representative) || Radix.first_on_removed cur r)
          then begin
            instr.Instrument.keys_built <- instr.Instrument.keys_built + 1;
            incr fed_total;
            if dedup then
              instr.Instrument.dedup_tracked <-
                instr.Instrument.dedup_tracked + 1;
            k
          end
          else -1)
        ~fact:(fun r -> Columnar.fact cols r)
        ~measure:measure_row ~dedup
        ~emit:(fun k cell ->
          Group_key.Tbl.replace into (Group_key.Packed k) cell)
  | Radix.Hash ->
      instr.Instrument.hash_groupings <- instr.Instrument.hash_groupings + 1;
      instr.Instrument.sort_ops <- instr.Instrument.sort_ops + 1;
      let scratch = Group_key.make_scratch p.Radix.p_shape in
      let fed = ref 0 in
      let sorted =
        External_sort.sort_records ~pool ~budget_records
          ~compare:Sort_record.compare (fun emit ->
            for r = 0 to rows - 1 do
              checkpoint ();
              if
                Radix.load cur scratch r
                && ((not representative) || Radix.first_on_removed cur r)
              then begin
                incr fed;
                (* Sort on the order-preserving byte form of the coded key:
                   String.compare groups equal keys just as well, and the
                   record stays a flat string for the external sorter. *)
                instr.Instrument.keys_built <-
                  instr.Instrument.keys_built + 1;
                emit
                  (Sort_record.encode ~key:(Group_key.to_sortable
                                              (Group_key.freeze scratch))
                     ~fact:(if dedup then Columnar.fact cols r else 0)
                     ~measure:(measure_row r))
              end
            done)
      in
      instr.Instrument.rows_sorted <- instr.Instrument.rows_sorted + !fed;
      fed_total := !fed;
      (* One sweep: group boundaries on key change (the run is key-sorted,
         so the group's cell is carried across records rather than looked
         up per record); duplicate facts are consecutive within a group. *)
      let current_key = ref None and current_cell = ref None in
      let prev_fact = ref (-1) in
      Heap_file.iter
        (fun record ->
          let key, fact, measure = Sort_record.decode record in
          let same_group =
            match !current_key with
            | Some k -> String.equal k key
            | None -> false
          in
          if not same_group then begin
            current_key := Some key;
            current_cell :=
              Some (cell_in into (Group_key.of_sortable key))
          end;
          let duplicate = dedup && same_group && fact = !prev_fact in
          if not duplicate then begin
            match !current_cell with
            | Some cell -> Aggregate.add cell measure
            | None -> assert false
          end;
          if dedup then
            instr.Instrument.dedup_tracked <-
              instr.Instrument.dedup_tracked + 1;
          prev_fact := fact)
        sorted;
      Heap_file.free sorted

(* Roll a cuboid up from a finer, already computed cuboid's cells: each
   finer cell merges into the cell of its projected key in [into]. Only
   sound where [Properties.rollup_refusal] admits (finer -> coarser) — the
   caller is responsible for that judgement. *)
let rollup (ctx : Context.t) ~finer cells ~coarser into =
  Trace.with_span "td.rollup"
    ~attrs:[ ("cuboid", Trace.Int coarser); ("from", Trace.Int finer) ]
    (fun () ->
      let instr = ctx.instr in
      instr.Instrument.rollups <- instr.Instrument.rollups + 1;
      let edge =
        Group_key.edge ~finer:ctx.shapes.(finer) ~coarser:ctx.shapes.(coarser)
      in
      Group_key.Tbl.iter
        (fun key cell ->
          Aggregate.merge
            ~into:(cell_in into (Group_key.project edge key))
            cell)
        cells)

type worker = { instr : Instrument.t; pool : Buffer_pool.t }

(* The byte-governed in-memory sort budget: the configured record budget,
   shrunk to what the account can still afford across [lanes] concurrent
   sorts. Below the sort floor an external sort cannot make progress —
   that is the spill path's floor, so the run stops over budget. Returns
   the record budget together with the bytes to reserve for it (0 when
   ungoverned). *)
let sort_allowance (ctx : Context.t) ~lanes =
  let rem = Context.budget_remaining ctx in
  if rem = max_int then (ctx.sort_budget, 0)
  else begin
    let affordable = rem / Governor.sort_record_cost / lanes in
    let records = min ctx.sort_budget affordable in
    if records < Governor.sort_floor_records then
      Context.stop ctx Context.Over_budget;
    (records, records * Governor.sort_record_cost * lanes)
  end

(* Transient radix scratch a base computation pins while it runs — what
   the governor books around the computation. 0 on the hash path, whose
   footprint is the sort budget instead. *)
let base_scratch_bytes (ctx : Context.t) ~rows cid =
  let p = Radix.plan ~radix_bits:ctx.radix_bits ctx.shapes.(cid) in
  match p.Radix.p_strategy with
  | Radix.Direct -> Radix.acc_bytes p
  | Radix.Partitioned -> Radix.partitioned_bytes p ~rows
  | Radix.Hash -> 0

let compute ~variant (ctx : Context.t) =
  let lattice = ctx.lattice in
  let result = Cube_result.create ~table:ctx.table lattice in
  let order = Lattice.by_degree lattice in
  (* Every cuboid's provenance is a pure function of variant, lattice and
     properties — decided up front so the base computations can fan out
     and the roll-ups replay afterwards. *)
  let plan cid =
    match variant with
    | `Plain -> `Base `Dedup
    | `Opt -> `Base `Raw
    | `OptAll -> (
        (* Finest first from base; everything else from a one-step-finer
           cuboid, assuming both properties globally. *)
        match Lattice.children lattice cid with
        | [] -> `Base `Raw
        | finer :: _ -> `Rollup finer)
    | `Custom props -> (
        let viable_child =
          List.find_opt
            (fun finer ->
              Properties.rollup_refusal props lattice ~finer ~coarser:cid
              = None)
            (Lattice.children lattice cid)
        in
        match viable_child with
        | Some finer -> `Rollup finer
        | None -> `Base (custom_mode props cid))
  in
  let plans = Array.map plan order in
  (* Result cells are booked as they accumulate, at cuboid boundaries: a
     refused booking stops the run with the completed cuboids standing. *)
  let booked_cells = ref 0 in
  let book_result () =
    let cells = Cube_result.total_cells result in
    if cells > !booked_cells then begin
      Context.reserve ctx ((cells - !booked_cells) * Governor.counter_cost);
      booked_cells := cells
    end
  in
  (try
     (* Base computations write to disjoint cuboids (one task = one
        cuboid), so workers aggregate into the shared result directly.
        Worker 0 runs on the calling domain: it counts into the context's
        instrument, spills its external sorts into the table's buffer pool
        and polls for stops between its cuboids and inside their scans, so
        a stop keeps every fully computed cuboid. Every other worker spills
        into a private in-memory scratch pool — the shared buffer pool is
        unsynchronised — and never polls. The columns and block measures
        are immutable and shared; both are built (and booked) here, so the
        helpers only read the context's caches. Roll-ups run afterwards on
        the calling domain in coarsening order, since a roll-up may read a
        cuboid that another roll-up produced. *)
     Context.check ctx;
     let cols = Context.cols ctx in
     ignore (Context.block_measures ctx cols : float array);
     let rows = Columnar.rows cols in
     let base =
       Array.of_list
         (List.filteri
            (fun i _ -> match plans.(i) with `Base _ -> true | _ -> false)
            (Array.to_list order))
     in
     let base_modes =
       Array.of_list
         (List.filter_map
            (function `Base mode -> Some mode | `Rollup _ -> None)
            (Array.to_list plans))
     in
     (* One byte-derived sort budget for every worker lane, computed and
        reserved here on the calling domain before fan-out: helper workers
        never touch the account, so spill thresholds are deterministic for
        a fixed budget regardless of worker interleaving. Radix scratch is
        likewise booked up front: each lane runs one base computation at a
        time, so [workers × max-per-cuboid] bounds the concurrent
        footprint. *)
     let any_hash =
       Array.exists (fun cid -> base_scratch_bytes ctx ~rows cid = 0) base
     in
     let budget_records, sort_bytes =
       if any_hash then sort_allowance ctx ~lanes:ctx.workers
       else (ctx.sort_budget, 0)
     in
     let scratch_bytes =
       ctx.workers
       * Array.fold_left
           (fun m cid -> max m (base_scratch_bytes ctx ~rows cid))
           0 base
     in
     Context.reserve ctx (sort_bytes + scratch_bytes);
     Instrument.bump_radix_scratch ctx.instr scratch_bytes;
     let states =
       Fun.protect
         ~finally:(fun () -> Context.release ctx (sort_bytes + scratch_bytes))
       @@ fun () ->
       Parallel.run ~workers:ctx.workers ~tasks:(Array.length base)
         ~init:(fun w ->
           if w = 0 then { instr = ctx.instr; pool = Witness.pool ctx.table }
           else
             {
               instr = Instrument.create ();
               pool = Buffer_pool.create (Disk.in_memory ());
             })
         ~body:(fun w t ->
           let polls = w.instr == ctx.instr in
           if polls then Context.check ctx;
           compute_from_base ctx ~instr:w.instr ~pool:w.pool ~polls
             ~budget_records ~mode:base_modes.(t) base.(t)
             (Cube_result.cuboid_table result base.(t)))
     in
     Array.iter
       (fun w ->
         if w.instr != ctx.instr then begin
           Instrument.merge ~into:ctx.instr w.instr;
           (* Fold the scratch pools' spill traffic into the shared pool's
              counters so the run reports its I/O whatever the worker
              count. *)
           Stats.add
             (Buffer_pool.stats (Witness.pool ctx.table))
             (Buffer_pool.stats w.pool)
         end)
       states;
     book_result ();
     Array.iteri
       (fun i cid ->
         match plans.(i) with
         | `Base _ -> ()
         | `Rollup finer ->
             Context.check ctx;
             rollup ctx ~finer
               (Cube_result.cuboid_table result finer)
               ~coarser:cid
               (Cube_result.cuboid_table result cid);
             book_result ())
       order
   with Context.Stop _ -> ());
  result
