module Lattice = X3_lattice.Lattice
module Cuboid = X3_lattice.Cuboid
module Properties = X3_lattice.Properties
module Witness = X3_pattern.Witness
module Columnar = Witness.Columnar
module Quicksort = X3_storage.Quicksort
module Trace = X3_obs.Trace

type variant = [ `Plain | `Opt | `OptAll | `Custom of X3_lattice.Properties.t ]

type mode = [ `Dedup | `Raw | `Representative ]

let mode_name = function
  | `Dedup -> "dedup"
  | `Raw -> "raw"
  | `Representative -> "representative"

let custom_mode props cid : mode =
  if Properties.cuboid_disjoint props cid then `Representative else `Dedup

(* The hash tier's sort order: group key, then row. *)
let compare_record ((k, r) : Group_key.t * int) (k', r') =
  let c = Group_key.compare k k' in
  if c <> 0 then c else Int.compare r r'

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
   same row order); the hash fallback keeps the paper's sort — collect
   (key, row) records in one array, quicksort them by key then row (§4's
   in-memory sort), sweep. It counts into the context's instrument and
   polls for stops every row, both for [compute] and for a serve
   session's base views. *)
let compute_from_base (ctx : Context.t) ~(mode : mode) cid into =
  let instr = ctx.instr in
  let checkpoint () = Context.checkpoint ctx in
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
      (* A cuboid never has more records than the table has rows, so one
         row-sized array holds them all; [compute] books it before the
         base steps. A record is the row's key and the row itself. *)
      let records = Array.make rows (Group_key.Packed 0, 0) in
      let fed = ref 0 in
      for r = 0 to rows - 1 do
        checkpoint ();
        if
          Radix.load cur scratch r
          && ((not representative) || Radix.first_on_removed cur r)
        then begin
          instr.Instrument.keys_built <- instr.Instrument.keys_built + 1;
          records.(!fed) <- (Group_key.freeze scratch, r);
          incr fed
        end
      done;
      Quicksort.sort_sub ~compare:compare_record records ~pos:0 ~len:!fed;
      instr.Instrument.rows_sorted <- instr.Instrument.rows_sorted + !fed;
      fed_total := !fed;
      (* One sweep: a cell opens where the key changes (the group's cell is
         carried across its records rather than looked up per record).
         Within a group the rows ascend, so a fact's rows are consecutive
         and its measures add in table order. *)
      let cell = ref (Aggregate.create ()) and prev_fact = ref (-1) in
      for i = 0 to !fed - 1 do
        let key, r = records.(i) in
        if i = 0 || not (Group_key.equal key (fst records.(i - 1))) then begin
          cell := cell_in into key;
          prev_fact := -1
        end;
        if dedup then begin
          instr.Instrument.dedup_tracked <- instr.Instrument.dedup_tracked + 1;
          let fact = Columnar.fact cols r in
          if fact <> !prev_fact then Aggregate.add !cell (measure_row r);
          prev_fact := fact
        end
        else Aggregate.add !cell (measure_row r)
      done

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

(* Transient radix scratch a base computation pins while it runs — what
   the governor books around the computation. 0 on the hash path, whose
   record array is booked on its own. *)
let base_scratch_bytes ~rows (p : Radix.plan) =
  match p.Radix.p_strategy with
  | Radix.Direct -> Radix.acc_bytes p
  | Radix.Partitioned -> Radix.partitioned_bytes p ~rows
  | Radix.Hash -> 0

let compute ~variant (ctx : Context.t) =
  let lattice = ctx.lattice in
  let result = Cube_result.create ~table:ctx.table lattice in
  let order = Lattice.by_degree lattice in
  (* Every cuboid's provenance is a pure function of variant, lattice and
     properties, decided up front. *)
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
     (* The base steps run first, then the roll-ups, each in coarsening
        order: a roll-up reads a finer cuboid, which is then complete. A
        stop between or inside cuboids keeps every fully computed one.
        The columns and block measures are built (and booked) before the
        base steps' transient memory: one base computation runs at a
        time, so the largest radix scratch of any base cuboid bounds the
        scratch, and [rows] records of the costliest hash-tier key shape
        bound the sort array. *)
     Context.check ctx;
     let cols = Context.cols ctx in
     ignore (Context.block_measures ctx cols : float array);
     let rows = Columnar.rows cols in
     let base_plans =
       Array.to_list order
       |> List.filteri (fun i _ ->
              match plans.(i) with `Base _ -> true | `Rollup _ -> false)
       |> List.map (fun cid ->
              Radix.plan ~radix_bits:ctx.radix_bits ctx.shapes.(cid))
     in
     let sort_bytes =
       rows
       * List.fold_left
           (fun m p ->
             match p.Radix.p_strategy with
             | Radix.Hash -> max m (Governor.sort_record_cost p.Radix.p_shape)
             | Radix.Direct | Radix.Partitioned -> m)
           0 base_plans
     in
     let scratch_bytes =
       List.fold_left (fun m p -> max m (base_scratch_bytes ~rows p)) 0 base_plans
     in
     Context.reserve ctx (sort_bytes + scratch_bytes);
     Instrument.bump_radix_scratch ctx.instr scratch_bytes;
     Fun.protect
       ~finally:(fun () -> Context.release ctx (sort_bytes + scratch_bytes))
       (fun () ->
         Array.iteri
           (fun i cid ->
             match plans.(i) with
             | `Base mode ->
                 Context.check ctx;
                 compute_from_base ctx ~mode cid
                   (Cube_result.cuboid_table result cid)
             | `Rollup _ -> ())
           order);
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
