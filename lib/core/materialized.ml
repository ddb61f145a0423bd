module Lattice = X3_lattice.Lattice
module Properties = X3_lattice.Properties
module Cuboid = X3_lattice.Cuboid
module Witness = X3_pattern.Witness
module Columnar = Witness.Columnar
module Trace = X3_obs.Trace

module Int_set = Set.Make (Int)

(* One group: its fact set and the aggregate cell computed from it. The
   cell is always exactly [cell_of_facts facts] — recomputed whenever the
   set changes — so a read copies it instead of re-aggregating. Cells are
   shared with the results [to_result] builds (and with rolled-up views),
   so a cell once installed is replaced, never mutated. *)
type group = { mutable facts : Int_set.t; mutable cell : Aggregate.cell }

(* Groups are kept under coded keys relative to the source table's
   dictionaries; the value-keyed accessors decode at the boundary, like
   Cube_result. *)
type t = {
  cuboid_id : int;
  lattice : Lattice.t;
  layout : Group_key.layout;
  dicts : Witness.Dict.t array;
  measure : int -> float;
  groups : group Group_key.Tbl.t;
  mutable fact_entries : int;
      (* sum of the groups' fact-set sizes, kept by every operation that
         changes a set, so [approx_bytes] never walks them *)
}

let cuboid_id t = t.cuboid_id
let group_count t = Group_key.Tbl.length t.groups

let states t = Lattice.cuboid t.lattice t.cuboid_id

(* Ascending fact order, the one every cell of a view is computed in, so
   float totals are reproducible bit for bit. *)
let cell_of_facts measure facts =
  let cell = Aggregate.create () in
  Int_set.iter (fun fact -> Aggregate.add cell (measure fact)) facts;
  cell

(* Placeholder for a cell not yet computed from its group's final fact
   set; never handed out. *)
let stale = Aggregate.create ()

let new_group () = { facts = Int_set.empty; cell = stale }

let fill_stale measure groups =
  Group_key.Tbl.iter
    (fun _ g -> if g.cell == stale then g.cell <- cell_of_facts measure g.facts)
    groups

let fact_items t ~key =
  match Group_key.of_parts t.layout ~dicts:t.dicts (states t) key with
  | None -> []
  | Some coded -> (
      match Group_key.Tbl.find_opt t.groups coded with
      | Some g -> Int_set.elements g.facts
      | None -> [])

(* The per-row step [materialize] and [apply_rows] share: when row [r] of
   the columns represents its fact in [c], key it and pass its group
   (created empty on first sight) and fact to [add]. *)
let add_row (ctx : Context.t) groups scratch c cols r add =
  if Cuboid.represents c cols ~row:r then begin
    Group_key.load_cols scratch c cols ~row:r;
    ctx.instr.Instrument.keys_built <- ctx.instr.Instrument.keys_built + 1;
    add
      (Group_key.Tbl.find_or_add groups scratch ~default:new_group)
      (Columnar.fact cols r)
  end

(* One pass over the context's columns — one table scan plus its rows, as
   TD's base pass counts it — with the per-row checkpoint, so a deadline,
   cancel or drain still stops a base computation. *)
let materialize (ctx : Context.t) ~cuboid =
  let c = Lattice.cuboid ctx.lattice cuboid in
  let cols = Context.cols ctx in
  let rows = Columnar.rows cols in
  let groups = Group_key.Tbl.create 256 in
  let scratch = Group_key.make_scratch ctx.layout in
  let entries = ref 0 in
  let add g fact =
    let facts = Int_set.add fact g.facts in
    if facts != g.facts then begin
      g.facts <- facts;
      incr entries
    end
  in
  ctx.instr.Instrument.table_scans <- ctx.instr.Instrument.table_scans + 1;
  Trace.with_span "witness.scan" ~attrs:[ ("rows", Trace.Int rows) ]
    (fun () ->
      for r = 0 to rows - 1 do
        Context.checkpoint ctx;
        ctx.instr.Instrument.rows_scanned <-
          ctx.instr.Instrument.rows_scanned + 1;
        add_row ctx groups scratch c cols r add
      done);
  fill_stale ctx.measure groups;
  {
    cuboid_id = cuboid;
    lattice = ctx.lattice;
    layout = ctx.layout;
    dicts = Witness.dicts ctx.table;
    measure = ctx.measure;
    groups;
    fact_entries = !entries;
  }

(* The ingest delta patch: [materialize]'s per-row step over only the
   appended rows [from_row, rows) of the context's columns. Adding facts
   to group fact-sets is duplicate-safe (set union semantics), so
   non-disjoint repeats across the new rows cost memory, never
   correctness — the same §3.6 discipline as rollup merging. The columns
   must be over the same table (and layout) the view was built on. There
   is no checkpoint: a patch stopped halfway would leave the view out of
   step with its table.

   A fact larger than every fact already in its group (the common case:
   ingested facts get ids above every document node) extends the group's
   ascending fold by one step, so the new cell is a copy of the old one
   plus that fact — the same bits [cell_of_facts] would produce. Any other
   new fact recomputes the cell from the whole set. *)
let apply_rows (ctx : Context.t) t ~from_row =
  let c = states t in
  let cols = Context.cols ctx in
  let scratch = Group_key.make_scratch t.layout in
  let touched = ref 0 in
  let add g fact =
    let facts = Int_set.add fact g.facts in
    if facts != g.facts then begin
      let appended =
        Int_set.is_empty g.facts || fact > Int_set.max_elt g.facts
      in
      let cell =
        if appended then begin
          (* a new group's cell is [stale], which is empty *)
          let cell = Aggregate.copy g.cell in
          Aggregate.add cell (t.measure fact);
          cell
        end
        else cell_of_facts t.measure facts
      in
      g.facts <- facts;
      g.cell <- cell;
      t.fact_entries <- t.fact_entries + 1
    end;
    incr touched
  in
  for r = from_row to Columnar.rows cols - 1 do
    add_row ctx t.groups scratch c cols r add
  done;
  !touched

(* Estimated resident bytes, in the spirit of the Governor cost model:
   per group one Tbl slot + boxed key + the group record (~96 bytes, like
   counter_cost), its aggregate cell (5 words + 3 boxed floats, ~96
   bytes), plus one balanced-set node per fact id (4 fields + header = 5
   words). The fixed tail covers the record itself. O(1): the fact-set
   sizes are the running [fact_entries]. *)
let group_cost = 96
let cell_cost = 96
let fact_cost = 40

let approx_bytes t =
  128
  + (Group_key.Tbl.length t.groups * (group_cost + cell_cost))
  + (fact_cost * t.fact_entries)

let parts_of t key = Group_key.to_parts t.layout ~dicts:t.dicts (states t) key

let cells t =
  Group_key.Tbl.fold
    (fun key g acc -> (parts_of t key, g.cell) :: acc)
    t.groups []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* A coarse group fed by one finer group has the same fact set, so it
   shares that group's cell; a merged group's cell is recomputed from the
   union. *)
let rollup_unchecked (ctx : Context.t) t ~coarser =
  let coarse = Lattice.cuboid ctx.lattice coarser in
  let groups = Group_key.Tbl.create 256 in
  Group_key.Tbl.iter
    (fun key g ->
      let key' = Group_key.project t.layout ~to_:coarse key in
      match Group_key.Tbl.find_opt groups key' with
      | Some merged ->
          (* The fact sets make the merge duplicate-safe: a fact present in
             two finer groups counts once here. *)
          merged.facts <- Int_set.union merged.facts g.facts;
          merged.cell <- stale
      | None ->
          Group_key.Tbl.replace groups key' { facts = g.facts; cell = g.cell })
    t.groups;
  fill_stale t.measure groups;
  let fact_entries =
    Group_key.Tbl.fold (fun _ g acc -> acc + Int_set.cardinal g.facts) groups 0
  in
  { t with cuboid_id = coarser; groups; fact_entries }

(* A covered path from [finer] to [coarser] in the lattice DAG: every step
   must be a covered edge. Breadth-first over parents. *)
let covered_path lattice props ~finer ~coarser =
  if finer = coarser then Ok ()
  else begin
    let visited = Hashtbl.create 16 in
    let rec search frontier =
      match frontier with
      | [] ->
          Error
            (Printf.sprintf
               "no covered lattice path from cuboid %d to cuboid %d — \
                coverage fails on every route, the intermediate is missing \
                facts"
               finer coarser)
      | node :: rest ->
          if node = coarser then Ok ()
          else if Hashtbl.mem visited node then search rest
          else begin
            Hashtbl.add visited node ();
            let next =
              List.filter
                (fun parent ->
                  Properties.edge_covered props ~finer:node ~coarser:parent
                  && Cuboid.leq
                       (Lattice.cuboid lattice parent)
                       (Lattice.cuboid lattice coarser))
                (Lattice.parents lattice node)
            in
            search (rest @ next)
          end
    in
    search [ finer ]
  end

let rollup (ctx : Context.t) ~props t ~coarser =
  let fine = Lattice.cuboid ctx.lattice t.cuboid_id in
  let coarse = Lattice.cuboid ctx.lattice coarser in
  if not (Cuboid.leq fine coarse) then
    Error
      (Printf.sprintf "cuboid %d is not a relaxation of cuboid %d" coarser
         t.cuboid_id)
  else begin
    match covered_path ctx.lattice props ~finer:t.cuboid_id ~coarser with
    | Error _ as e -> e
    | Ok () -> Ok (rollup_unchecked ctx t ~coarser)
  end

(* The result is over the view's own table (same dictionaries, same key
   layout) — true by construction for the session that built both — so
   keys and cells are copied as they are. *)
let to_result t result =
  Group_key.Tbl.iter
    (fun key g -> Cube_result.set_cell result ~cuboid:t.cuboid_id ~key g.cell)
    t.groups
