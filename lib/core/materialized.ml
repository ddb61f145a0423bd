module Properties = X3_lattice.Properties
module Witness = X3_pattern.Witness
module Columnar = Witness.Columnar

(* One cuboid's cells under coded keys relative to the source table's
   dictionaries; the value-keyed accessors decode at the boundary, like
   Cube_result. [order] holds the table's entries in export order once a
   read asked for it. An entry reads its key's current cell, so the order
   stays valid through a patch that only replaces cells; a patch that adds
   a group drops it. A dictionary grown by an ingest keeps its old values'
   relative order, so a view that gained no group keeps its order too. *)
type t = {
  cuboid_id : int;
  shape : Group_key.shape;
  dicts : Witness.Dict.t array;
  cells : Aggregate.cell Group_key.Tbl.t;
  mutable order : Aggregate.cell Group_key.Tbl.entry array option;
}

let cuboid_id t = t.cuboid_id
let shape t = t.shape
let dicts t = t.dicts
let group_count t = Group_key.Tbl.length t.cells

let empty (ctx : Context.t) cuboid =
  {
    cuboid_id = cuboid;
    shape = ctx.shapes.(cuboid);
    dicts = Witness.dicts ctx.table;
    cells = Group_key.Tbl.create 64;
    order = None;
  }

(* TD's base step on the calling domain, in TDCUST's mode. A session's
   account is unbounded, so nothing is booked. *)
let materialize (ctx : Context.t) ~props ~cuboid =
  let t = empty ctx cuboid in
  Topdown.compute_from_base ctx ~mode:(Topdown.custom_mode props cuboid)
    cuboid t.cells;
  t

(* The ingest delta patch over the appended rows [from_row, rows) of the
   context's columns, which must be over the table (and key shape) the view
   was built on. A fact's rows are contiguous, so a per-fact [Seen] set
   adds each fresh fact once to each group it represents itself in,
   whatever the view's disjointness. The group's cell is replaced by a
   copy plus the fact. There is no checkpoint: a patch stopped halfway
   would leave the view out of step with its table. *)
let apply_rows (ctx : Context.t) t ~from_row =
  let cols = Context.cols ctx in
  let cur = Radix.cursor t.shape cols in
  let scratch = Group_key.make_scratch t.shape in
  let seen = Group_key.Seen.create () in
  let current = ref (-1) in
  let added = ref 0 in
  for r = from_row to Columnar.rows cols - 1 do
    let fact = Columnar.fact cols r in
    if fact <> !current then begin
      current := fact;
      Group_key.Seen.reset seen
    end;
    if Radix.load cur scratch r && Radix.first_on_removed cur r then begin
      ctx.instr.Instrument.keys_built <- ctx.instr.Instrument.keys_built + 1;
      if Group_key.Seen.add seen scratch then begin
        let key = Group_key.freeze scratch in
        let cell =
          match Group_key.Tbl.find_opt t.cells key with
          | Some old -> Aggregate.copy old
          | None ->
              t.order <- None;
              Aggregate.create ()
        in
        Aggregate.add cell (ctx.measure fact);
        Group_key.Tbl.replace t.cells key cell;
        incr added
      end
    end
  done;
  !added

(* Estimated resident bytes, in the spirit of the Governor cost model:
   per group one Tbl slot + boxed key (~96 bytes, like counter_cost), its
   aggregate cell (~96 bytes) and its slot in the stored order (8 bytes),
   charged whether or not the order is held: a served view is read right
   after it is built or patched. The fixed tail covers the record and the
   order's array header. *)
let group_cost = 200

let approx_bytes t = 128 + (group_cost * Group_key.Tbl.length t.cells)

let ordered t = Option.is_some t.order

let order t =
  match t.order with
  | Some o -> o
  | None ->
      let o = Group_key.sorted t.shape ~dicts:t.dicts t.cells in
      t.order <- Some o;
      o

let cells t =
  Group_key.Tbl.fold
    (fun key cell acc ->
      (Group_key.to_parts t.shape ~dicts:t.dicts key, cell) :: acc)
    t.cells []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let rollup (ctx : Context.t) ~props t ~coarser =
  match
    Properties.rollup_refusal props ctx.lattice ~finer:t.cuboid_id ~coarser
  with
  | Some refusal -> Error refusal
  | None ->
      let rolled = empty ctx coarser in
      Topdown.rollup ctx ~finer:t.cuboid_id t.cells ~coarser rolled.cells;
      Ok rolled
