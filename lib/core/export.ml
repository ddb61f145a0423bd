module Lattice = X3_lattice.Lattice
module State = X3_lattice.State
module Axis = X3_pattern.Axis
module Witness = X3_pattern.Witness

(* A [while] loop, not [String.exists]: its local loop closure would be
   allocated once per field printed. *)
let needs_quoting field =
  let n = String.length field and i = ref 0 in
  while
    !i < n
    && match String.unsafe_get field !i with
       | '"' | ',' | '\n' | '\r' -> false
       | _ -> true
  do
    incr i
  done;
  !i < n

let add_csv_field buf field =
  if not (needs_quoting field) then Buffer.add_string buf field
  else begin
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"'
  end

(* What the printers read: the lattice, the cell count (to size the
   buffer) and, per cuboid id, its key shape, the dictionaries its keys
   are coded against, and its entries in export order. A cube result
   sorts each cuboid as it is printed; a view hands over the order it
   stores. *)
type source = {
  lattice : Lattice.t;
  total : int;
  cuboid :
    int ->
    Group_key.shape
    * Witness.Dict.t array
    * Aggregate.cell Group_key.Tbl.entry array;
}

let of_result result =
  let dicts = Witness.dicts (Cube_result.table result) in
  {
    lattice = Cube_result.lattice result;
    total = Cube_result.total_cells result;
    cuboid =
      (fun id ->
        let shape = Cube_result.shape result id in
        ( shape,
          dicts,
          Group_key.sorted shape ~dicts (Cube_result.cuboid_table result id) ));
  }

let of_views lattice views =
  {
    lattice;
    total =
      Array.fold_left (fun acc v -> acc + Materialized.group_count v) 0 views;
    cuboid =
      (fun id ->
        let v = views.(id) in
        (Materialized.shape v, Materialized.dicts v, Materialized.order v));
  }

(* The [j]th present value of a key, decoded at print. *)
let value shape dicts key j =
  Witness.Dict.value dicts.(shape.Group_key.present.(j)) (Group_key.field shape key j)

let to_csv ~func buf src =
  let axes = Lattice.axes src.lattice in
  Buffer.add_string buf "cuboid,degree";
  Array.iter
    (fun axis ->
      Buffer.add_char buf ',';
      add_csv_field buf axis.Axis.name)
    axes;
  Buffer.add_char buf ',';
  Buffer.add_string buf (Aggregate.func_to_string func);
  Buffer.add_char buf '\n';
  Array.iter
    (fun id ->
      let shape, dicts, entries = src.cuboid id in
      let cuboid = shape.Group_key.cuboid in
      let prefix = Printf.sprintf "%d,%d" id (Lattice.degree src.lattice id) in
      for g = 0 to Array.length entries - 1 do
        let key = Group_key.Tbl.entry_key entries.(g) in
        Buffer.add_string buf prefix;
        (* present axes consume the key's fields in order, removed axes
           print (ALL) *)
        let next = ref 0 in
        for ai = 0 to Array.length cuboid - 1 do
          Buffer.add_char buf ',';
          match cuboid.(ai) with
          | State.Removed -> Buffer.add_string buf "(ALL)"
          | State.Present _ ->
              add_csv_field buf (value shape dicts key !next);
              incr next
        done;
        Buffer.add_char buf ',';
        Buffer.add_string buf
          (Aggregate.float_repr
             (Aggregate.value func (Group_key.Tbl.entry_value entries.(g))));
        Buffer.add_char buf '\n'
      done)
    (Lattice.by_degree src.lattice)

let to_json ~func buf src =
  let axes = Lattice.axes src.lattice in
  let add_string = X3_obs.Json.escape buf in
  Buffer.add_string buf "[";
  Array.iteri
    (fun i id ->
      if i > 0 then Buffer.add_string buf ",";
      let shape, dicts, entries = src.cuboid id in
      Buffer.add_string buf "\n  {\"cuboid\": ";
      Buffer.add_string buf (string_of_int id);
      Buffer.add_string buf ", \"states\": [";
      Array.iteri
        (fun ai state ->
          if ai > 0 then Buffer.add_string buf ", ";
          add_string
            (Printf.sprintf "%s:%s" axes.(ai).Axis.name
               (State.to_string axes.(ai) state)))
        shape.Group_key.cuboid;
      Buffer.add_string buf "], \"groups\": [";
      for g = 0 to Array.length entries - 1 do
        if g > 0 then Buffer.add_string buf ", ";
        let key = Group_key.Tbl.entry_key entries.(g) in
        Buffer.add_string buf "{\"key\": [";
        for j = 0 to Array.length shape.Group_key.present - 1 do
          if j > 0 then Buffer.add_string buf ", ";
          add_string (value shape dicts key j)
        done;
        Buffer.add_string buf "], \"value\": ";
        let v = Aggregate.value func (Group_key.Tbl.entry_value entries.(g)) in
        Buffer.add_string buf
          (if Float.is_nan v then "null" else Aggregate.float_repr v);
        Buffer.add_string buf "}"
      done;
      Buffer.add_string buf "]}")
    (Lattice.by_degree src.lattice);
  Buffer.add_string buf "\n]\n"

(* A capacity that holds a typical export whole — [line] bytes per cell
   (and per cuboid header) plus [per_axis] per axis, a little above what
   short values print — so the buffer is rarely regrown and copied,
   without allocating much more than the export needs. *)
let to_string print ~line ~per_axis ~func src =
  let axes = Array.length (Lattice.axes src.lattice) in
  let buf =
    Buffer.create
      (((src.total + Lattice.size src.lattice) * (line + (per_axis * axes)))
      + 256)
  in
  print ~func buf src;
  Buffer.contents buf

let csv = to_string to_csv ~line:4 ~per_axis:4
let json = to_string to_json ~line:24 ~per_axis:8
let csv_string ~func result = csv ~func (of_result result)
let json_string ~func result = json ~func (of_result result)
let views_csv_string ~func lattice views = csv ~func (of_views lattice views)
let views_json_string ~func lattice views = json ~func (of_views lattice views)
