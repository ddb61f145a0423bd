module Lattice = X3_lattice.Lattice
module State = X3_lattice.State
module Axis = X3_pattern.Axis

let add_csv_field buf field =
  let needs_quoting =
    String.exists (function '"' | ',' | '\n' | '\r' -> true | _ -> false) field
  in
  if not needs_quoting then Buffer.add_string buf field
  else begin
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"'
  end

(* [%.0f] for integral values, spelled via [string_of_int]: the common
   case (every COUNT) and several times cheaper than [Printf]. *)
let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then
    if v = 0. && Float.sign_bit v then "-0" else string_of_int (int_of_float v)
  else Printf.sprintf "%g" v

let to_csv ~func buf result =
  let lattice = Cube_result.lattice result in
  let axes = Lattice.axes lattice in
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
      let cuboid = Lattice.cuboid lattice id in
      let prefix = Printf.sprintf "%d,%d" id (Lattice.degree lattice id) in
      List.iter
        (fun (values, cell) ->
          Buffer.add_string buf prefix;
          (* present axes consume the values in order, removed axes
             print (ALL) *)
          let next = ref 0 in
          Array.iter
            (fun state ->
              Buffer.add_char buf ',';
              match state with
              | State.Removed -> Buffer.add_string buf "(ALL)"
              | State.Present _ ->
                  add_csv_field buf values.(!next);
                  incr next)
            cuboid;
          Buffer.add_char buf ',';
          Buffer.add_string buf (float_repr (Aggregate.value func cell));
          Buffer.add_char buf '\n')
        (Cube_result.cuboid_cells result id))
    (Lattice.by_degree lattice)

(* A capacity that holds a typical export whole — [line] bytes per cell
   (and per cuboid header) plus [per_axis] per axis, a little above what
   short values print — so the buffer is rarely regrown and copied,
   without allocating much more than the export needs. *)
let initial_size result ~line ~per_axis =
  let lattice = Cube_result.lattice result in
  let axes = Array.length (Lattice.axes lattice) in
  ((Cube_result.total_cells result + Lattice.size lattice)
   * (line + (per_axis * axes)))
  + 256

let csv_string ~func result =
  let buf = Buffer.create (initial_size result ~line:4 ~per_axis:4) in
  to_csv ~func buf result;
  Buffer.contents buf

let to_json ~func buf result =
  let lattice = Cube_result.lattice result in
  let axes = Lattice.axes lattice in
  let add_string = X3_obs.Json.escape buf in
  Buffer.add_string buf "[";
  let first_cuboid = ref true in
  Array.iter
    (fun id ->
      if not !first_cuboid then Buffer.add_string buf ",";
      first_cuboid := false;
      let cuboid = Lattice.cuboid lattice id in
      Buffer.add_string buf "\n  {\"cuboid\": ";
      Buffer.add_string buf (string_of_int id);
      Buffer.add_string buf ", \"states\": [";
      Array.iteri
        (fun i state ->
          if i > 0 then Buffer.add_string buf ", ";
          add_string
            (Printf.sprintf "%s:%s" axes.(i).Axis.name
               (State.to_string axes.(i) state)))
        cuboid;
      Buffer.add_string buf "], \"groups\": [";
      List.iteri
        (fun g (values, cell) ->
          if g > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf "{\"key\": [";
          Array.iteri
            (fun i value ->
              if i > 0 then Buffer.add_string buf ", ";
              add_string value)
            values;
          Buffer.add_string buf "], \"value\": ";
          let v = Aggregate.value func cell in
          Buffer.add_string buf
            (if Float.is_nan v then "null" else float_repr v);
          Buffer.add_string buf "}")
        (Cube_result.cuboid_cells result id);
      Buffer.add_string buf "]}")
    (Lattice.by_degree lattice);
  Buffer.add_string buf "\n]\n"

let json_string ~func result =
  let buf = Buffer.create (initial_size result ~line:24 ~per_axis:8) in
  to_json ~func buf result;
  Buffer.contents buf
