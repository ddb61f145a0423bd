module Lattice = X3_lattice.Lattice
module State = X3_lattice.State
module Axis = X3_pattern.Axis
module Witness = X3_pattern.Witness

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

(* The historical group order: [String.compare] over the legacy
   [u16 LE length | bytes] encoding of the decoded values. Per component
   that compares the low length byte, then the high one, then the bytes.
   Comparing [len lsr 8] whole extends the order to values past 65535
   bytes, which that encoding could not hold. *)
let compare_value a b =
  let la = String.length a and lb = String.length b in
  let c = Int.compare (la land 0xFF) (lb land 0xFF) in
  if c <> 0 then c
  else
    let c = Int.compare (la lsr 8) (lb lsr 8) in
    if c <> 0 then c else String.compare a b

let rec compare_values a b i =
  if i = Array.length a then 0
  else
    (* equal ids decode to the same string *)
    let c = if a.(i) == b.(i) then 0 else compare_value a.(i) b.(i) in
    if c <> 0 then c else compare_values a b (i + 1)

(* One cuboid's groups in the historical order, each with the values of
   its present axes (axis order) looked up in the dictionaries. *)
let sorted_groups result id cuboid =
  let layout = Cube_result.layout result in
  let dicts = Witness.dicts (Cube_result.table result) in
  let present = ref [] in
  for ai = Array.length cuboid - 1 downto 0 do
    match cuboid.(ai) with
    | State.Removed -> ()
    | State.Present _ -> present := ai :: !present
  done;
  let present = Array.of_list !present in
  let groups = ref [] in
  Cube_result.iter_cuboid result id (fun key cell ->
      let values =
        Array.map
          (fun ai ->
            Witness.Dict.value dicts.(ai) (Group_key.id_at layout key ~axis:ai))
          present
      in
      groups := (values, cell) :: !groups);
  List.sort (fun (a, _) (b, _) -> compare_values a b 0) !groups

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
        (sorted_groups result id cuboid))
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
        (sorted_groups result id cuboid);
      Buffer.add_string buf "]}")
    (Lattice.by_degree lattice);
  Buffer.add_string buf "\n]\n"

let json_string ~func result =
  let buf = Buffer.create (initial_size result ~line:24 ~per_axis:8) in
  to_json ~func buf result;
  Buffer.contents buf
