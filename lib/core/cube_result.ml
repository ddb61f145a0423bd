module Lattice = X3_lattice.Lattice
module Witness = X3_pattern.Witness

(* Cells are stored under coded (packed-integer) keys; the value-keyed API
   below decodes through the witness dictionaries, so pivot, export and
   tests see plain value lists. *)

type t = {
  lattice : Lattice.t;
  table : Witness.t;
  shapes : Group_key.shape array;
  cells : Aggregate.cell Group_key.Tbl.t array;
}

let create ~table lattice =
  {
    lattice;
    table;
    shapes =
      Group_key.shapes ~widths:(Group_key.widths_of_table table) lattice;
    cells = Array.init (Lattice.size lattice) (fun _ -> Group_key.Tbl.create 64);
  }

let lattice t = t.lattice
let table t = t.table
let shape t cuboid = t.shapes.(cuboid)

(* --- coded hot path ----------------------------------------------------- *)

let cell t ~cuboid ~key =
  let tbl = t.cells.(cuboid) in
  match Group_key.Tbl.find_opt tbl key with
  | Some c -> c
  | None ->
      let c = Aggregate.create () in
      Group_key.Tbl.replace tbl key c;
      c

let cell_scratch t ~cuboid scratch =
  Group_key.Tbl.find_or_add t.cells.(cuboid) scratch ~default:Aggregate.create

let cuboid_table t cuboid = t.cells.(cuboid)
let find_coded t ~cuboid ~key = Group_key.Tbl.find_opt t.cells.(cuboid) key
let set_cell t ~cuboid ~key c = Group_key.Tbl.replace t.cells.(cuboid) key c
let iter_cuboid t cuboid f = Group_key.Tbl.iter f t.cells.(cuboid)

let cuboid_size t cuboid = Group_key.Tbl.length t.cells.(cuboid)

let total_cells t =
  Array.fold_left (fun acc tbl -> acc + Group_key.Tbl.length tbl) 0 t.cells

(* --- the value boundary ------------------------------------------------- *)

let parts_of t cuboid key =
  Group_key.to_parts t.shapes.(cuboid) ~dicts:(Witness.dicts t.table) key

let coded_key t cuboid parts =
  Group_key.of_parts t.shapes.(cuboid) ~dicts:(Witness.dicts t.table) parts

let find t ~cuboid ~key =
  match coded_key t cuboid key with
  | None -> None
  | Some k -> find_coded t ~cuboid ~key:k

(* One cuboid's groups in export order ([Group_key.sorted]), each with
   the values of its present axes (axis order); only the sorted groups
   are decoded. *)
let cuboid_cells t id =
  let shape = t.shapes.(id) in
  let dicts = Witness.dicts t.table in
  Array.fold_right
    (fun entry acc ->
      let key = Group_key.Tbl.entry_key entry in
      ( Array.mapi
          (fun j ai -> Witness.Dict.value dicts.(ai) (Group_key.field shape key j))
          shape.Group_key.present,
        Group_key.Tbl.entry_value entry )
      :: acc)
    (Group_key.sorted shape ~dicts t.cells.(id))
    []

(* Comparison decodes keys on both sides: the cubes may come from
   separately materialised tables whose dictionaries assign different
   ids to the same values. *)
let first_difference ~func a b =
  if Lattice.size a.lattice <> Lattice.size b.lattice then
    Some (-1, [], "lattices differ in size")
  else begin
    let found = ref None in
    Array.iteri
      (fun cuboid tbl ->
        if !found = None then begin
          Group_key.Tbl.iter
            (fun key ca ->
              if !found = None then begin
                let parts = parts_of a cuboid key in
                let cb =
                  match coded_key b cuboid parts with
                  | None -> None
                  | Some k -> find_coded b ~cuboid ~key:k
                in
                match cb with
                | None ->
                    found :=
                      Some (cuboid, parts, "group missing from second cube")
                | Some cb ->
                    if not (Aggregate.equal_value func ca cb) then
                      found :=
                        Some
                          ( cuboid,
                            parts,
                            Printf.sprintf "%g <> %g"
                              (Aggregate.value func ca)
                              (Aggregate.value func cb) )
              end)
            tbl;
          Group_key.Tbl.iter
            (fun key _ ->
              if !found = None then begin
                let parts = parts_of b cuboid key in
                let present =
                  match coded_key a cuboid parts with
                  | None -> false
                  | Some k -> find_coded a ~cuboid ~key:k <> None
                in
                if not present then
                  found := Some (cuboid, parts, "extra group in second cube")
              end)
            b.cells.(cuboid)
        end)
      a.cells;
    !found
  end

let equal ~func a b = first_difference ~func a b = None

let pp ?(max_groups = 20) ~func ppf t =
  Array.iter
    (fun cuboid ->
      let groups = cuboid_cells t cuboid in
      Format.fprintf ppf "cuboid %d %s: %d group(s)@." cuboid
        (X3_lattice.Cuboid.to_string
           (Lattice.axes t.lattice)
           (Lattice.cuboid t.lattice cuboid))
        (List.length groups);
      List.iteri
        (fun i (values, c) ->
          if i < max_groups then
            Format.fprintf ppf "  (%s) %a@."
              (String.concat ", " (Array.to_list values))
              (Aggregate.pp func) c
          else if i = max_groups then Format.fprintf ppf "  ...@.")
        groups)
    (Lattice.by_degree t.lattice)
