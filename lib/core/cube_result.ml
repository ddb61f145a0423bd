module Lattice = X3_lattice.Lattice
module Witness = X3_pattern.Witness

(* Cells are stored under coded (packed-integer) keys; the legacy
   string-keyed API below decodes through the witness dictionaries, so
   pivot and tests still see length-prefixed value lists. *)

type t = {
  lattice : Lattice.t;
  table : Witness.t;
  layout : Group_key.layout;
  cells : Aggregate.cell Group_key.Tbl.t array;
}

let create ~table lattice =
  {
    lattice;
    table;
    layout = Group_key.layout_of_table table;
    cells = Array.init (Lattice.size lattice) (fun _ -> Group_key.Tbl.create 64);
  }

let lattice t = t.lattice
let table t = t.table
let layout t = t.layout

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

let find_coded t ~cuboid ~key = Group_key.Tbl.find_opt t.cells.(cuboid) key
let set_cell t ~cuboid ~key c = Group_key.Tbl.replace t.cells.(cuboid) key c
let iter_cuboid t cuboid f = Group_key.Tbl.iter f t.cells.(cuboid)

let cuboid_size t cuboid = Group_key.Tbl.length t.cells.(cuboid)

let total_cells t =
  Array.fold_left (fun acc tbl -> acc + Group_key.Tbl.length tbl) 0 t.cells

(* --- the string boundary ------------------------------------------------ *)

let states t cuboid = Lattice.cuboid t.lattice cuboid

let legacy_key t cuboid key =
  Group_key.encode
    (Group_key.to_parts t.layout ~dicts:(Witness.dicts t.table)
       (states t cuboid) key)

let coded_key t cuboid legacy =
  Group_key.of_parts t.layout ~dicts:(Witness.dicts t.table) (states t cuboid)
    (Group_key.decode legacy)

let find t ~cuboid ~key =
  match coded_key t cuboid key with
  | None -> None
  | Some k -> find_coded t ~cuboid ~key:k

let cuboid_cells t cuboid =
  Group_key.Tbl.fold
    (fun key c acc -> (legacy_key t cuboid key, c) :: acc)
    t.cells.(cuboid) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let iter f t =
  Array.iteri
    (fun cuboid tbl ->
      Group_key.Tbl.iter
        (fun key c -> f ~cuboid ~key:(legacy_key t cuboid key) c)
        tbl)
    t.cells

(* Comparison decodes keys on both sides: the cubes may come from
   separately materialised tables whose dictionaries assign different
   ids to the same values. *)
let first_difference ~func a b =
  if Lattice.size a.lattice <> Lattice.size b.lattice then
    Some (-1, "", "lattices differ in size")
  else begin
    let found = ref None in
    Array.iteri
      (fun cuboid tbl ->
        if !found = None then begin
          Group_key.Tbl.iter
            (fun key ca ->
              if !found = None then begin
                let legacy = legacy_key a cuboid key in
                let cb =
                  match coded_key b cuboid legacy with
                  | None -> None
                  | Some k -> find_coded b ~cuboid ~key:k
                in
                match cb with
                | None ->
                    found :=
                      Some (cuboid, legacy, "group missing from second cube")
                | Some cb ->
                    if not (Aggregate.equal_value func ca cb) then
                      found :=
                        Some
                          ( cuboid,
                            legacy,
                            Printf.sprintf "%g <> %g"
                              (Aggregate.value func ca)
                              (Aggregate.value func cb) )
              end)
            tbl;
          Group_key.Tbl.iter
            (fun key _ ->
              if !found = None then begin
                let legacy = legacy_key b cuboid key in
                let present =
                  match coded_key a cuboid legacy with
                  | None -> false
                  | Some k -> find_coded a ~cuboid ~key:k <> None
                in
                if not present then
                  found := Some (cuboid, legacy, "extra group in second cube")
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
        (fun i (key, c) ->
          if i < max_groups then
            Format.fprintf ppf "  %a %a@." Group_key.pp key (Aggregate.pp func)
              c
          else if i = max_groups then Format.fprintf ppf "  ...@.")
        groups)
    (Lattice.by_degree t.lattice)
