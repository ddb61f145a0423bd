module Lattice = X3_lattice.Lattice
module State = X3_lattice.State
module Axis = X3_pattern.Axis

type t = {
  row_labels : string list;
  col_labels : string list;
  body : float option array array;
  row_totals : float option array;
  col_totals : float option array;
  grand_total : float option;
}

let ( let* ) = Result.bind

(* The cuboid where exactly the listed axes are present (at given states)
   and everything else is removed. *)
let cuboid_with lattice present =
  let axes = Lattice.axes lattice in
  let states =
    Array.mapi
      (fun i axis ->
        match List.assoc_opt i present with
        | Some state -> State.Present state
        | None ->
            if Axis.allows_lnd axis then State.Removed
            else State.Present (-1) (* marker: impossible *))
      axes
  in
  if Array.exists (fun s -> s = State.Present (-1)) states then
    Error "every axis outside the pivot must permit LND"
  else begin
    match Lattice.id lattice states with
    | id -> Ok id
    | exception Not_found -> Error "requested states not in the lattice"
  end

let make ~func ~row_axis ?(row_state = 0) ~col_axis ?(col_state = 0) result =
  let lattice = Cube_result.lattice result in
  let n_axes = Array.length (Lattice.axes lattice) in
  let* () =
    if row_axis = col_axis then Error "row and column axes must differ"
    else if row_axis < 0 || row_axis >= n_axes || col_axis < 0 || col_axis >= n_axes
    then Error "axis index out of range"
    else Ok ()
  in
  let* body_id =
    cuboid_with lattice [ (row_axis, row_state); (col_axis, col_state) ]
  in
  let* row_id = cuboid_with lattice [ (row_axis, row_state) ] in
  let* col_id = cuboid_with lattice [ (col_axis, col_state) ] in
  let* all_id = cuboid_with lattice [] in
  (* Collect the label sets from the marginal cuboids (they see every
     group, including ones empty in the body). *)
  let labels_of id =
    List.map
      (fun (values, _) ->
        match values with
        | [| v |] -> v
        | _ -> invalid_arg "Pivot: marginal key arity")
      (Cube_result.cuboid_cells result id)
  in
  let row_labels = labels_of row_id in
  let col_labels = labels_of col_id in
  let index labels = List.mapi (fun i l -> (l, i)) labels in
  let row_index = index row_labels and col_index = index col_labels in
  let body =
    Array.make_matrix (List.length row_labels) (List.length col_labels) None
  in
  (* Body keys are ordered by axis position. *)
  let keyed_first_row = row_axis < col_axis in
  List.iter
    (fun (values, cell) ->
      match values with
      | [| a; b |] ->
          let rv, cv = if keyed_first_row then (a, b) else (b, a) in
          let r = List.assoc rv row_index and c = List.assoc cv col_index in
          body.(r).(c) <- Some (Aggregate.value func cell)
      | _ -> invalid_arg "Pivot: body key arity")
    (Cube_result.cuboid_cells result body_id);
  let marginal id labels =
    let totals = Array.make (List.length labels) None in
    List.iter
      (fun (values, cell) ->
        match values with
        | [| v |] ->
            totals.(List.assoc v (index labels)) <-
              Some (Aggregate.value func cell)
        | _ -> ())
      (Cube_result.cuboid_cells result id);
    totals
  in
  let grand_total =
    Option.map (Aggregate.value func)
      (Cube_result.find result ~cuboid:all_id ~key:[])
  in
  Ok
    {
      row_labels;
      col_labels;
      body;
      row_totals = marginal row_id row_labels;
      col_totals = marginal col_id col_labels;
      grand_total;
    }

let cell_to_string = function
  | None -> "."
  | Some v -> Aggregate.float_repr v

let pp ppf t =
  let label_width =
    List.fold_left (fun acc l -> max acc (String.length l)) 5 t.row_labels
  in
  let col_width =
    List.fold_left (fun acc l -> max acc (String.length l + 1)) 7 t.col_labels
  in
  let pad_left s w = Printf.sprintf "%*s" w s in
  let pad_right s w = Printf.sprintf "%-*s" w s in
  (* Header *)
  Format.fprintf ppf "%s" (pad_right "" label_width);
  List.iter (fun l -> Format.fprintf ppf "%s" (pad_left l col_width)) t.col_labels;
  Format.fprintf ppf " |%s@." (pad_left "total" col_width);
  (* Body rows *)
  List.iteri
    (fun r label ->
      Format.fprintf ppf "%s" (pad_right label label_width);
      Array.iter
        (fun cell -> Format.fprintf ppf "%s" (pad_left (cell_to_string cell) col_width))
        t.body.(r);
      Format.fprintf ppf " |%s@."
        (pad_left (cell_to_string t.row_totals.(r)) col_width))
    t.row_labels;
  (* Totals *)
  let total_width =
    label_width + (col_width * (List.length t.col_labels + 1)) + 2
  in
  Format.fprintf ppf "%s@." (String.make total_width '-');
  Format.fprintf ppf "%s" (pad_right "total" label_width);
  Array.iter
    (fun cell -> Format.fprintf ppf "%s" (pad_left (cell_to_string cell) col_width))
    t.col_totals;
  Format.fprintf ppf " |%s@." (pad_left (cell_to_string t.grand_total) col_width)
