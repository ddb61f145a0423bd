(* A bibliography analytics session on the DBLP-like workload (§4.5):
   generate data, let the DTD drive the property oracle, compute the cube
   with the schema-customised TDCUST, and read some answers off it.

   Run with:  dune exec examples/dblp_analytics.exe *)

module Engine = X3_core.Engine
module Lattice = X3_lattice.Lattice
module State = X3_lattice.State
module Properties = X3_lattice.Properties

let () =
  let articles = 5_000 in
  Format.printf "Generating %d DBLP-like articles...@." articles;
  let doc =
    X3_workload.Dblp.generate { X3_workload.Dblp.seed = 7; num_articles = articles }
  in
  let store = X3_xdb.Store.of_document doc in
  let spec = X3_workload.Dblp.spec () in
  let pool = X3_storage.Buffer_pool.create (X3_storage.Disk.in_memory ()) in
  let prepared = Engine.prepare ~pool ~store spec in
  let lattice = Engine.lattice prepared in

  (* Schema knowledge from the DBLP DTD: author repeatable and optional,
     month optional, year/journal mandatory and unique. *)
  let schema = X3_xml.Schema.of_dtd (X3_workload.Dblp.dtd ()) in
  let props = Properties.infer ~schema ~fact_tag:"article" lattice in
  Format.printf
    "Schema says: %d of %d cuboids disjoint; the customised algorithms \
     exploit exactly those.@."
    (Array.fold_left
       (fun acc id -> if Properties.cuboid_disjoint props id then acc + 1 else acc)
       0
       (Array.init (Lattice.size lattice) Fun.id))
    (Lattice.size lattice);

  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let (cube, instr), dt = time (fun () -> Engine.run ~props prepared Engine.Tdcust) in
  let (reference, _), dt_td = time (fun () -> Engine.run prepared Engine.Td) in
  Format.printf
    "TDCUST: %.3fs (%d roll-ups, %d base computations) vs plain TD %.3fs — \
     same cube: %b@.@."
    dt instr.X3_core.Instrument.rollups
    instr.X3_core.Instrument.base_computations dt_td
    (X3_core.Cube_result.equal ~func:X3_core.Aggregate.Count reference cube);

  (* Read analytics off the cube.  Axes: author, month, year, journal. *)
  let cuboid states = Lattice.id lattice states in
  let removed = State.Removed and present = State.Present 0 in
  let top cuboid_id n label =
    let cells = X3_core.Cube_result.cuboid_cells cube cuboid_id in
    let ranked =
      List.sort
        (fun (_, a) (_, b) ->
          compare
            (X3_core.Aggregate.value X3_core.Aggregate.Count b)
            (X3_core.Aggregate.value X3_core.Aggregate.Count a))
        cells
    in
    Format.printf "Top %d %s:@." n label;
    List.iteri
      (fun i (values, cell) ->
        if i < n then
          Format.printf "  %-28s %5.0f articles@."
            (String.concat ", " (Array.to_list values))
            (X3_core.Aggregate.value X3_core.Aggregate.Count cell))
      ranked;
    Format.printf "@."
  in
  top (cuboid [| removed; removed; removed; present |]) 5 "journals";
  top (cuboid [| present; removed; removed; removed |]) 5 "authors";
  top (cuboid [| removed; removed; present; present |]) 5 "(year, journal) pairs";

  (* Count articles with no author at all: the ALL group minus the union of
     author groups is visible by comparing the two cuboids' totals. *)
  let all_id = Lattice.most_relaxed_id lattice in
  let total =
    match X3_core.Cube_result.find cube ~cuboid:all_id ~key:[] with
    | Some cell -> X3_core.Aggregate.value X3_core.Aggregate.Count cell
    | None -> 0.
  in
  Format.printf
    "%.0f articles in total; the author group-by covers fewer — the \
     coverage gap is the author-less articles (the paper's incomplete \
     coverage in the wild).@."
    total
