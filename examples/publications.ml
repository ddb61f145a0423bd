(* The paper's running example, end to end: Figure 1's publication
   database, Query 1 through the X^3 language front-end, the MRFI pattern,
   the 30-cuboid lattice, and the disagreement between correct and
   optimised algorithms on the motivating (p1, 2003) group.

   Run with:  dune exec examples/publications.exe *)

module Engine = X3_core.Engine
module Lattice = X3_lattice.Lattice
module State = X3_lattice.State

let () =
  Format.printf "== Query 1 (§2.3) ==@.%s@.@."
    X3_workload.Publications.query1;
  let { X3_ql.Compile.spec; _ } =
    match X3_ql.Compile.parse_and_compile X3_workload.Publications.query1 with
    | Ok c -> c
    | Error msg -> failwith msg
  in

  Format.printf "== Most relaxed fully instantiated pattern (Fig. 2) ==@.";
  Format.printf "%s@.@."
    (X3_pattern.Mrfi.to_string
       (X3_pattern.Mrfi.of_axes ~fact_tag:"publication" spec.Engine.axes));

  let store =
    X3_xdb.Store.of_document (X3_workload.Publications.document ())
  in
  let pool = X3_storage.Buffer_pool.create (X3_storage.Disk.in_memory ()) in
  let prepared = Engine.prepare ~pool ~store spec in
  let lattice = Engine.lattice prepared in
  Format.printf "== Lattice ==@.%d cuboids (Fig. 3 draws an excerpt of 15)@.@."
    (Lattice.size lattice);

  let reference, _ = Engine.run prepared Engine.Naive in

  (* The motivating group: publisher p1, year 2003 — publication 1 has two
     authors, so a roll-up from (author, publisher, year) double counts. *)
  let py_cuboid =
    Lattice.id lattice [| State.Removed; State.Present 0; State.Present 0 |]
  in
  let key = [ "p1"; "2003" ] in
  let count result =
    match X3_core.Cube_result.find result ~cuboid:py_cuboid ~key with
    | Some cell ->
        int_of_float (X3_core.Aggregate.value X3_core.Aggregate.Count cell)
    | None -> 0
  in
  Format.printf "== The (p1, 2003) group (Fig. 1's motivation) ==@.";
  List.iter
    (fun algorithm ->
      let result, _ = Engine.run prepared algorithm in
      Format.printf "  %-9s counts (p1, 2003) as %d %s@."
        (Engine.algorithm_to_string algorithm)
        (count result)
        (if
           X3_core.Cube_result.equal ~func:X3_core.Aggregate.Count reference
             result
         then "(whole cube correct)"
         else "(cube differs from the reference!)"))
    Engine.[ Naive; Counter; Buc; Td; Bucopt; Tdopt; Tdoptall ];
  Format.printf
    "@.Publication 1 has two authors: algorithms that assume disjointness \
     count its two witness rows twice.@.@.";

  (* Coverage: the group-by year sees publication 3 (no publisher), the
     group-by (publisher, year) cannot. *)
  let year_cuboid =
    Lattice.id lattice [| State.Removed; State.Removed; State.Present 0 |]
  in
  let year_2003 = [ "2003" ] in
  (match
     X3_core.Cube_result.find reference ~cuboid:year_cuboid ~key:year_2003
   with
  | Some cell ->
      Format.printf
        "== Coverage ==@.group-by year: 2003 -> %.0f publications (includes \
         publisher-less publication 3)@."
        (X3_core.Aggregate.value X3_core.Aggregate.Count cell)
  | None -> assert false);
  Format.printf
    "group-by (publisher, year): (p1, 2003) -> %d — publication 3 is \
     invisible here, so a roll-up from this cuboid would undercount 2003.@.@."
    (count reference);

  (* Relaxation: Bob's name hides under <authors>; PC-AD finds it. *)
  let by_name mask =
    Lattice.id lattice [| State.Present mask; State.Removed; State.Removed |]
  in
  let bob = [ "Bob" ] in
  let find cuboid =
    match X3_core.Cube_result.find reference ~cuboid ~key:bob with
    | Some cell ->
        int_of_float (X3_core.Aggregate.value X3_core.Aggregate.Count cell)
    | None -> 0
  in
  Format.printf
    "== Relaxation ==@.group-by author name, rigid pattern: Bob -> %d@."
    (find (by_name 0));
  Format.printf
    "group-by author name, PC-AD relaxed:  Bob -> %d (the <authors> wrapper \
     no longer hides him)@."
    (find (by_name 1))
