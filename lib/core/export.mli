(** Cube result export.

    Downstream OLAP front-ends want flat files, not OCaml values. The CSV
    layout has one row per group: the cuboid id, one column per axis (the
    axis's relaxation state, or its grouping value when present — [(ALL)]
    for removed axes, RFC-4180 quoting), and the aggregate value. JSON
    mirrors it as one object per cuboid. *)

val to_csv :
  func:Aggregate.func -> Buffer.t -> Cube_result.t -> unit
(** Append the full cube as CSV (with a header line) to the buffer. Rows
    are emitted in lattice [by_degree] order, and within a cuboid in the
    historical group order ({!Cube_result.cuboid_cells}): value by value
    in axis order, the value with the smaller low length byte
    ([len land 0xFF]) first, then the smaller [len lsr 8], then
    bytewise. Dictionary ids are decoded once per group, at print. *)

val csv_string : func:Aggregate.func -> Cube_result.t -> string

val to_json :
  func:Aggregate.func -> Buffer.t -> Cube_result.t -> unit
(** Same content as JSON: a top-level array of
    [{"cuboid": id, "pattern": [...axis states...],
      "groups": [{"key": [...], "value": v}]}]. *)

val json_string : func:Aggregate.func -> Cube_result.t -> string
