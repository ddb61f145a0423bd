(** Cube export.

    Downstream OLAP front-ends want flat files, not OCaml values. The CSV
    layout has one row per group: the cuboid id, its degree, one column
    per axis (the group's value when the axis is present — RFC-4180
    quoting — and [(ALL)] when it is removed), and the aggregate value.
    JSON mirrors it as one object per cuboid.

    Cuboids print in lattice [by_degree] order, and within a cuboid in
    export order ({!Group_key.sorted}): value by value in axis order, the
    value with the smaller low length byte ([len land 0xFF]) first, then
    the smaller [len lsr 8], then bytewise. Keys are decoded field by
    field as they print. Values print as {!Aggregate.float_repr} spells
    them (JSON prints [nan] as [null]).

    One CSV printer and one JSON printer serve both sources: a computed
    {!Cube_result.t}, sorted cuboid by cuboid as it prints, and a full
    set of materialised views, which print from their stored order
    ({!Materialized.order}). *)

val csv_string : func:Aggregate.func -> Cube_result.t -> string
(** The full cube as CSV, with a header line. *)

val json_string : func:Aggregate.func -> Cube_result.t -> string
(** Same content as JSON: a top-level array of
    [{"cuboid": id, "states": [...axis states...],
      "groups": [{"key": [...], "value": v}]}]. *)

val views_csv_string :
  func:Aggregate.func -> X3_lattice.Lattice.t -> Materialized.t array -> string
(** {!csv_string} of the cube whose cuboid [id] is [views.(id)], one view
    per lattice cuboid. A view sorts at most once, the first time it is
    read after being built or gaining a group. *)

val views_json_string :
  func:Aggregate.func -> X3_lattice.Lattice.t -> Materialized.t array -> string
(** {!json_string} of the same views. *)
