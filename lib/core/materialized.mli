(** Materialised cuboids: a serve session's views (§3.6, §4.5).

    A view is one cuboid's aggregate cells under coded keys, computed as
    TDCUST computes a cuboid: {!materialize} runs TD's base step, and
    {!rollup} merges a finer view's cells only where
    {!X3_lattice.Properties.rollup_refusal} admits it (the finer view is
    disjoint and a covered path leads up). §3.6's fact items, which would
    let a non-disjoint view roll up too at one entry per fact and group,
    are not kept. A cell once installed is replaced, never mutated.

    A view keeps its groups in export order once a read asks for it
    ({!order}): computed once after the view is materialised or rolled
    up, and dropped by {!apply_rows} when it adds a group. The order
    holds the view's table entries, which read their current cells, so
    a patch that only replaces cells keeps it. Growing a dictionary keeps
    its old values' relative order, so a view that gained no group keeps
    a valid order.

    Views live in memory only: a restarted serve daemon rebuilds them
    from the document, by the same steps a cube request takes. *)

type t

val cuboid_id : t -> int
val group_count : t -> int

val shape : t -> Group_key.shape
(** The cuboid's key shape over the session's table. *)

val dicts : t -> X3_pattern.Witness.Dict.t array
(** The table's dictionaries the keys are coded against. *)

val materialize :
  Context.t -> props:X3_lattice.Properties.t -> cuboid:int -> t
(** {!Topdown.compute_from_base} on the calling domain, in
    {!Topdown.custom_mode}. Checkpoints every row, so a deadline, cancel
    or drain stops it with {!Context.Stop}. *)

val apply_rows : Context.t -> t -> from_row:int -> int
(** Patch the view with the rows [from_row] onward of the context's
    columns (freshly appended facts, after {!Context.note_append}): each
    fact is added once to each of its groups. The facts must be new to
    the view. Returns the number of (fact, group) additions. Drops the
    stored order when a group is added. *)

val approx_bytes : t -> int
(** 128 + 200 per group (slot, key, cell and a slot of the stored order,
    which is charged whether held or not), in the {!Governor} cost
    model's terms: what the cuboid cache charges. Constant time. *)

val order : t -> Aggregate.cell Group_key.Tbl.entry array
(** The groups' entries in export order ({!Group_key.sorted}): the stored
    order, sorted and stored first when the view holds none. *)

val ordered : t -> bool
(** Whether the view holds its order, so {!order} will not sort. *)

val cells : t -> (string list * Aggregate.cell) list
(** The group aggregates, each under its present-axis values in axis
    order, sorted by value list. *)

val rollup :
  Context.t ->
  props:X3_lattice.Properties.t ->
  t ->
  coarser:int ->
  (t, X3_lattice.Properties.refusal) result
(** A coarser view merged from this one's cells by {!Topdown.rollup},
    or the property that forbids it. *)
