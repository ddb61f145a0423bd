(** Materialised intermediate cube results (§3.6).

    "In many cases, we may be better off to materialize some intermediate
    cube results. ... The solution is to accompany intermediate results
    that we will need at a later time with the attributes to be aggregated
    (keeping track of fact items), just as we had to for top down
    computation."

    A materialised cuboid keeps, per group, the set of contributing fact
    ids together with the aggregate cell. Any coarser cuboid reachable from
    it through {e covered} lattice edges can then be computed from the
    intermediate alone — the fact sets eliminate duplicates across the
    merging groups, so non-disjointness costs memory but never correctness.
    Coverage is the one thing fact sets cannot repair: a fact absent from
    every group of the intermediate (because the relaxed-away axis was
    missing) is simply not there to be rolled up; [rollup] therefore
    refuses edges that are not covered unless explicitly forced.

    The cell is always the aggregate of the group's current fact set, in
    ascending fact order: {!materialize}, {!rollup} and {!apply_rows}
    recompute it whenever the set changes, so reading a view ({!cells},
    {!to_result}) never re-aggregates. A cell once installed is replaced,
    never mutated, so results and views may share it.

    Views live in memory only. A restarted serve daemon does not read
    them back from disk: it rebuilds each resident session's views from
    the document, by the same steps a cube request takes. *)

type t

val cuboid_id : t -> int
val group_count : t -> int
val fact_items : t -> key:string list -> int list
(** Sorted fact ids of one group, given as its present-axis values in
    axis order ([[]] when the group is absent). *)

val materialize : Context.t -> cuboid:int -> t
(** One pass over the context's columnar view, collecting groups with
    fact sets. Checkpoints every row, so a deadline, cancel or drain
    stops it with {!Context.Stop}. *)

val apply_rows : Context.t -> t -> from_row:int -> int
(** Patch the view with the rows [from_row] onward of the context's
    columnar view — freshly appended rows, after {!Context.note_append}
    extended the columns — by [materialize]'s per-row step. Returns how
    many of the rows represent their fact in this view's cuboid (and were
    therefore added). Group fact-sets make the patch duplicate-safe, so it
    is unconditionally sound for any delta of fresh facts; the context
    must be over the same table and layout the view was built on. *)

val approx_bytes : t -> int
(** Estimated resident bytes of the view (groups, keys, cells and fact
    sets), following the {!Governor} cost-model conventions — what a
    byte-budgeted cuboid cache charges per entry. Constant time: each
    operation keeps a running count of the view's fact entries. *)

val cells : t -> (string list * Aggregate.cell) list
(** The group aggregates, each under its present-axis values in axis
    order, sorted by value list. *)

val rollup :
  Context.t ->
  props:X3_lattice.Properties.t ->
  t ->
  coarser:int ->
  (t, string) result
(** [rollup ctx ~props intermediate ~coarser] computes a coarser cuboid
    from the intermediate without touching base data. Every lattice path
    step from the intermediate's cuboid to [coarser] must be covered
    according to [props]; otherwise [Error] explains which step fails. *)

val rollup_unchecked : Context.t -> t -> coarser:int -> t
(** The same computation without the coverage check — what a system that
    blindly trusts materialised views would do; used by tests to
    demonstrate the §3.6 failure mode. *)

val to_result : t -> Cube_result.t -> unit
(** Copy the intermediate's coded keys and cells into a cube result. The
    result must be over the witness table and key layout the view was
    built on (as {!Engine.Session.result_of_views} guarantees). *)
