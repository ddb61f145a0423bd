(** Evaluation of the most relaxed fully instantiated pattern (§3.4).

    For each fact match, every axis is evaluated at its most relaxed
    structural state with outer-join semantics (Fig. 2's [*] edges): when no
    binding exists the axis contributes a [None] cell. Each binding is then
    re-checked at every stricter structural state to fill in its validity
    bitset, so that every other cuboid's input is reconstructible as a
    subset of the witness table — the property that makes bottom-up and
    top-down computation possible at all (§3.4, §3.5).

    Bindings are checked bottom-up over the store's arrays: an axis is
    compiled once against a store ({!compile}), a fact's candidates are
    the leaf tag's index range inside the fact, and each candidate is
    walked up through [parent] to the fact at every structural state. *)

type fact_path = Axis.step list
(** Absolute path selecting the fact nodes, e.g. [//publication]. The first
    step's axis is relative to the document root. *)

val facts : X3_xdb.Store.t -> fact_path -> X3_xdb.Store.node list
(** Distinct fact nodes in document order. A one-step [//t] path is the
    tag index itself; longer paths run a twig join. *)

type matcher
(** An axis compiled against one store: its step tags resolved to tag ids
    (a tag the store lacks never matches) and its structural states'
    relaxations laid out per state. It remembers where the last fact's
    candidates started, so facts visited in document order cost the
    distance between them; it is not safe to share between domains. *)

val compile : X3_xdb.Store.t -> Axis.t -> matcher

val validity :
  matcher -> fact:X3_xdb.Store.node -> binding:X3_xdb.Store.node -> int
(** [binding] is a node with the axis's leaf tag strictly inside [fact].
    Its validity bitset (bit [s] = matches when exactly the relaxations
    of structural state [s] apply), or [0] when it does not match at the
    most relaxed state. Allocates nothing. *)

val find :
  matcher ->
  fact:X3_xdb.Store.node ->
  (X3_xdb.Store.node -> bool) ->
  X3_xdb.Store.node option
(** The first binding, in document order, that satisfies the predicate. *)

val axis_bindings :
  X3_xdb.Store.t ->
  Axis.t ->
  fact:X3_xdb.Store.node ->
  (X3_xdb.Store.node * int) list
(** The axis's bindings under [fact] at the most relaxed state, each
    with its {!validity} bitset, in document order. *)

val rows_for_fact :
  X3_xdb.Store.t ->
  Axis.t array ->
  fact:X3_xdb.Store.node ->
  Witness.Staged.row list
(** The cartesian combination of per-axis bindings for one fact ("a
    combinatorial number ... for a single sub-tree", §3.3), [None]-padded
    for axes without bindings. Grouping values are the bindings' string
    values. *)

val build_table :
  ?keep:(X3_xdb.Store.node -> bool) ->
  X3_storage.Buffer_pool.t ->
  X3_xdb.Store.t ->
  fact_path:fact_path ->
  axes:Axis.t array ->
  Witness.t
(** Evaluate and materialise the witness table for a cube specification.
    [keep] filters the fact nodes (a compiled WHERE clause). *)
