(** Summarizability properties over the lattice (§3.2, §3.7).

    Two per-lattice-point facts drive every optimisation in §3:

    - {e disjointness} of a cuboid: no fact contributes more than one
      representative witness row (equivalently: no present axis repeats),
      so a fact sits in exactly one group and group aggregates may count
      rows instead of tracking fact identities;
    - {e coverage} of a lattice edge (finer cuboid → one-step more relaxed
      cuboid): every (fact, group) incidence of the coarser cuboid is
      already present in the finer one, so the coarser aggregate may be
      rolled up from the finer aggregate without touching base data.

    [infer] derives both from a schema, conservatively (unknown ⇒ property
    assumed absent, which only costs performance, never correctness).
    [observe] measures the ground truth on a witness table — used by tests
    to validate [infer]'s soundness and by the workload generators to
    certify their six experimental settings. *)

type t

val infer :
  schema:X3_xml.Schema.t -> fact_tag:string -> Lattice.t -> t
(** Schema-driven inference (§3.7): an axis repeats if some step of its
    (state-relaxed) path is repeatable; a binding can be absent if some
    step is optional; a structural relaxation step preserves coverage only
    if the schema proves it adds no matches (e.g. every path to the leaf
    already goes through its pattern parent). *)

val none : Lattice.t -> t
(** No schema knowledge: every property absent. *)

val exact : Lattice.t -> disjoint:bool -> covered:bool -> t
(** Uniform properties asserted a priori — used by workloads whose
    construction guarantees them. *)

val observe : X3_pattern.Witness.t -> Lattice.t -> t
(** Ground truth measured on a materialised witness table: one decode
    into its columnar view, then {!observe_columns}. *)

val observe_columns : X3_pattern.Witness.Columnar.t -> Lattice.t -> t
(** Ground truth measured on a witness table's columnar view — what a
    session that already holds the columns observes over. *)

val restrict :
  t -> Lattice.t -> X3_pattern.Witness.Columnar.t -> from_block:int -> t
(** AND the fact blocks of [cols] from [from_block] on into previously
    observed truth. Every observed property is a monotone per-fact-block
    conjunction (one more block can falsify disjointness or coverage,
    never restore it), so [restrict (observe_columns cols l) l cols'
    ~from_block:(blocks cols)] equals [observe_columns cols' l] when
    [cols'] is [cols] with blocks appended — the delta-maintenance path's
    property refresh without a rescan. *)

val cuboid_disjoint : t -> int -> bool
(** The paper's notion: no fact occurs in more than one group of the
    cuboid, i.e. no {e present} axis repeats (repeats on LND-removed axes
    are collapsed by representative rows). Licenses the customised
    variants' id-free aggregation and finer-to-coarser roll-up. *)

val edge_covered : t -> finer:int -> coarser:int -> bool
(** [finer] must be a lattice child of [coarser]. *)

type refusal = Not_relaxation | Not_disjoint | Uncovered

val rollup_refusal :
  t -> Lattice.t -> finer:int -> coarser:int -> refusal option
(** TDCUST's roll-up rule (§4.5), which every roll-up from cells obeys:
    [coarser]'s cells are exact as a merge of [finer]'s when [coarser]
    relaxes [finer], [finer] is disjoint (no fact counted twice) and some
    lattice path between them is covered edge by edge (no fact missing).
    [Some] names the first that fails, in that order. *)

val refusal_name : refusal -> string
(** "not_relaxation", "not_disjoint" or "uncovered". *)

val all_disjoint : t -> bool
val all_strictly_disjoint : t -> bool
(** The stronger condition the blindly-optimised variants (BUCOPT, TDOPT,
    TDOPTALL) actually assume when they count raw witness rows: no axis of
    the cube — present {e or} removed — repeats, so the materialised table
    holds exactly one qualifying row per fact. Implies {!all_disjoint}. *)

val all_covered : t -> bool

val axis_multiplicity :
  schema:X3_xml.Schema.t ->
  fact_tag:string ->
  X3_pattern.Axis.t ->
  state:int ->
  X3_xml.Dtd.multiplicity
(** The per-axis schema fact underlying [infer], exposed for testing and
    for the schema-advisor example: can a binding at this structural state
    be absent, and can it repeat, within one fact? *)

val pp_report : Lattice.t -> Format.formatter -> t -> unit
(** Human-readable per-cuboid and per-edge report. *)
