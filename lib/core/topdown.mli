(** Top-down cube computation (§3.5) — the XML-ised
    PartitionCube/MemoryCube of Ross & Srivastava.

    Every cuboid computed "from base" on the hash tier sorts its
    qualifying witness rows by group key (§4's in-memory quicksort; the
    paper's external merge sort is not needed, since every page store here
    is in memory) and aggregates in one sweep of the sorted run. A record
    is a (group key, row) pair sorted by key, then row: a group's rows are
    adjacent and ascend, so plain TD removes duplicate facts by skipping a
    row whose fact id repeats the previous row's — the "we need to keep
    track of the identities" cost, one sort per cuboid: the exponential
    number of sorts of §4.1 — and every mode adds a group's measures in
    table order. Every cuboid is computed on the calling domain, one at a
    time.

    Variants:
    - [`Plain] (TD): correct always; sorts with fact ids, dedups.
    - [`Opt] (TDOPT): assumes disjointness globally — no dedup; wrong when
      disjointness fails.
    - [`OptAll] (TDOPTALL): assumes disjointness and coverage globally —
      only the rigid cuboid touches base data; every other cuboid is rolled
      up from a one-step-finer cuboid's cells, never re-reading the input.
      Wrong when either property fails.
    - [`Custom props] (TDCUST, §4.5): rolls a cuboid up from a finer one
      only across lattice edges whose coverage is proven and whose finer
      cuboid is provably disjoint; otherwise recomputes from base (with
      dedup unless the cuboid itself is provably disjoint). Correct
      always. *)

type variant =
  [ `Plain | `Opt | `OptAll | `Custom of X3_lattice.Properties.t ]

val compute : variant:variant -> Context.t -> Cube_result.t

(** {1 Per-cuboid steps}, which serve views ({!Materialized}) share *)

type mode = [ `Dedup | `Raw | `Representative ]
(** A base step's treatment of a fact's rows: deduplicate its id per
    group, count every qualifying row, or count representative rows. *)

val custom_mode : X3_lattice.Properties.t -> int -> mode
(** TDCUST's: [`Representative] for a provably disjoint cuboid, else
    [`Dedup]. *)

val compute_from_base :
  Context.t -> mode:mode -> int -> Aggregate.cell Group_key.Tbl.t -> unit
(** One cuboid from the context's columns into its cell table: radix
    Direct/Partitioned where the cuboid's key shape allows, else one
    in-memory array of (key, row) records, quicksorted and swept. Counts
    into the context's instrument and checkpoints every row. *)

val rollup :
  Context.t ->
  finer:int ->
  Aggregate.cell Group_key.Tbl.t ->
  coarser:int ->
  Aggregate.cell Group_key.Tbl.t ->
  unit
(** Merge [finer]'s cells into [coarser]'s table under projected keys.
    Exact only where {!X3_lattice.Properties.rollup_refusal} admits. *)
