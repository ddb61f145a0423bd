(** Bottom-up cube computation (§3.4) — the XML-ised, non-collapsing
    BottomUpCube of Beyer & Ramakrishnan.

    Starting from the most relaxed cuboid, the witness-row set is
    recursively restricted: pick the next axis, pick one of its structural
    states, keep the rows whose binding is valid at that state, partition
    them by grouping value (quicksort, as the paper configures), and
    recurse. Because disjointness may fail, the "partitions" may overlap —
    a fact's rows can land in several value partitions and appear several
    times within one partition, so plain BUC deduplicates fact ids when
    aggregating. A fact's rows form one fact block, so the dedup needs no
    per-cell set: the run owns an [int] stamp per fact block (booked with
    the context's governor) and each cell bumps a generation — a block
    counts once, when its stamp is behind. The aggregation loop allocates
    nothing per row. The recursion runs on the calling domain.

    Variants:
    - [`Plain] (BUC): correct always; tracks fact ids.
    - [`Opt] (BUCOPT): assumes disjointness globally and counts rows —
      cheaper, but silently wrong when disjointness fails (§4.3 measures it
      anyway).
    - [`Custom props] (BUCCUST, §4.5): consults the per-cuboid property
      oracle and counts rows exactly where disjointness is known to hold,
      staying correct at BUC's price only where necessary. *)

type variant = [ `Plain | `Opt | `Custom of X3_lattice.Properties.t ]

val compute : variant:variant -> Context.t -> Cube_result.t
