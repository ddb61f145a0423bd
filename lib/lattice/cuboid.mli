(** A cuboid: one relaxation state per axis.

    Cuboids are the lattice points of Fig. 3; the rigid cuboid (every axis
    [Present 0]) is the least relaxed, and the cuboid with every axis
    maximally relaxed (LND-removed when permitted) is the most relaxed —
    the single all-facts group when every axis allows LND. *)

type t = State.t array

val equal : t -> t -> bool
val compare : t -> t -> int

val leq : t -> t -> bool
(** Componentwise: [leq a b] iff [a] is at most as relaxed as [b] on every
    axis. *)

val degree : t -> X3_pattern.Axis.t array -> int
(** Total relaxation steps from the rigid cuboid. *)

val rigid : X3_pattern.Axis.t array -> t
val most_relaxed : X3_pattern.Axis.t array -> t

val successors : t -> X3_pattern.Axis.t array -> t list
(** One-step more relaxed cuboids (relax exactly one axis one step). *)

val present_axes : t -> int list
(** Indices of axes that are not LND-removed, ascending. *)

(** {1 Witness rows in a cuboid}

    The two per-row predicates every grouping and observation path
    shares, over the witness table's columnar view. *)

val represents : t -> X3_pattern.Witness.Columnar.t -> row:int -> bool
(** Is row [row] its fact's canonical representative in the cuboid:
    every present axis holds a binding valid at the cuboid's structural
    state, and every LND-removed axis holds the fact's {e first} binding.
    The first-binding condition collapses the cartesian duplicates that
    repeated bindings on removed axes would otherwise create, so a fact
    gets exactly one representative per distinct group key — unless a
    present axis itself repeats, which is precisely the disjointness
    violation of §3.2. *)

val qualifies : t -> X3_pattern.Witness.Columnar.t -> row:int -> bool
(** Validity only: every present axis holds a binding valid at the
    cuboid's state; removed axes are ignored. What raw row counting over
    the materialised (cartesian) table sees. *)

val to_string : X3_pattern.Axis.t array -> t -> string
(** E.g. ["($n:rigid, $p:{PC-AD}, $y:LND)"]. *)
