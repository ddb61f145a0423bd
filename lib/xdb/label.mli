(** Interval node labels, TIMBER-style.

    Each node carries [(start, fin, level)]: [start] is its pre-order rank,
    [fin] the largest rank in its subtree, [level] its depth. Structural
    relationships reduce to integer comparisons: a node's descendants are
    exactly the ranks [start + 1] to [fin]. *)

type t = { start : int; fin : int; level : int }

val is_ancestor : t -> t -> bool
(** [is_ancestor a d]: is [a] a proper ancestor of [d]? *)

val is_parent : t -> t -> bool

val pp : Format.formatter -> t -> unit
