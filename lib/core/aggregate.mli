(** Aggregate functions over groups of facts.

    The paper evaluates COUNT and notes other distributive (SUM, MIN, MAX)
    and algebraic (AVG) operators behave similarly; we implement all five.
    One mutable cell accumulates enough state to answer any of them, and
    cells merge associatively, which is what top-down roll-up needs. *)

type func = Count | Sum | Avg | Min | Max

val func_to_string : func -> string
val func_of_string : string -> func option

type cell = {
  mutable n : float;
      (** number of contributing facts — a float, so that the all-float
          record is stored flat and updates allocate nothing *)
  mutable total : float;
  mutable low : float;
  mutable high : float;
}

val create : unit -> cell
val add : cell -> float -> unit
(** Fold one fact's measure into the cell. *)

val merge : into:cell -> cell -> unit
(** Associative and commutative; the identity is a fresh cell. *)

val copy : cell -> cell

val value : func -> cell -> float
(** [value Avg cell] on an empty cell is [nan]; [Min]/[Max] likewise. *)

val equal_value : func -> cell -> cell -> bool
(** Compare the answers of two cells under [func] with a small relative
    tolerance for float accumulation order. *)

val float_repr : float -> string
(** The spelling every printer (CSV, JSON, table, pivot) gives a value:
    an integral value below 1e15 as an integer ([-0] for negative zero),
    any other finite value in the first of [%.15g], [%.16g] and [%.17g]
    that reads back to the same bits, [nan] and the infinities as [%g]
    prints them. *)

val pp : func -> Format.formatter -> cell -> unit
(** [FUNC=value], the value as {!float_repr} spells it. *)
