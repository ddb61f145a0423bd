(** Fixed-layout records the top-down algorithms sort in memory
    ({!X3_storage.Quicksort}): an encoded group key, the fact id, and the
    measure.

    The layout ([u16 key length | key | fact | measure]) makes plain
    [String.compare] a grouping order: equal keys are adjacent, and within
    a key records are ordered by fact id — exactly what sorted-sweep
    aggregation with consecutive-duplicate elimination needs. *)

val encode : key:string -> fact:int -> measure:float -> string
val decode : string -> string * int * float
(** Raises [Invalid_argument] on malformed records. *)

val compare : string -> string -> int
(** [String.compare]; exposed for intent. *)
