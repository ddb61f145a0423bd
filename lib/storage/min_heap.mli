(** A binary min-heap, used for N-way run merging in {!External_sort}. *)

type 'a t

val create : compare:('a -> 'a -> int) -> 'a t
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the minimum. *)
