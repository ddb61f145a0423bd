(** In-place quicksort.

    The paper fixes its in-memory sort to quicksort (§4), so we use our own
    rather than the stdlib's heapsort: median-of-three pivoting, three-way
    partitioning (group-key inputs carry long runs of equal keys, on which
    two-way quicksort degrades quadratically), insertion sort below a small
    cutoff, and recursion on the smaller side only, so the stack stays
    logarithmic even on adversarial inputs. Not stable: a caller that needs
    equal keys in input order breaks ties itself (BUC and TD compare the
    row index last). *)

val sort : compare:('a -> 'a -> int) -> 'a array -> unit

val sort_sub : compare:('a -> 'a -> int) -> 'a array -> pos:int -> len:int -> unit
(** Sort the slice [pos, pos+len). *)
