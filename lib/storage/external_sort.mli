(** Hybrid sorting, exactly as the paper configures it (§4): quicksort for
    in-memory sorts, external merge sort when the input exceeds the memory
    budget.

    An external sort quicksorts budget-sized runs, spills each run to a heap
    file, then merges runs [fanout] at a time until one remains; each merge
    frees its input runs ({!Heap_file.free}), so only the final output holds
    pages when the sort returns. Runs, merge passes and record counts are
    accumulated into the pool's {!Stats.t} — the top-down cube algorithms'
    "exponential number of external sorts" shows up there. *)

val default_fanout : int
(** 64-way merge. *)

val sort_records :
  pool:Buffer_pool.t ->
  budget_records:int ->
  ?fanout:int ->
  compare:(string -> string -> int) ->
  ((string -> unit) -> unit) ->
  Heap_file.t
(** [sort_records ~pool ~budget_records ~compare producer] feeds every
    record passed by [producer] (which is called once with an [emit]
    function) through the sort and returns a heap file in ascending order.
    [budget_records] bounds how many records are resident at once. *)
