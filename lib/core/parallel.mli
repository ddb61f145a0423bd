(** Deterministic domain-parallel execution for COUNTER.

    The parallel plan is the classic partition/merge of Gray et al.'s
    relational cube work: partition the input into per-worker slices, give
    each worker private scratch state, aggregate each slice independently,
    then merge the partials in worker order. {!run} supplies the
    partitioning and lifecycle; the algorithms supply the per-worker state
    and the merge.

    Task indices are split into {e contiguous static ranges} (worker [w] of
    [n] gets [\[w*tasks/n, (w+1)*tasks/n)]), not stolen dynamically: the
    task→worker mapping — and therefore every merge order — is a pure
    function of [(workers, tasks)], which is what makes runs byte-identical
    at every worker count.

    COUNTER runs this plan over its fact blocks at every worker count;
    there is no separate sequential implementation. One worker is the
    only sequential path: {!run} then runs everything inline on the
    calling domain. Worker 0 always runs on the calling domain, so COUNTER
    gives it the duty only that domain may carry: polling for stops. The
    other families do not use this module: they are serial at any worker
    count. *)

val auto_workers : int
(** The conventional "pick for me" worker count (0): {!resolve} maps it to
    {!recommended}. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count] — the hardware's useful parallelism. *)

val resolve : int -> int
(** [resolve w] is [w] for positive [w], {!recommended} for
    {!auto_workers} (or any non-positive value). *)

val run :
  workers:int ->
  tasks:int ->
  init:(int -> 's) ->
  body:('s -> int -> unit) ->
  's array
(** [run ~workers ~tasks ~init ~body] executes [body state i] for every task
    index [0 <= i < tasks], each worker running its contiguous range in
    ascending order against its own [init w] state, and returns the states
    in worker order for merging. At most [min workers tasks] domains run.
    Worker 0 is the calling domain; with one effective worker everything
    happens inline there (no spawn, no [worker] span). An exception from
    any worker is re-raised after all domains are joined. *)
