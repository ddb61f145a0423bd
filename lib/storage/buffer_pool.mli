(** A clock (second-chance) buffer pool over {!Disk}.

    All page access in the system goes through a pool; its capacity is the
    knob that models the paper's 512 MB buffer pool over 8 KB pages. A
    workload whose footprint exceeds capacity starts evicting, and the
    {!Stats.t} miss/eviction counters (plus the real re-reads they cause)
    reproduce the thrashing behaviour §4.6 describes for COUNTER.

    Concurrency: none — the engine is single-threaded, as TIMBER's 2007
    experiments were. *)

type t

val create : ?capacity_pages:int -> Disk.t -> t
(** [capacity_pages] defaults to 65536 pages (512 MB of 8 KB pages). *)

val disk : t -> Disk.t
val capacity : t -> int

val allocate : t -> int
(** Allocate a fresh zeroed page, resident and dirty. *)

val with_page : t -> int -> (bytes -> 'a) -> 'a
(** [with_page t id f] runs [f] on the in-pool frame of page [id], reading
    it in if absent. The frame is {e pinned} for the duration of [f]:
    eviction (triggered by other page accesses inside [f]) skips it, so
    the buffer [f] sees cannot be stolen, written back mid-mutation, or
    recycled for another page. The frame must still not escape [f]. A
    callback that pins more distinct pages than the pool has frames
    raises [Failure]. *)

val with_page_mut : t -> int -> (bytes -> 'a) -> 'a
(** Like {!with_page} and marks the page dirty, so eviction writes it
    back (checksummed, on a V1 disk) once the window closes. *)

val flush : t -> unit
(** Write every dirty frame back to disk (kept resident), then
    {!Disk.sync}, the page interface's durability barrier. *)

val drop_cache : t -> unit
(** Flush, then forget every frame — the paper's "cold cache" reset between
    measured runs. *)

val stats : t -> Stats.t
(** Pool-level counters (hits/misses/evictions). Disk transfer counts live
    on [Disk.stats (disk t)]. *)

val resident_pages : t -> int
