(** A byte-budgeted LRU cache charged to a {!X3_core.Governor.account}.

    Every entry carries its estimated resident bytes (the caller costs it
    via the relevant [approx_bytes]); insertion reserves those bytes on
    the cache's dedicated account and evicts least-recently-used entries
    until the reservation fits — so the cache's footprint is bounded by
    the account's budget and visible in the governor's pool like any
    query's. Eviction calls [on_evict] so the owner can unlink dependent
    entries (a cached document's cuboid views die with it).

    Not thread-safe by itself at the value level, but every operation is
    internally mutex-protected, so concurrent [find]/[insert] from
    connection threads are safe. *)

type 'a t

val create :
  ?on_evict:(string -> 'a -> unit) ->
  ?observe_walk:(seconds:float -> victims:int -> unit) ->
  account:X3_core.Governor.account ->
  unit ->
  'a t
(** [account] should be dedicated to this cache — {!resident_bytes} reads
    it, and eviction releases into it. [on_evict key value] runs after
    the entry has been removed and its bytes released (do not re-insert
    from inside it). [observe_walk] fires after an {!insert} that had to
    evict, with the time spent selecting and detaching victims and their
    count — the owner's hook for an eviction-walk latency histogram.
    Called outside the cache lock, after the deferred [on_evict]
    callbacks have run. *)

val find : 'a t -> string -> 'a option
(** Bumps the entry's recency on hit; counts a hit or a miss. *)

val peek : 'a t -> string -> 'a option
(** The entry's value with no recency bump and no hit/miss accounting —
    an existence probe, or a read that is not a cache use (an ingest
    patching the views it holds). *)

val insert : 'a t -> key:string -> bytes:int -> 'a -> bool
(** Reserve [bytes] (evicting LRU entries as needed) and store the value;
    replaces an existing entry under the same key (releasing its bytes).
    [false] when the value cannot fit even in an empty cache — the entry
    is simply not cached, which is degraded service, not an error. *)

val recharge : 'a t -> key:string -> bytes:int -> bool
(** Re-book a resident entry at [bytes] in place: it keeps its value and
    its recency. A grown entry that no longer fits evicts LRU entries as
    {!insert} does; when it is itself the least recently used, it is
    evicted instead and [recharge] returns [false]. [false] too when the
    key is absent. *)

val remove : 'a t -> string -> unit
(** Drop one entry (releasing its bytes, firing [on_evict]); no-op when
    absent. Not an eviction: {!evictions} counts only the entries an
    {!insert} or {!recharge} gave up to the budget. *)

val snapshot : 'a t -> (string * 'a * int) list
(** Every resident entry as [(key, value, bytes)], least recently used
    first — replaying the list through {!insert} reconstructs the same
    recency order.  No recency bump, no hit/miss accounting; the
    warm-restart snapshot reads the cache without disturbing it. *)

val entries : 'a t -> int
val resident_bytes : 'a t -> int
val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int
(** Budget victims so far. *)
