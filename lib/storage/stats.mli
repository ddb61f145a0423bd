(** Substrate counters.

    The paper reports cold-cache wall-clock times that bundle I/O and CPU
    work; on different hardware the absolute seconds are meaningless, so
    every storage component also counts the events that drove those times.
    Benchmarks report both. *)

type t = {
  mutable page_reads : int;  (** pages fetched from the disk layer *)
  mutable page_writes : int;  (** pages written back to the disk layer *)
  mutable pages_allocated : int;
  mutable pool_hits : int;  (** buffer-pool lookups served from memory *)
  mutable pool_misses : int;
  mutable evictions : int;
  mutable syncs : int;  (** durability barriers requested ({!Disk.sync}) *)
}

val create : unit -> t
val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val copy : t -> t

val diff : later:t -> earlier:t -> t
(** [diff ~later ~earlier] is the per-field delta — use with two {!copy}
    snapshots of a live counter to attribute substrate work to the query
    that ran between them. *)
