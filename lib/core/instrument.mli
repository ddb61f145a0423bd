(** Per-run algorithm counters.

    Wall-clock comparisons across machines are noisy; these counters pin
    down {e why} an algorithm is slow in exactly the terms §3 argues in:
    how often the base table was re-scanned, how much sorting happened, how
    many counters were live, how many cuboids could be rolled up from finer
    aggregates versus recomputed from base data. *)

type t = {
  mutable table_scans : int;  (** full passes over the witness table *)
  mutable rows_scanned : int;
  mutable sort_ops : int;
      (** in-memory sorts: TD's hash-tier cuboids and BUC's partition
          sorts *)
  mutable rows_sorted : int;
  mutable passes : int;  (** COUNTER memory passes *)
  mutable peak_counters : int;  (** max simultaneously-live group counters *)
  mutable rollups : int;  (** cuboids computed from a finer cuboid's cells *)
  mutable base_computations : int;  (** cuboids computed from base data *)
  mutable dedup_tracked : int;  (** fact ids tracked for duplicate removal *)
  mutable keys_built : int;  (** group keys assembled from rows *)
  mutable dict_size : int;  (** distinct dictionary values across axes *)
  mutable radix_groupings : int;
      (** cuboid groupings served by a radix kernel (direct or partitioned) *)
  mutable hash_groupings : int;
      (** cuboid groupings served by the hash / sort fallback *)
  mutable radix_scratch_bytes : int;
      (** peak bytes of radix scratch (slot arrays, partition buffers) live
          at once *)
}

val create : unit -> t

val bump_radix_scratch : t -> int -> unit
(** Record a radix-scratch high-water mark: raises [radix_scratch_bytes]
    to [bytes] when it is the new peak. *)

val pp : Format.formatter -> t -> unit
