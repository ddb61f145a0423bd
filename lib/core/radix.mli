(** Radix grouping kernels over the columnar witness layout.

    A cuboid's compact key domain is the concatenation of its present
    axes' dictionary-id fields. When that domain is small the group table
    is a dense unboxed slot array (no hashing, no per-row allocation);
    when it is moderate, rows are radix-partitioned on the key's high
    bits and each partition aggregates densely; beyond [radix_bits] (or
    when keys do not pack into one int) the algorithms fall back to the
    {!Group_key.Tbl} hash path.

    Strategy selection is a pure function of (layout, cuboid,
    radix_bits) — never of budgets or worker counts — so a run's
    strategies, and therefore its [cube.*] counters, are identical at any
    parallelism. *)

type strategy = Direct | Partitioned | Hash

val strategy_name : strategy -> string
(** ["radix-direct"], ["radix-partition"], ["hash"] — the values shown
    in [x3 explain]'s grouping column. *)

val direct_bits_cap : int
(** Slot-array ceiling (12): one direct accumulator never exceeds
    ~40 B × 2^12. *)

val default_radix_bits : int
(** The default selection threshold (20). [radix_bits = 0] disables the
    radix tiers entirely — the hash side of the bench A/B. *)

type plan = {
  p_cuboid : X3_lattice.State.t array;
  p_present : int array;
  p_masks : int array;
  p_shifts : int array;
  p_widths : int array;
  p_bits : int;
  p_low_bits : int;
  p_strategy : strategy;
}

val plan :
  layout:Group_key.layout -> radix_bits:int -> X3_lattice.State.t array -> plan

val key_of_compact : plan -> Group_key.layout -> int -> Group_key.t
(** The canonical group key of a compact key (re-spreads the compact
    fields onto the layout's own offsets). *)

(** {1 Cursors — per-row qualification and compact keys}

    Both per-row functions allocate nothing. *)

type cursor

val cursor : plan -> X3_pattern.Witness.Columnar.t -> cursor

val key : cursor -> int -> int
(** Compact key of a row index, or [-1] when some present axis is unbound
    or invalid at the cuboid's state (the row does not qualify). *)

val first_on_removed : cursor -> int -> bool
(** Does the row hold the fact's first binding on every removed axis —
    together with [key _ >= 0] this is [X3_lattice.Cuboid.represents]. *)

(** {1 Direct accumulator} *)

type acc

val acc_bytes : plan -> int
(** Scratch bytes one accumulator pins — reserve before {!acc_create}. *)

val acc_create : plan -> acc
val acc_occupied : acc -> int
(** Occupied slots = live group counters (what [Group_key.Tbl.length] is
    on the hash path). *)

val acc_add : acc -> slot:int -> mark:int -> float -> bool
(** Deduplicated add: at most one contribution per (mark, slot), where
    [mark] is a fact-block index or fact id — sound because a fact's rows
    are contiguous. Returns [true] when the slot became occupied. *)

val acc_add_raw : acc -> slot:int -> float -> bool
(** Add without deduplication (TDOPT-style raw counting). *)

val acc_flush : acc -> f:(int -> Aggregate.cell -> unit) -> unit
(** Occupied slots in ascending compact-key order, each as a freshly
    allocated cell. *)

(** {1 Partitioned grouping} *)

val partitioned_bytes : plan -> rows:int -> int

val partitioned :
  plan ->
  rows:int ->
  key:(int -> int) ->
  fact:(int -> int) ->
  measure:(int -> float) ->
  dedup:bool ->
  emit:(int -> Aggregate.cell -> unit) ->
  unit
(** Stable counting-sort scatter on the key's high bits, then dense
    per-partition aggregation over the low bits. [key r < 0] skips row
    [r]; [emit] receives groups in ascending compact-key order. *)

(** {1 Stable counting sort}

    BUC's partition step on a small dictionary: O(n), stable, and the
    resulting permutation is a pure function of the input order. *)

val counting_sort_bits_cap : int

val counting_sort : id:(int -> int) -> size:int -> int array -> unit
(** Sort row indices by [id] (each in [0, size)), stably, in place. *)
