(** Radix grouping kernels over the columnar witness layout.

    A cuboid's packed key ({!Group_key.shape}) concatenates its present
    axes' dictionary-id fields, and that compact domain is the group
    table's index: when it is small the table is a dense unboxed slot
    array (no hashing, no per-row allocation); when it is moderate, rows
    are radix-partitioned on the key's high bits and each partition
    aggregates densely; beyond [radix_bits] the algorithms fall back to
    the {!Group_key.Tbl} hash path. A slot's index is its group's
    [Group_key.Packed] key, so results need no re-keying.

    Strategy selection is a pure function of (shape, radix_bits) — never
    of budgets — so a run's strategies, and therefore its [cube.*]
    counters, are identical on every run. *)

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
  p_shape : Group_key.shape;
  p_low_bits : int;  (** slot-array bits *)
  p_strategy : strategy;
}

val plan : radix_bits:int -> Group_key.shape -> plan
(** [Hash] exactly when the cuboid's own bits exceed [radix_bits] (or
    its keys are wide, past 62 bits). *)

(** {1 Cursors — per-row qualification and compact keys}

    The per-row functions allocate nothing. *)

type cursor

val cursor : Group_key.shape -> X3_pattern.Witness.Columnar.t -> cursor

val key : cursor -> int -> int
(** Compact key of a row index, or [-1] when some present axis is unbound
    or invalid at the cuboid's state (the row does not qualify). Packed
    shapes only. *)

val load : cursor -> Group_key.scratch -> int -> bool
(** Qualify a row index and load its key into a scratch of the cursor's
    shape — the hash tier's row path, packed or wide. [false] when the
    row does not qualify. *)

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
