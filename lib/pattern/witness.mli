(** Witness tables: the materialised input of every cube algorithm.

    §4 of the paper: "we pre-evaluated the query tree pattern, and
    materialized the results into a file. The file was then read in and the
    cubing was performed." A witness table is that file: one row per match
    of the most relaxed fully instantiated pattern, carrying the fact id,
    and per axis the grouping value together with a {e validity bitset}
    recording at which structural states of that axis the binding matches
    (bit [s] set means the binding is a legal match when exactly the
    relaxations in state [s] are applied).

    Dimension values are {e dictionary-encoded}: each axis owns an
    in-memory intern table assigning dense integer ids to the distinct
    strings bound on it, and witness cells store those ids. The cube
    algorithms group on packed integers (see [X3_core.Group_key]); strings
    are only rebuilt at the export boundary.

    The file holds {e row-group records} on its heap pages: each record
    carries the consecutive rows [\[start, start + count)] column by
    column — the fact column, then per axis a 32-bit id column and a tag
    byte column — sized to fit one page. Reading the table copies those
    columns into the {!Columnar} view.

    A row whose cell has [id = null_id] has no binding for that axis even
    in the most relaxed state — the fact participates only in cuboids where
    the axis is LND-removed (this is exactly how incomplete coverage enters
    the data).

    Rows of the same fact are contiguous, which the counter-based algorithm
    relies on to form per-fact combination blocks. *)

(** {1 Per-axis value dictionaries} *)

module Dict : sig
  type t

  val create : unit -> t
  val size : t -> int

  val intern : t -> string -> int
  (** Id of [s], assigning the next dense id on first sight. *)

  val find : t -> string -> int option
  val value : t -> int -> string
  (** Raises [Invalid_argument] when the id is out of range. *)

  val iter : (int -> string -> unit) -> t -> unit
  (** In ascending id order. *)

  val compare_value : string -> string -> int
  (** The export order of values: by the low byte of the length, then by
      the rest of the length, then bytewise. *)

  val ranks : t -> int array
  (** [(ranks t).(id)] is the position of value [id] among the
      dictionary's values under {!compare_value}, so comparing ranks
      compares values. Memoised on the dictionary and recomputed only
      after it has grown; the array must not be mutated. *)
end

(** {1 Coded rows} *)

type cell = {
  id : int;  (** per-axis dictionary id, or {!null_id} when unbound *)
  validity : int;
  first : bool;
      (** is this the fact's first binding of the axis (document order)?
          Null cells are trivially [first]. A row {e represents} a fact
          in a cuboid iff every present axis is valid at the cuboid's state
          and every LND-removed axis holds a first binding — the canonical
          representative that keeps the cartesian blow-up of repeated
          bindings on removed axes from double-counting a fact. *)
}

type row = { fact : int; cells : cell array }

val null_id : int
(** The id of an unbound cell; always negative. *)

(** Rows as produced by the pattern evaluators, before interning: cells
    still carry the bound strings. {!materialize} interns them. *)
module Staged : sig
  type cell = { value : string option; validity : int; first : bool }
  type row = { fact : int; cells : cell array }
end

(** {1 Tables} *)

type t
(** A witness table materialised into one heap file of row-group records,
    plus its in-memory value dictionaries. *)

val materialize :
  X3_storage.Buffer_pool.t -> axes:Axis.t array -> Staged.row Seq.t -> t
(** Intern every staged row and write the coded rows as row-group
    records, each as many rows as one page holds. Raises
    [Invalid_argument] when one row does not fit a page. *)

val append : t -> Staged.row list -> row list
(** The ingest path: intern one batch of staged rows and write them as
    tail row-group records, growing the dictionaries in place — no
    rebuild. The coded rows are returned in append order so a
    delta-maintenance layer can patch views without rescanning. The
    batch's fact ids must be {e fresh} (no fact already in the table) and
    rows of one fact contiguous. *)

val axes : t -> Axis.t array
val dicts : t -> Dict.t array
val dict : t -> int -> Dict.t
val dict_sizes : t -> int array
val total_dict_size : t -> int
(** Sum of distinct values across all axes. *)

val value : t -> axis_index:int -> int -> string
val cell_value : t -> axis_index:int -> cell -> string option
(** Decode a cell back to its bound string ([None] for null cells). *)

val row_count : t -> int
val fact_count : t -> int
(** Number of distinct facts (rows of one fact are contiguous). *)

val page_count : t -> int
val pool : t -> X3_storage.Buffer_pool.t

val approx_bytes : t -> int
(** Estimated resident floor of the table: the buffer-pool frames its
    pages occupy plus the in-memory value dictionaries. The byte-budget
    governor reserves this at query start — a budget that cannot hold the
    input cannot run the query. *)

val to_list : t -> row list
(** The rows of {!columnar_of_table}, boxed. *)

val pp_row : Format.formatter -> row -> unit

(** {1 Column-major view}

    The same table transposed into unboxed columns: per axis one [int32]
    id column and one byte tag column (validity in bits 0-6, the
    first-binding flag in bit 7) — a row-group record's columns, copied
    out of its pages — plus plain int arrays for fact ids and fact-block
    geometry. Every cube algorithm,
    materialised view, observed property and table statistic reads the
    table in this form. A column set's rows never change once built, so
    the parallel algorithms share them across domains; the radix grouping
    kernels read the raw columns directly. *)

module Columnar : sig
  type int32_col =
    (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  type tag_col =
    (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t

  val axes : t -> int
  val rows : t -> int
  val blocks : t -> int
  (** Fact blocks (rows of one fact are contiguous). *)

  val fact : t -> int -> int
  val block_of_row : t -> int -> int
  val block_lo : t -> int -> int
  val block_hi : t -> int -> int
  (** Inclusive row range of one fact block. *)

  val ids : t -> int -> int32_col
  val tags : t -> int -> tag_col
  (** The raw column of one axis — for kernels that hoist the array out of
      their row loop. Ids are {!null_id} for unbound cells. *)

  val id : t -> axis:int -> row:int -> int
  val tag : t -> axis:int -> row:int -> int
  val validity : t -> axis:int -> row:int -> int
  val first : t -> axis:int -> row:int -> bool
  val qualifies : t -> axis:int -> row:int -> state:int -> bool

  val approx_bytes : axes:int -> rows:int -> blocks:int -> int
  (** Resident footprint of the columns — what the governor books when a
      context columnarises its table. *)

  module Builder : sig
    type cols = t
    type t

    val create : axes:int -> rows:int -> t
    val add : t -> row -> unit
    (** Rows must arrive in table order (same-fact rows contiguous). *)

    val finish : t -> cols
    (** Raises [Invalid_argument] unless exactly [rows] rows were added. *)
  end

  val extend : t -> row list -> t
  (** A column set holding the old rows plus [added] as a tail chunk with
      extended fenced block offsets — the ingest path's alternative to a
      full rebuild. The newest version of a column set appends into spare
      room in place (the old version still reads only its own rows);
      otherwise the rows are bulk-copied into buffers with an eighth to
      spare, which [approx_bytes] does not count. The tail's facts must
      be fresh; raises [Invalid_argument] when the first added row
      continues the table's last fact block. *)
end

val columnar_of_table : ?poll:(unit -> unit) -> t -> Columnar.t
(** The table's one reader: a pass over the heap pages copying each
    row-group record's columns in, calling [poll] before each row. The
    caller owns instrumentation and fault handling of the scan; see
    [X3_core.Context.cols] for the instrumented form the algorithms use,
    whose [poll] is its cancellation checkpoint. *)

