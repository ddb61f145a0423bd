(** Group keys.

    A group within a cuboid is identified by the values of the cuboid's
    present axes, in axis order. Since the witness table dictionary-encodes
    its dimension values, a group key is the tuple of per-axis dictionary
    ids — packed into the bit fields of a single tagged int when the axis
    widths fit ({!layout.packed_fits}), or an int array otherwise. The
    algorithms build keys through a reusable {!scratch} (allocation-free
    for already-seen groups), hash them with the specialised {!Tbl}, and
    re-key between cuboids with {!project} (a mask on the packed form).

    Outside the algorithms — lookups, pivot, export and view snapshots —
    a group is its decoded value list (one string per present axis, axis
    order, any length), mapped to and from coded keys through the
    dictionaries by {!of_parts} / {!to_parts}. *)

(** {1 Packed integer keys — the algorithms' working form} *)

type t = Packed of int | Wide of int array
(** [Packed] when every axis field fits the 62-bit budget; [Wide] holds one
    id per axis (0 at removed axes). Keys of the same table and cuboid
    always share a constructor, so mixed comparisons never arise in use. *)

type layout = {
  widths : int array;  (** bits per axis, from the dictionary sizes *)
  offsets : int array;  (** bit offset of each axis's packed field *)
  total_bits : int;
  packed_fits : bool;
}

val layout_of_sizes : int array -> layout
val layout_of_table : X3_pattern.Witness.t -> layout

val bits_for : int -> int
(** Bits needed to hold ids [0 .. n-1]; 0 for empty or singleton
    dictionaries. *)

(** {2 Scratch: the allocation-free row → key path} *)

type scratch

val make_scratch : layout -> scratch

val load_cols :
  scratch ->
  X3_lattice.Cuboid.t ->
  X3_pattern.Witness.Columnar.t ->
  row:int ->
  unit
(** Assemble the key of row index [row] under the cuboid into the
    scratch, from the columnar view's id columns. Raises
    [Invalid_argument] if a present axis is unbound (the row does not
    qualify). *)

val freeze : scratch -> t
(** An immutable key from the scratch's current contents (copies the id
    array in the wide case). *)

(** {2 Keys without rows} *)

val of_axis_ids : layout -> X3_lattice.Cuboid.t -> int array -> t
(** Key from one id per axis (entries at removed axes are ignored). Raises
    [Invalid_argument] on a negative id at a present axis. *)

val id_at : layout -> t -> axis:int -> int
(** The dictionary id stored for [axis] (0 for removed axes). *)

val project : layout -> to_:X3_lattice.Cuboid.t -> t -> t
(** Re-key to a coarser cuboid: zero the fields of axes [to_] removes. A
    bit mask on packed keys. *)

(** {2 The dictionary boundary} *)

val of_parts :
  layout ->
  dicts:X3_pattern.Witness.Dict.t array ->
  X3_lattice.Cuboid.t ->
  string list ->
  t option
(** Coded key of a decoded value list (one string per present axis, axis
    order). [None] when some value is not in its axis dictionary — no group
    with that key exists. Raises [Invalid_argument] on arity mismatch. *)

val to_parts :
  layout ->
  dicts:X3_pattern.Witness.Dict.t array ->
  X3_lattice.Cuboid.t ->
  t ->
  string list
(** Decode back to the present axes' values, in axis order. *)

(** {2 Serialisation for the external sort} *)

val to_sortable : t -> string
(** Fixed-width big-endian form: [String.compare] over sortable forms is a
    total order grouping equal keys — what the sort-based algorithm
    needs. *)

val of_sortable : layout -> string -> t
(** Raises [Invalid_argument] on malformed input. *)

(** {2 Order and hashing} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

(** {1 Specialised hash table over coded keys}

    Open addressing with linear probing over a power-of-two slot array.
    Lookups can be keyed by a {!scratch} directly, so the hot row → group
    path allocates nothing for groups already present. *)

module Tbl : sig
  type key = t
  type 'a t

  val create : int -> 'a t
  val length : 'a t -> int
  val find_opt : 'a t -> key -> 'a option
  val replace : 'a t -> key -> 'a -> unit

  val find_or_add : 'a t -> scratch -> default:(unit -> 'a) -> 'a
  (** The value under the scratch's key, inserting [default ()] (and
      freezing the scratch) on first sight. *)

  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end

(** {1 Generation-stamped membership set}

    Per-fact-block deduplication: {!Seen.reset} is a generation bump, so
    clearing between thousands of tiny blocks costs nothing. Entries from
    past generations are a reuse cache, not members; {!Seen.reset} compacts
    the table once stale entries dominate, so the set's footprint tracks
    the widest single generation rather than every distinct key a long
    scan ever produced. *)

module Seen : sig
  type t

  val create : unit -> t
  val reset : t -> unit

  val add : t -> scratch -> bool
  (** [true] iff the scratch's key was not yet a member this generation;
      always marks it. *)

  val table_size : t -> int
  (** Entries currently cached (all generations) — what compaction
      bounds. *)
end
