(** Group keys, one shape per cuboid.

    A group within a cuboid is identified by the values of the cuboid's
    present axes, in axis order. Since the witness table dictionary-encodes
    its dimension values, a group key is the tuple of those axes' dictionary
    ids. Each cuboid has one {!shape}, built once from the table's per-axis
    widths: when the cuboid's own fields fit 62 bits its keys are [Packed],
    the fields concatenated at the shape's compact shifts — exactly the key
    the {!Radix} kernels compute, so a radix slot is a key; otherwise they
    are [Wide], the present ids as an array. The algorithms load keys into
    a reusable {!scratch} ({!Radix.load}, allocation-free for already-seen
    groups), hash them with the specialised {!Tbl}, and re-key along a
    lattice edge with {!project}.

    Outside the algorithms — lookups, pivot, export and view snapshots —
    a group is its decoded value list (one string per present axis, axis
    order, any length), mapped to and from coded keys through the
    dictionaries by {!of_parts} / {!to_parts}. *)

(** {1 Coded keys — the algorithms' working form} *)

type t = Packed of int | Wide of int array
(** [Packed] holds the compact key of a cuboid whose present-axis widths
    sum to at most 62 bits; [Wide] holds the present axes' ids, in axis
    order, for every other cuboid. A cuboid's keys always share a
    constructor. *)

type shape = {
  cuboid : X3_lattice.State.t array;
  present : int array;  (** axes the cuboid keeps, ascending *)
  widths : int array;  (** bits per present axis *)
  shifts : int array;  (** compact bit offset per present axis *)
  bits : int;  (** sum of [widths] *)
  packed : bool;  (** [bits <= 62]: keys are [Packed] *)
}

val bits_for : int -> int
(** Bits needed to hold ids [0 .. n-1]; 0 for empty or singleton
    dictionaries. *)

val widths_of_table : X3_pattern.Witness.t -> int array
(** [bits_for] of each axis dictionary's size, axis order. *)

val shape : widths:int array -> X3_lattice.Cuboid.t -> shape

val shapes : widths:int array -> X3_lattice.Lattice.t -> shape array
(** Every cuboid's shape, by cuboid id. *)

(** {2 Scratch: the allocation-free row → key path} *)

type scratch

val make_scratch : shape -> scratch

val set_packed : scratch -> int -> unit
(** Load a packed shape's compact key. *)

val set_field : scratch -> int -> int -> unit
(** [set_field s j id] loads a wide shape's [j]th present id. *)

val freeze : scratch -> t
(** An immutable key from the scratch's current contents (copies the id
    array in the wide case). *)

(** {2 Keys without rows} *)

val of_axis_ids : shape -> int array -> t
(** Key from one id per axis (entries at removed axes are ignored). Raises
    [Invalid_argument] on a negative id at a present axis. *)

val field : shape -> t -> int -> int
(** [field s key j] is the dictionary id of the [j]th present axis. *)

type edge
(** A lattice edge's shift table, from a finer cuboid's fields to a
    coarser one's. *)

val edge : finer:shape -> coarser:shape -> edge
(** Raises [Invalid_argument] when [coarser] keeps an axis [finer]
    removes. *)

val project : edge -> t -> t
(** Re-key a finer cuboid's key to the coarser cuboid of the edge. *)

(** {2 The dictionary boundary} *)

val of_parts :
  shape -> dicts:X3_pattern.Witness.Dict.t array -> string list -> t option
(** Coded key of a decoded value list (one string per present axis, axis
    order). [None] when some value is not in its axis dictionary — no group
    with that key exists. Raises [Invalid_argument] on arity mismatch. *)

val to_parts :
  shape -> dicts:X3_pattern.Witness.Dict.t array -> t -> string list
(** Decode back to the present axes' values, in axis order. *)

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

  type 'a entry
  (** One key's place in a table. It reads the key's current value: a
      {!replace} of that key shows through a held entry. *)

  val entry_key : 'a entry -> key
  val entry_value : 'a entry -> 'a
end

(** {1 Export order} *)

val sorted :
  shape -> dicts:X3_pattern.Witness.Dict.t array -> 'a Tbl.t -> 'a Tbl.entry array
(** One cuboid's entries in the order every export prints them: by the
    decoded value of each present axis in axis order, under
    {!X3_pattern.Witness.Dict.compare_value} (the smaller low length byte
    first, then the rest of the length, then bytewise). The comparison
    reads each dictionary's memoised ranks, packed into as few 62-bit
    words a group as hold them, so nothing is decoded. The
    order stays valid while no key is added: a replaced value shows
    through its entry, and a grown dictionary keeps its old values'
    relative order. The one sort behind {!Cube_result.cuboid_cells} and
    {!Materialized.order}. *)

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
