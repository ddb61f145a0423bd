(** A computed cube: one aggregate cell per (cuboid, group).

    Cells live under coded integer keys ({!Group_key.t}) — the algorithms
    never touch strings. The value half of this interface translates
    through the witness table's dictionaries, so export, pivot and tests
    exchange a group as the decoded values of its cuboid's present axes,
    in axis order. *)

type t

val create : table:X3_pattern.Witness.t -> X3_lattice.Lattice.t -> t
(** The table supplies the dictionaries (and so the key shapes) that the
    cube's coded keys are relative to. *)

val lattice : t -> X3_lattice.Lattice.t
val table : t -> X3_pattern.Witness.t

val shape : t -> int -> Group_key.shape
(** A cuboid's key shape, by cuboid id. *)

(** {1 Coded access — the algorithms' hot path} *)

val cell : t -> cuboid:int -> key:Group_key.t -> Aggregate.cell
(** Find-or-create the cell of a group. *)

val cell_scratch : t -> cuboid:int -> Group_key.scratch -> Aggregate.cell
(** Find-or-create keyed by a scratch: allocation-free when the group
    already exists. *)

val cuboid_table : t -> int -> Aggregate.cell Group_key.Tbl.t
(** One cuboid's cell table itself, for the per-cuboid kernels. *)

val find_coded : t -> cuboid:int -> key:Group_key.t -> Aggregate.cell option

val set_cell : t -> cuboid:int -> key:Group_key.t -> Aggregate.cell -> unit
(** Install a cell wholesale (used by roll-up computation). *)

val iter_cuboid : t -> int -> (Group_key.t -> Aggregate.cell -> unit) -> unit

val cuboid_size : t -> int -> int

val total_cells : t -> int
(** The paper's "cube result size" — cells summed over all cuboids. *)

(** {1 Value access — decoded groups} *)

val find : t -> cuboid:int -> key:string list -> Aggregate.cell option
(** [key] is the group's values, one per present axis in axis order.
    [None] when some value never occurs on its axis, or the group does
    not exist. *)

val cuboid_cells : t -> int -> (string array * Aggregate.cell) list
(** Groups of one cuboid with their present-axis values (axis order), in
    export order ({!Group_key.sorted}). Dictionary ids are decoded here,
    once per group. *)

val equal : func:Aggregate.func -> t -> t -> bool
(** Same groups with the same aggregate values in every cuboid. Keys are
    compared by decoded value, so the cubes may come from separately
    materialised tables. *)

val first_difference :
  func:Aggregate.func -> t -> t -> (int * string list * string) option
(** A human-readable witness of inequality: cuboid id, the group's
    values, description. *)

val pp :
  ?max_groups:int -> func:Aggregate.func -> Format.formatter -> t -> unit
