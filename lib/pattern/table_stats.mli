(** Witness-table statistics.

    Summarises a materialised witness table the way a query optimiser (or
    the `x3 analyze` command) wants to see it: per axis, how many facts
    bind at all, how often bindings repeat, and how the validity bitsets
    distribute over the axis's relaxation states — the empirical shadow of
    the §3.2 summarizability properties. *)

type axis_stats = {
  axis_name : string;
  facts_bound : int;  (** facts with at least one binding *)
  facts_unbound : int;  (** facts contributing a [None] cell *)
  facts_multi : int;  (** facts with 2+ bindings (disjointness threats) *)
  max_bindings : int;
  state_matches : int array;
      (** index [s]: facts with a binding valid at structural state [s] *)
}

type t = {
  rows : int;
  facts : int;
  max_rows_per_fact : int;
  axes : axis_stats array;
}

val compute : Witness.t -> t
(** One scan, into the table's columnar view. *)

val pp : Format.formatter -> t -> unit
