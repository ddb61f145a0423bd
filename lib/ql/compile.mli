(** Compilation of a parsed X³ query into an executable {!X3_core.Engine}
    specification.

    Semantic checks performed here: the first [for] binding must range over
    a document and defines the fact variable; every subsequent binding must
    be rooted at the fact variable; every axis named after [by] must be a
    bound variable; the aggregate function must be known and its argument
    must be the fact variable. *)

type compiled = {
  document : string;  (** the file named by [doc(...)] *)
  spec : X3_core.Engine.spec;
}

val compile : Ast.t -> (compiled, string) result

val parse_and_compile : string -> (compiled, string) result
(** Convenience: {!Parser.parse} then {!compile}. *)
