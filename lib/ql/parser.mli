(** Recursive-descent parser for the X³ query language. *)

val default_max_bytes : int
(** Hostile-input cap on the query source (64 KiB): the lexer tokenises
    the whole string up front, so size must be bounded before parsing. *)

val parse : ?max_bytes:int -> string -> (Ast.t, string) result
(** Parses a full query. Error messages name the offending token. Queries
    over [max_bytes] (default {!default_max_bytes}) are rejected without
    tokenising. *)
