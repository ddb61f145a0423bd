(** Plain substring search, shared by the XML and DTD scanners. Both
    functions compare in place and allocate nothing. *)

val is_at : string -> int -> string -> bool
(** [is_at haystack i needle] is whether [needle] occurs in [haystack]
    starting at index [i]. *)

val find : string -> start:int -> string -> int option
(** [find haystack ~start needle] is the index of the first occurrence of
    [needle] in [haystack] at or after [start], or [None]. An empty needle
    matches at [start]. *)
