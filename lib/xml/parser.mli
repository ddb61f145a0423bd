(** A non-validating XML 1.0 parser.

    Hand-written recursive descent over an in-memory string. Supports
    elements, attributes (single- or double-quoted), character data, CDATA
    sections, comments, processing instructions, the XML declaration, the
    five predefined entities, decimal/hexadecimal character references, and
    DOCTYPE declarations with an internal subset (handed to {!Dtd.parse}).

    Not supported (documented limitations, irrelevant to the X³ workloads):
    external DTD subsets are recorded but not fetched; user-defined general
    entities raise an error; namespaces are not interpreted (prefixed names
    are kept verbatim). *)

type error = { line : int; column : int; message : string }

val pp_error : Format.formatter -> error -> unit

(** {1 Hostile-input limits}

    The parser recurses on element nesting, so depth is native stack; node
    count, attribute and text lengths are heap. All four are bounded so a
    crafted input produces a typed {!error} instead of [Stack_overflow] or
    [Out_of_memory]. *)

type limits = {
  max_depth : int;  (** element nesting levels (recursion depth) *)
  max_nodes : int;  (** total tree nodes (elements, texts, comments, PIs) *)
  max_attr_len : int;  (** bytes in one attribute value *)
  max_text_len : int;  (** bytes in one text node / CDATA section *)
}

val default_limits : limits
(** 10k depth, 50M nodes, 1MB attributes, 50MB text nodes — far beyond any
    legitimate workload, well short of resource exhaustion. *)

val parse : ?limits:limits -> string -> (Tree.document, error) result
(** Parse a complete document. *)

val parse_with_dtd :
  ?limits:limits -> string -> (Tree.document * Dtd.t option, error) result
(** Like {!parse}, also returning the parsed internal DTD subset when the
    document carries one. *)

val parse_fragment : ?limits:limits -> string -> (Tree.node list, error) result
(** Parse mixed content without requiring a single root element — handy in
    tests and for building documents from snippets. *)

val parse_file_with_dtd :
  ?limits:limits -> string -> (Tree.document * Dtd.t option, error) result
(** [parse_file_with_dtd path] reads and parses [path], like
    {!parse_with_dtd}. I/O errors are reported as a parse error at
    line 0. *)
