(** A non-validating XML 1.0 parser.

    One iterative scanner over an in-memory string, with an explicit stack
    of open tags, emits events to a {!sink}. Two sinks consume them: the
    {!Tree} builder behind {!parse} and friends, and the node-store
    builder behind [X3_xdb.Store.of_string]. Every check lives in the
    scanner, so both see the same errors at the same positions. Supports
    elements, attributes (single- or double-quoted), character data, CDATA
    sections, comments, processing instructions, the XML declaration, the
    five predefined entities, decimal/hexadecimal character references, and
    DOCTYPE declarations with an internal subset (handed to {!Dtd.parse}).

    Not supported (documented limitations, irrelevant to the X³ workloads):
    external DTD subsets are fetched only by the file forms, and only from
    plain paths; user-defined general entities raise an error; namespaces are not interpreted (prefixed names
    are kept verbatim). *)

type error = { line : int; column : int; message : string }

val pp_error : Format.formatter -> error -> unit

(** {1 Hostile-input limits}

    The scanner does not recurse, but its open-tag stack and every
    consumer that recurses on a {!Tree} grow with depth; node count,
    attribute and text lengths are heap. All four are bounded so a crafted
    input produces a typed {!error} instead of [Stack_overflow] or
    [Out_of_memory]. *)

type limits = {
  max_depth : int;  (** element nesting levels *)
  max_nodes : int;  (** total tree nodes (elements, texts, comments, PIs) *)
  max_attr_len : int;  (** bytes in one attribute value *)
  max_text_len : int;  (** bytes in one text node / CDATA section *)
}

val default_limits : limits
(** 10k depth, 50M nodes, 1MB attributes, 50MB text nodes — far beyond any
    legitimate workload, well short of resource exhaustion. *)

(** {1 Events} *)

type sink = {
  open_element : string -> unit;  (** a start tag's name *)
  attribute : string -> string -> unit;
      (** name and resolved value, in order, right after [open_element] *)
  text : string -> unit;
      (** one text node: a coalesced run of character data, or a CDATA
          section *)
  comment : string -> unit;
  pi : string -> string -> unit;  (** target, body *)
  close_element : unit -> unit;
      (** the innermost open element ends (an empty-element tag opens and
          closes at once) *)
}
(** Receives a document's content in document order. Comments and PIs
    outside the root element are not reported. On an error the events so
    far describe a prefix of the input and should be discarded. *)

type prolog = {
  version : string option;  (** from the XML declaration, if any *)
  encoding : string option;
  doctype : string option;  (** root name declared by [<!DOCTYPE ...>] *)
}

val scan :
  ?limits:limits -> sink -> string -> (prolog * Dtd.t option, error) result
(** Scans a complete document into [sink], returning its prolog and its
    internal DTD subset, if any. *)

val scan_file :
  ?limits:limits -> sink -> string -> (prolog * Dtd.t option, error) result
(** [scan_file sink path] reads and scans [path]. The DTD is the internal
    subset, or else the external one its SYSTEM identifier names, resolved
    against the document's directory. I/O errors are reported as a parse
    error at line 0. *)

(** {1 Trees} *)

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
(** [parse_file_with_dtd path] reads and parses [path], with the DTD
    {!scan_file} finds. I/O errors are reported as a parse error at
    line 0. *)
