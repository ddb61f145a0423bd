(** The flattened node store: an XML document loaded into parallel arrays
    with interval labels, the way a native XML database keeps it.

    Node ids are pre-order ranks, so the descendants of node [v] are exactly
    the ids in [(v, subtree_end v]] — subtree scans are contiguous.
    Attributes become child nodes tagged ["@name"] (TIMBER's convention, and
    what lets Query 1 group on [publisher/@id]); text nodes are tagged
    ["#text"]. *)

type t
type node = int

(** {1 Loading} *)

val of_string :
  ?limits:X3_xml.Parser.limits ->
  ?graft:X3_xml.Tree.element list ->
  string ->
  (t, X3_xml.Parser.error) result
(** Scans an XML document straight into the store, with no DOM in
    between: labels are assigned as elements open and close. [graft]
    (default none) is appended, in order, as trailing children of the
    root — the same store as {!of_document} over the parsed document with
    those elements added to the root's children. Errors and limits are
    exactly {!X3_xml.Parser.parse}'s. *)

val of_file :
  ?limits:X3_xml.Parser.limits ->
  string ->
  (t * X3_xml.Dtd.t option, X3_xml.Parser.error) result
(** {!of_string} over a file, also returning its DTD the way
    {!X3_xml.Parser.parse_file_with_dtd} resolves it. *)

val of_document : X3_xml.Tree.document -> t
(** Loads a DOM that is already built, through the same builder. *)

val of_documents : X3_xml.Tree.document list -> t
(** Loads a forest under a synthetic ["#forest"] root — how we load many
    generated input trees as one database. *)

(** {1 Global accessors} *)

val node_count : t -> int
val root : t -> node
val document_order : t -> node array
(** All nodes, which is simply [0 .. node_count-1]. *)

(** {1 Per-node accessors} *)

type kind = Element | Attribute | Text

val kind : t -> node -> kind
val tag : t -> node -> string
val tag_id : t -> node -> int
val label : t -> node -> Label.t
val level : t -> node -> int
val subtree_end : t -> node -> node
val parent : t -> node -> node option

val parent_id : t -> node -> node
(** {!parent} without the option: [-1] for the root. *)

val iter_children : t -> node -> (node -> unit) -> unit
val children : t -> node -> node list

val text : t -> node -> string
(** The raw character data of a [Text] node or the value of an
    [Attribute]; [""] for elements. *)

val string_value : t -> node -> string
(** XPath string value: for elements, concatenated descendant text (not
    attribute values); for attributes and text nodes, their own text. *)

val is_ancestor : t -> anc:node -> desc:node -> bool
val is_parent : t -> parent:node -> child:node -> bool

(** {1 Tag dictionary and index} *)

val id_of_tag : t -> string -> int option
val tags : t -> string list

val nodes_with_tag : t -> string -> node array
(** All nodes with the given tag, ascending (= document order). Shares the
    index array: callers must not mutate it. *)

val first_after : node array -> node -> from:int -> int
(** The position of the first node greater than the given one in an
    ascending node array such as {!nodes_with_tag}'s; the array's length
    when there is none. Every node before position [from] must be at most
    the given one: the search gallops forward from there, so a caller
    that visits nodes in document order pays for the distance between
    answers, not for the array. The nodes of a tag strictly inside [v]'s
    subtree start at [first_after index v ~from:0] and run while
    [<= subtree_end v]. *)

val approx_bytes : t -> int
(** Resident bytes of the store's columns, texts, tag dictionary and tag
    index, from their lengths — what a cache charges for keeping the
    store loaded. Within a few percent of [Obj.reachable_words]. *)

val pp_summary : Format.formatter -> t -> unit
