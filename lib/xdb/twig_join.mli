(** Holistic path matching.

    PathStack (Bruno, Koudas, Srivastava): one stream and one stack per
    step, linked stack entries, solutions expanded when a leaf is pushed.
    It evaluates a *rigid* tag path over the whole store; the X³ layer
    ({!X3_pattern.Eval}) uses it to find the fact nodes and adds relaxation
    semantics on top. *)

type step = { axis : Structural_join.axis; tag : string }

type path = step list
(** First step's axis is interpreted from the document, as in XPath:
    [Descendant] for [//a] (any [a] node), [Child] for [/a] (the document
    element, when it is an [a]). Must be non-empty. *)

val path_solutions :
  Store.t -> path -> (Store.node array -> unit) -> unit
(** [path_solutions store path emit] calls [emit] with one array per match;
    the array has one node per step, outermost first. The array is fresh
    per call. *)

val naive_path_solutions : Store.t -> path -> Store.node array list
(** Navigational reference implementation for tests. *)
