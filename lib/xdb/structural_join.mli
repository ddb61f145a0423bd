(** The two structural relationships a path step can require: [Child]
    (parent-child, [/]) and [Descendant] (ancestor-descendant, [//]).

    Under interval labels both reduce to integer comparisons
    ({!Store.is_parent}, {!Store.is_ancestor}). {!Twig_join.path_solutions}
    matches whole paths of such steps holistically, and the pattern layer
    ({!X3_pattern}) walks them one fact subtree at a time. *)

type axis = Child | Descendant
