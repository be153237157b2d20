(** A compiled twig pattern, decoupled from {!Twig.Query} so the store
    library does not depend on the learner stack.  [Twig.Eval.to_pattern]
    lowers a query into this shape.

    Filter nodes are flattened into [fnodes] with dense ids; an edge
    [(axis, j)] under a node points at [fnodes.(j)].  Compilation
    guarantees a parent's id is smaller than all of its children's ids, so
    a right-to-left pass over [fnodes] is bottom-up. *)

type axis = Child | Descendant
type test = Wild | Name of string

type fnode = { ftest : test; fedges : (axis * int) list }
type step = { saxis : axis; stest : test; sedges : (axis * int) list }

type t = { fnodes : fnode array; steps : step array }
