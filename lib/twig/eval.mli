(** Node-selection semantics of twig queries.

    [select q t] computes the set of nodes of [t] at which the spine of [q]
    ends under some embedding: an embedding maps spine and filter nodes to
    document nodes, respecting node tests (a label tests equality, [*] is
    satisfied by any node), child edges to parent–child edges and descendant
    edges to proper ancestor–descendant pairs.

    {!select} runs as structural joins over a labeled store (below).  The
    reference {!select_walk} is the standard bottom-up dynamic program:
    documents are indexed once (preorder numbering with descendant
    intervals) and filter embeddings are memoized per (filter node,
    document node), giving O(|q| · |t| · depth(t)) time. *)

type doc
(** A document indexed for repeated query evaluation. *)

val index : Xmltree.Tree.t -> doc

val select_doc : doc -> Query.t -> Xmltree.Tree.path list
(** Selected nodes in document (preorder) order. *)

val select : Query.t -> Xmltree.Tree.t -> Xmltree.Tree.path list

(** {1 Index-backed evaluation}

    Evaluation runs on {!Xmlstore}: documents are labeled once
    (containment intervals + inverted name lists) and queries run as
    structural joins ({!Xmlstore.Twigjoin}).  The bottom-up tree walk
    remains as the differential reference, {!select_walk}; both return
    identical answers in identical (preorder) order. *)

val to_pattern : Query.t -> Xmlstore.Pattern.t
(** Lower a query to the store pattern shape. *)

val select_walk : Query.t -> Xmltree.Tree.t -> Xmltree.Tree.path list
(** The tree-walk evaluator — the reference implementation differential
    tests and [bench pr9] compare the joins against. *)

val selects : Query.t -> Xmltree.Tree.t -> Xmltree.Tree.path -> bool
(** Membership of one node in the answer. *)

val selects_example : Query.t -> Xmltree.Annotated.t -> bool
(** Whether the query selects the annotated node of the example — the
    [selects] relation of the twig {!Core.Concept.CONCEPT}. *)

val holds_filter : Query.filter -> Xmltree.Tree.t -> bool
(** Whether the filter embeds at the root of the tree. *)
