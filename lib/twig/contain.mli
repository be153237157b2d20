(** Containment and equivalence of twig queries.

    [subsumed q1 q2] decides q1 ⊆ q2 (every node selected by [q1] in any
    document is selected by [q2]) through a pattern homomorphism from [q2]
    into [q1]: child edges map to child edges, descendant edges to downward
    paths, labels to equal labels, wildcards to anything, output to output.

    Homomorphism existence is sound for the whole class; it is not complete
    in general — twig containment is coNP-hard (Miklau & Suciu), and e.g.
    [//c\[.//a/c\] ⊆ //c\[*\]] holds semantically with no homomorphism
    witnessing it (a wildcard filter can be entailed by a descendant
    filter).  On the queries the learners actually produce — anchored,
    duplicate-free, label-tested filters — the check is exact on every
    instance the randomized test suite generates, and soundness is the
    property minimization and pruning rely on.  {!subsumed_semantic} is an
    independent canonical-model check used as a cross-validation oracle in
    the test suite. *)

val subsumed : Query.t -> Query.t -> bool
(** [subsumed q1 q2] iff q1 ⊆ q2 (homomorphism check). *)

val equiv : Query.t -> Query.t -> bool
(** Containment both ways. *)

val filter_subsumed : Query.axis * Query.filter -> Query.axis * Query.filter -> bool
(** [filter_subsumed (a1,f1) (a2,f2)] iff the condition [(a1,f1)] implies
    [(a2,f2)] at any node: used to prune redundant filters.  Memoized in a
    per-domain table of 65536 entries, cleared wholesale when full, keyed
    on hash-consed filter ids ({!Hcons}) — the quadratic loop of
    [Lgg.prune_maximal] re-tests the same edge pairs throughout a session,
    so repeats cost one int-pair lookup.  Hit/miss counts are the
    [learnq.twig.contain_cache_hits]/[_misses] counters. *)

val filter_subsumed_uncached :
  Query.axis * Query.filter -> Query.axis * Query.filter -> bool
(** The direct homomorphism check {!filter_subsumed} memoizes — the
    reference for the [contain-cache] fuzz oracle and the cache-equivalence
    property test. *)

val canonical_instances :
  ?max_variants:int -> Query.t -> (Xmltree.Tree.t * Xmltree.Tree.path) list
(** Canonical models of a query: pattern instances where wildcards become a
    fresh label and each descendant edge is realized both directly and
    through one fresh intermediate node (capped at [max_variants], default
    64).  Each instance comes with the output node's path, and the query
    selects it. *)

val subsumed_semantic : ?max_variants:int -> Query.t -> Query.t -> bool
(** q1 ⊆ q2 decided by evaluating [q2] on the canonical instances of [q1].
    Exact when [max_variants] (default 64) covers all 2^d descendant-edge
    instantiations of [q1]; above the cap only the two extreme variants are
    tested and the check over-approximates.  Used in tests to cross-check
    {!subsumed}. *)
