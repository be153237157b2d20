(** Schema inference from positive examples — "the disjunctive multiplicity
    schemas are identifiable in the limit from positive examples only"
    (paper, Section 2).

    The learner generalizes observed children multisets label by label:

    + nodes with the same label contribute their children-label multisets;
    + multisets are grouped by {e support} (the set of labels present) —
      each group yields one clause, whose multiplicities cover the observed
      count range ([1,1] ↦ [1], [1,k] ↦ [+], ...);
    + clauses whose support is included in another clause's support are
      merged into it, relaxing the missing labels to nullable multiplicities
      ([1] ↦ [?], [+] ↦ [*]) — this introduces optionality without
      inventing disjunction;
    + remaining clauses (pairwise incomparable supports) stay disjuncts.

    On a stream of documents drawn from a target DMS whose every clause is
    eventually exhibited with its extreme counts, the output converges to a
    schema equivalent to the target (experiment E9). *)

val infer : Xmltree.Tree.t list -> Schema.t option
(** [None] when the documents disagree on the root label or the list is
    empty.  The result validates every input document. *)

val infer_disjunction_free : Xmltree.Tree.t list -> Schema.t option
(** Single-clause variant: one clause per label covering all observations —
    the MS restriction, coarser but always disjunction-free. *)
