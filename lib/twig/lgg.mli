(** Least general generalization (LGG) of twig queries — the learning engine
    of Section 2.

    The positive-example learner of Staworko & Wieczorek computes, for a set
    of annotated documents, the minimal anchored twig selecting every
    annotated node: "the identification of all common patterns of the
    examples".  Our construction follows the same plan:

    + each example is turned into its characteristic query
      ({!Query.of_example});
    + queries are merged pairwise: spines are aligned by a dynamic program
      that maximizes specificity (matching labels preferred over wildcards,
      child edges over descendant edges, kept nodes over dropped ones), with
      output aligned to output and roots to roots;
    + filters of aligned spine nodes are merged by the pairwise product of
      their filter sets, keeping only maximal (most specific) products;
    + the result is normalized into the anchored fragment ({!Query.anchor})
      and redundant filters are pruned by containment ({!minimize}).

    The merge [lgg q1 q2] always {e contains} both inputs (it selects every
    node either selects); on anchored inputs it is their least upper bound.
    [max_filters] caps each node's filter set to bound the product size. *)

val lgg :
  ?label_guided:bool -> ?rescue:bool -> ?max_filters:int ->
  Query.t -> Query.t -> Query.t
(** Pairwise merge.  [max_filters] defaults to 32.

    The two flags are ablation knobs (production defaults both [true],
    benchmarked by experiment E13): [label_guided:false] reverts the filter
    product to the naive all-pairs construction (conjunctions of
    per-example shapes accumulate and never generalize); [rescue:false]
    disables the descendant rescue of invariant tests buried at different
    depths (losing e.g. [//keyword] across [text] vs [parlist] branches). *)

val lgg_all :
  ?label_guided:bool -> ?rescue:bool -> ?max_filters:int ->
  Query.t list -> Query.t option
(** Fold of {!lgg} over a non-empty list ([None] on []). *)

val minimize : Query.t -> Query.t
(** Removes filters implied by a sibling filter (via
    {!Contain.filter_subsumed}) and deduplicates, at every node.  The result
    is equivalent to the input. *)
