(** Learning anchored twig queries from positive examples only — the
    learnability result of Staworko & Wieczorek the paper builds on
    (Section 2): "the subclass of anchored twig queries … learnable from
    positive examples only, where the examples are XML documents with
    annotated nodes".

    [learn_positive examples] folds the least general generalization
    ({!Twig.Lgg}) over the characteristic queries of the examples and
    minimizes the result.  The output selects every example node; on
    examples drawn from an anchored goal query it converges to a query
    equivalent to the goal — generally after very few examples
    (experiment E1). *)

type instance = Xmltree.Annotated.t

val learn_positive : instance list -> Twig.Query.t option
(** [None] on the empty list or when the generalization leaves the anchored
    fragment (e.g. examples whose annotated nodes have different labels). *)

val learn_path : instance list -> Twig.Query.t option
(** Same, restricted to path queries: filters are stripped before merging —
    the smaller class of Staworko & Wieczorek. *)

(** Incremental maintenance of the positive-example LGG.

    [Lgg.lgg] is the fold operator of {!learn_positive}; keeping the fold's
    running value turns each new example into {e one} merge instead of a
    refold of the whole history, and each would-this-stay-consistent probe
    into one merge {e without} minimization.  This is what collapsed the
    [twig.lgg] span from 62% of interactive learn-twig wall time (PR 3
    profile) — see BENCH_PR4.json.  Equivalence with the batch learner on
    the same example order is property-tested in [test_twiglearn.ml].
    Nothing is memoized between calls: a probe that the spine precheck of
    {!extend_consistent} settles costs one merge of two label paths. *)
module Incremental : sig
  type acc
  (** The raw (unminimized) LGG of the examples added so far, in arrival
      order — exactly the intermediate value of {!learn_positive}'s fold. *)

  val empty : acc

  val add : acc -> instance -> acc
  (** One {!Twig.Lgg.lgg} merge with the item's characteristic query
      ({!Twig.Query.of_example}). *)

  val candidate : acc -> Twig.Query.t option
  (** Minimize and anchor-check: [candidate (add ... (add empty x1) ... xn)]
      equals [learn_positive [x1; ...; xn]]. *)

  val extend_consistent : acc -> instance -> Twig.Query.t option
  (** [extend_consistent acc item] is the unminimized query the accumulator
      would generalize to if [item] were added — [None] when that leaves
      the anchored fragment.  Selection-equivalent to
      [candidate (add acc item)] (minimization only drops implied filters;
      anchoredness is settled before minimization), skipping the minimize
      that dominated determined-probes.

      Most items are settled on the spines alone: the merge of the
      accumulator's spine with the item's root-to-node label path is the
      spine of the full merge, and when it is not anchored neither is the
      full merge, so the item is closed without merging a filter
      ([learnq.twiglearn.spine_closed] counts these).  A spine that passes
      proves nothing about the filters, so only then does the full merge
      run.  The [lgg-incremental] fuzz oracle checks the one-way argument
      against [candidate (add acc item)] for every node of its documents. *)

  val set_full_merge : bool -> unit
  (** Fault-injection switch (default [true]).  [false] lets the spine
      precheck decide both ways: an item whose spine passes extends to the
      accumulator's own query, with no full merge, so a session whose
      negatives that query rejects takes the item as open.  Only for
      exercising the differential fuzzing harness ({!Fuzz.Oracle}
      [interact-batch] catches it within a few dozen cases) — never unset
      this in production code paths. *)
end

(** The twig concept (plugs into {!Core.Concept} functors). *)
module Concept :
  Core.Concept.CONCEPT
    with type query = Twig.Query.t
     and type instance = instance
