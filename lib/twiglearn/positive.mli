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

val characteristic : instance -> Twig.Query.t
(** The characteristic query of an annotated node ({!Twig.Query.of_example}),
    memoized per document in a bounded per-domain table: determined-probes
    revisit the same pool items every round, and all of a session's items
    share one document (recognized by physical equality).  Cache traffic is
    counted by [learnq.twiglearn.char_cache_hits]/[_misses]. *)

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
    the same example order is property-tested in [test_twiglearn.ml]. *)
module Incremental : sig
  type acc
  (** The raw (unminimized) LGG of the examples added so far, in arrival
      order — exactly the intermediate value of {!learn_positive}'s fold. *)

  val empty : acc

  val raw : acc -> Twig.Query.t option
  (** The accumulator's unminimized query — [None] before any example.
      Stable in physical identity between additions, which is what the
      session probe memo keys its invalidation on. *)

  val add : acc -> instance -> acc
  (** One {!Twig.Lgg.lgg} merge with the item's (memoized) characteristic. *)

  val candidate : acc -> Twig.Query.t option
  (** Minimize and anchor-check: [candidate (add ... (add empty x1) ... xn)]
      equals [learn_positive [x1; ...; xn]]. *)

  val extend_consistent : acc -> instance -> Twig.Query.t option
  (** [extend_consistent acc item] is the unminimized query the accumulator
      would generalize to if [item] were added — [None] when that leaves
      the anchored fragment.  Selection-equivalent to
      [candidate (add acc item)] (minimization only drops implied filters;
      anchoredness is settled before minimization), skipping the minimize
      that dominated determined-probes. *)
end

(** The twig concept (plugs into {!Core.Concept} functors). *)
module Concept :
  Core.Concept.CONCEPT
    with type query = Twig.Query.t
     and type instance = instance
