(** Interactive learning of twig queries by node annotation: "develop a
    practical system able to learn twig queries from interaction with the
    user" (paper, Section 2), instantiating the generic protocol of
    {!Core.Interact}.

    The user is shown nodes of a document and labels them; between
    questions the learner infers the labels forced by the anchored-fragment
    semantics:

    - a node selected by the LGG of the current positives must be positive
      (every anchored query consistent with the labels contains the LGG);
    - a node whose addition to the positives would drive the LGG onto a
      known negative — or out of the anchored fragment altogether — must be
      negative.

    Those nodes are uninformative and are never asked.  The second test
    is usually settled on the spines alone, without merging a filter
    ({!Positive.Incremental.extend_consistent}). *)

type item = Xmltree.Annotated.t

module Session :
  Core.Interact.SESSION with type query = Twig.Query.t and type item = item
(** The session: an incremental LGG accumulator ({!Positive.Incremental}).
    A probe reads only the session's own state, so sessions on one
    document never see each other's labels. *)

module Loop : module type of Core.Interact.Make (Session)

(** The reference session: every answer and every determined-probe
    refolds the whole positive set through {!Positive.learn_positive}, with
    no spine precheck — the pre-incremental path.  It asks the same
    questions as {!Session}: the [interact-batch] fuzz oracle checks that,
    and with it the precheck, end to end.  [bench pr4] times {!Loop}
    against it. *)
module Batch : sig
  module Session :
    Core.Interact.SESSION with type query = Twig.Query.t and type item = item

  module Loop : module type of Core.Interact.Make (Session)
end

val items_of_doc : Xmltree.Tree.t -> item list
(** Every node of the document as a labelable item (preorder). *)

val label_diverse_strategy : (Session.state, item) Core.Interact.strategy
(** Prefers nodes whose label has been asked least often so far (and, among
    those, the shallowest).  Document order wastes its budget walking to
    the first positive; label diversity finds one within about one question
    per distinct label, after which the LGG-based pruning determines most
    of the pool. *)

val encode_item : item -> string
(** Journal codec: the item's node path, e.g. ["/0/2/1"] (the session's
    document is recorded in the journal header's config, not per item). *)

val decode_item : doc:Xmltree.Tree.t -> string -> item option
(** Inverse of {!encode_item} over [doc]; [None] when the path addresses no
    node — the journal belongs to a different document. *)

val encode_state : Session.state -> string
(** Checkpoint codec: a [twig1] header and the labeled node paths (each
    polarity in arrival order) — the accumulator itself is redundant,
    being a deterministic fold of them. *)

val decode_state :
  doc:Xmltree.Tree.t -> string -> (Session.state, string) result
(** Inverse of {!encode_state} over [doc]: refolds the recorded labels
    through [Session.record], rebuilding the exact live accumulator.  Also
    reads the [twig1 batch] snapshots of the retired batch mode, refolded
    the same way.  [Error] when a path addresses no node of [doc] or the
    snapshot is malformed. *)

val run_with_goal :
  ?rng:Core.Prng.t ->
  ?strategy:(Session.state, item) Core.Interact.strategy ->
  ?budget:Core.Budget.t ->
  doc:Xmltree.Tree.t ->
  goal:Twig.Query.t ->
  unit ->
  Loop.outcome
(** Simulates the user with the goal query as oracle over all nodes of
    [doc]. *)
