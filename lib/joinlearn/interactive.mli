(** Interactive join inference (paper, Section 3): the learner walks the
    lattice of candidate predicates by asking the user to label tuple pairs,
    pruning pairs whose label is already forced by the version space.

    The protocol stops when every pair in the pool is labeled or
    uninformative; the output is the most specific predicate consistent with
    the answers.  Strategies determine how few questions that takes —
    experiment E6 compares them (and prices them as crowdsourcing HITs). *)

type item = {
  left : Relational.Relation.tuple;
  right : Relational.Relation.tuple;
  mask : Signature.mask;
}

module Session :
  Core.Interact.SESSION with type query = Signature.mask and type item = item

module Loop : module type of Core.Interact.Make (Session)

val items_of :
  Signature.space -> Relational.Relation.t -> Relational.Relation.t ->
  item list
(** The full Cartesian pool with precomputed signatures. *)

val lattice_strategy : (Session.state, item) Core.Interact.strategy
(** Asks the pair agreeing with the current most-specific predicate on the
    largest strict subset — a binary-search descent of the signature
    lattice. *)

val split_strategy :
  ?sample:int -> unit -> (Session.state, item) Core.Interact.strategy
(** Greedy expected-elimination: simulates both answers for (a sample of)
    the open items and asks the one whose worst-case outcome determines the
    most other items.  [sample] (default 48) caps the candidates scored. *)

val encode_item :
  left:Relational.Relation.t -> right:Relational.Relation.t -> item -> string
(** Journal codec: ["i:j"] row indices into the two relations (which resume
    regenerates from the journaled seed).
    @raise Invalid_argument when the item's tuples are not in them. *)

val decode_item :
  left:Relational.Relation.t ->
  right:Relational.Relation.t ->
  string ->
  item option
(** Inverse of {!encode_item}, recomputing the signature mask; [None] on an
    out-of-range index — the journal belongs to different relations. *)

val encode_state : Session.state -> string
(** Checkpoint codec: the version space's bitmask bounds plus the space
    dimension (a guard against snapshots from a different instance). *)

val decode_state :
  left:Relational.Relation.t ->
  right:Relational.Relation.t ->
  string ->
  (Session.state, string) result
(** Inverse of {!encode_state}, regenerating the signature space from the
    relations; [Error] on a dimension mismatch or an out-of-range mask. *)

val run_with_goal :
  ?rng:Core.Prng.t ->
  ?strategy:(Session.state, item) Core.Interact.strategy ->
  ?budget:Core.Budget.t ->
  left:Relational.Relation.t ->
  right:Relational.Relation.t ->
  goal:Relational.Algebra.predicate ->
  unit ->
  Loop.outcome
(** Simulates the user: a pair is positive iff it satisfies [goal].
    [budget] bounds the session (the outcome's [degraded] flag reports a
    trip). *)
