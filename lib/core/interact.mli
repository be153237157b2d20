(** The interactive learning kernel (paper, Section 3).

    The paper's protocol: the database instance is very large; the learning
    algorithm repeatedly chooses an item (a tuple, an XML node, a graph path)
    and asks the user to label it positive or negative.  After each answer the
    algorithm "infers the items which become uninformative w.r.t. the
    previously labeled items" and never asks about those.  The loop stops when
    every item is either labeled or uninformative, and the goal is to minimize
    the number of interactions.

    The kernel is functorized over a {!SESSION}: a concrete learner exposing a
    monotone state, a notion of determined (= uninformative) items, and a
    current candidate query.

    {2 One session core, two callers}

    {!Make.t} is the protocol as an answer-at-a-time state machine: the
    learner state, the unasked pool, and at most one open question.
    {!Make.advance} prunes the items that became determined, in one
    sequential scan per question (the [interact.scan] span), and poses the
    next question; {!Make.answer} folds the user's reply in.  Two callers
    feed it answers.  {!Make.run_flaky} (the CLI, the experiments) calls an
    oracle closure in a loop; [Server.Stepper] waits for a remote client's
    next answer.  Replay, refusal handling, pruning, degradation and
    checkpoints therefore exist once, and both callers write the same
    journal bytes for the same answers.

    Sessions are durable and supervised: an optional {!Journal} records every
    question and answer write-ahead (so a crashed session resumes from its
    journal, replaying the recorded answers instead of re-asking them), and an
    optional {!Retry} policy re-issues refused or timed-out questions with
    backoff, tripping a circuit breaker when the oracle looks dead. *)

module type SESSION = sig
  type query
  type item

  type state
  (** Learner state after some sequence of labels. *)

  val init : item list -> state
  (** Fresh state over the pool of labelable items. *)

  val record : state -> item -> bool -> state
  (** [record st item label] incorporates the user's answer. *)

  val determined : state -> item -> bool option
  (** [determined st item] is [Some l] when every query consistent with the
      labels recorded so far assigns label [l] to [item] — asking the user
      about it would be uninformative; [None] when both labels are still
      possible. *)

  val candidate : state -> query option
  (** A query consistent with all recorded labels, if one exists. *)

  val pp_item : Format.formatter -> item -> unit
  val pp_query : Format.formatter -> query -> unit
end

(** How the next question is chosen among the informative items. *)
type ('state, 'item) strategy = Prng.t -> 'state -> 'item list -> 'item

val first_strategy : ('state, 'item) strategy
(** Deterministic: asks the first informative item (pool order). *)

val random_strategy : ('state, 'item) strategy
(** Uniform among informative items — the natural baseline. *)

exception Replay_failed of Error.t
(** A [resume] journal does not replay under the engine's codecs: it was
    recorded over other data. *)

module Make (S : SESSION) : sig
  (** {1 The session core} *)

  type resume =
    Journal.event list
    * (string -> S.item option)
    * (string -> (S.state, string) result)
  (** Recovered journal events, with the engine's item decoder and state
      decoder (the inverse of a [snapshot] encoder). *)

  type t
  (** One session.  Single-threaded: one caller at a time. *)

  val start :
    ?journal:Journal.t * (S.item -> string) ->
    ?resume:resume ->
    ?checkpoint_every:int ->
    ?snapshot:(S.state -> string) ->
    items:S.item list ->
    unit ->
    t
  (** A session over the pool [items], with no question open yet.

      [journal] is a write-ahead log plus the item encoder (item identity
      on disk): every question is journaled before it is exposed and every
      reply when it arrives, so a crash loses at most the answer in flight.

      [resume] replays a recovered journal.  The last {!Journal.checkpoint}
      (if any) restores the state through the state decoder; only the events
      after it are folded.  Labeled answers rebuild the state exactly as the
      live run did, a duplicate answer is an idempotent no-op, and answered
      items leave the pool.  Refused and timed-out questions return to the
      pool.  A trailing [Asked] without its [Answered] is open again under
      its original {!qid}, without a second [Asked] record.  A [Completed]
      record finishes the session.

      @raise Replay_failed with an [Invalid_input] error when the decoders
      reject an item or the snapshot.

      [checkpoint_every] > 0 (with a journal and [snapshot], the engine's
      state encoder) runs {!take_checkpoint} every N labeled answers. *)

  val advance :
    ?rng:Prng.t ->
    ?strategy:(S.state, S.item) strategy ->
    ?stop:(unit -> bool) ->
    budget:Budget.t ->
    t ->
    unit
  (** Moves to the next question; a no-op while one is open or once the
      session is {!finished}.  First the determined-scan: every pool item
      whose label became forced is pruned, charging [budget] one tick per
      probe.  An empty pool journals [Completed] and finishes the session;
      budget exhaustion finishes it {!degraded}, with no [Completed], so
      the journal stays resumable under a bigger budget.  Then, unless
      [stop ()] holds, [strategy] (default {!first_strategy}) picks the next
      question and its [Asked] is journaled.  When storage refuses that
      record the question rolls back whole and {!Journal.Io} propagates; a
      later call re-derives the same question.

      Each scan runs in an [interact.scan] span whose detail counts the
      items probed ([items=N]), on the calling domain. *)

  val answer : t -> Flaky.reply -> unit
  (** Journals the reply to the open question and folds a label into the
      state; a refused or timed-out question is set aside for this run.
      Then takes the periodic checkpoint when one is due.
      @raise Journal.Io when storage refuses a record or the compaction —
      the answer is applied first, and a failed compaction is retried on
      the next answer.
      @raise Invalid_argument when no question is open. *)

  val take_checkpoint : t -> (unit, Error.t) result
  (** Snapshots the accumulator into a {!Journal.checkpoint} and atomically
      compacts the journal down to header + checkpoint.  Safe with a
      question open: its [Asked] is re-appended after the rewrite.  On
      failure the old journal and the session are untouched.  A no-op
      without a journal or a [snapshot] encoder. *)

  val current : t -> S.item option
  (** The open question. *)

  val qid : t -> int
  (** The open question's id: the count of [Asked] records ever, replayed
      ones included — stable across crash and resume. *)

  val finished : t -> bool
  val degraded : t -> bool
  val state : t -> S.state
  val questions : t -> int
  val replayed : t -> int
  val pruned : t -> int
  val refused : t -> int
  (** [degraded]: finished by budget exhaustion rather than an empty pool.
      The counters are as in {!outcome}. *)

  (** {1 The batch loop} *)

  type outcome = {
    query : S.query option;  (** final candidate *)
    questions : int;  (** live user interactions this run (= crowd HITs) *)
    replayed : int;  (** answers replayed from a journal, not re-asked *)
    asked : (S.item * bool) list;  (** transcript incl. replays, in order *)
    pruned : int;  (** items never asked because they became determined *)
    refused : int;  (** questions unanswered even through the retry policy *)
    retried : int;  (** extra oracle attempts spent by the retry policy *)
    degraded : bool;  (** stopped on budget exhaustion or an open breaker *)
    breaker_open : bool;  (** the oracle circuit breaker is open *)
    state : S.state;  (** final learner state *)
  }

  val run :
    ?rng:Prng.t ->
    ?strategy:(S.state, S.item) strategy ->
    ?max_questions:int ->
    ?budget:Budget.t ->
    ?journal:Journal.t * (S.item -> string) ->
    ?resume:resume ->
    ?checkpoint_every:int ->
    ?snapshot:(S.state -> string) ->
    oracle:(S.item -> bool) ->
    items:S.item list ->
    unit ->
    outcome
  (** {!run_flaky} against a reliable oracle. *)

  val run_flaky :
    ?rng:Prng.t ->
    ?strategy:(S.state, S.item) strategy ->
    ?max_questions:int ->
    ?budget:Budget.t ->
    ?journal:Journal.t * (S.item -> string) ->
    ?resume:resume ->
    ?checkpoint_every:int ->
    ?snapshot:(S.state -> string) ->
    ?retry:Retry.policy ->
    oracle:(S.item -> Flaky.reply) ->
    items:S.item list ->
    unit ->
    outcome
  (** Drives a session ({!start}, then {!advance} and {!answer} in a loop)
      against an unreliable user ({!Flaky}): the open question goes to
      [oracle] until no informative item remains or [max_questions] live
      labels have been taken.  [journal], [resume], [checkpoint_every] and
      [snapshot] are as in {!start}; [strategy] as in {!advance}.  Replays count in [replayed], not
      [questions], and the [asked] transcript covers the events since the
      last checkpoint.

      When [budget] runs out mid-session the loop returns the current
      candidate with [degraded = true] instead of raising.  [retry]
      re-issues refused and timed-out questions with backoff instead of
      skipping them; only questions that fail every attempt count in
      [refused].  When the policy's circuit breaker opens (too many
      consecutive given-up questions) the session stops asking and returns
      the current candidate with [degraded = true] and [breaker_open = true]
      — the caller's cue to fall back (e.g. [Twiglearn.Fallback],
      [Joinlearn.Fallback]) rather than hammer a dead oracle.  Both stops
      happen after a scan and before the next [Asked] is journaled.

      @raise Replay_failed when [resume] does not decode.
      @raise Journal.Io carrying a typed [Error.Storage] when the disk
      refuses a record or a compaction; the journal is left intact. *)

  val cost : price_per_question:float -> outcome -> float
  (** Crowdsourcing cost of a session: the paper equates minimizing
      interactions with minimizing financial cost of HITs (Section 3).
      Replayed answers were already paid for and are not re-billed. *)
end
