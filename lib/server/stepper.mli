(** One interactive learning session, driven one answer at a time by a
    remote client.

    The session itself — replay, pruning, refusals, degradation,
    checkpoints — is [Core.Interact.Make]'s core, the same one the CLI's
    batch loop drives.  A server cannot call the oracle: the "oracle" is a
    remote client that answers whenever it pleases.  So the stepper just
    holds the session between answers, renders it as a {!view}, and feeds
    each client answer to it.  {!Make.make} replays a recovered journal
    (a question open at the crash is posed again under its original [qid],
    without re-journaling) and advances to the next question.  Each
    [answer] journals the reply, folds it in, and advances until the pool
    is empty ([Completed] is journaled) or the per-step budget dies
    (terminal {e degraded}: the candidate so far stands, and the journal
    stays resumable).

    Questions are numbered by [qid] — the count of [Asked] records, stable
    across crash and resume.  Answering a [qid] at or below the current one
    when the question has moved on is an {e idempotent no-op} returning the
    current view (a client retrying a reply it already delivered must not
    corrupt the session); a [qid] from the future is a typed error.

    A stepper is single-threaded by construction: the {!Registry} and the
    dispatcher's key-disjoint batches guarantee one thread at a time. *)

type view = {
  engine : string;
  done_ : bool;  (** no open question and none coming *)
  degraded : bool;  (** stopped on step-budget exhaustion *)
  qid : int;  (** id of the open question; count of questions ever asked *)
  question : string option;  (** codec string of the open question *)
  question_text : string option;  (** human rendering of the open question *)
  questions : int;  (** live answers folded in this process *)
  replayed : int;  (** answers replayed from the journal at startup *)
  pruned : int;  (** items never asked: label became determined *)
  refused : int;  (** refused/timed-out questions, set aside this run *)
  query : string option;  (** pretty-printed current candidate *)
}

type peeked = {
  p_engine : string;
  p_done : bool;
  p_degraded : bool;
  p_qid : int;
  p_open : bool;  (** a question is currently posed *)
  p_questions : int;
  p_replayed : int;
  p_pruned : int;
  p_refused : int;
}
(** A counter-only snapshot for introspection ([/debug/sessions]): unlike
    {!view} it never touches the journal, never self-heals a rolled-back
    ask, and never renders the candidate — so it is safe to read from the
    accept loop while the dispatcher owns the session.  The reads are
    plain (weakly consistent), which is fine for a debug endpoint. *)

type t = {
  view : unit -> view;
  peek : unit -> peeked;
  answer : qid:int -> Core.Flaky.reply -> (view, Core.Error.t) result;
  checkpoint : unit -> (unit, Core.Error.t) result;
      (** snapshot the accumulator and compact the journal to
          header + checkpoint (the eviction path); no-op without a journal
          or state codec.  Safe with a question in flight — its [Asked] is
          re-appended after the rewrite. *)
  flush : unit -> unit;  (** force journal buffers to disk (best-effort) *)
  close : unit -> unit;  (** flush + close the journal (drain path) *)
  abort : unit -> unit;  (** crash the journal: buffered records lost *)
}
(** The registry holds steppers of different engines, so the engine type is
    erased behind closures. *)

module Make (S : Core.Interact.SESSION) : sig
  val make :
    ?journal:Core.Journal.t ->
    ?resume:Core.Journal.event list ->
    ?step_budget:(unit -> Core.Budget.t) ->
    ?checkpoint_every:int ->
    snapshot:(S.state -> string) ->
    restore:(string -> (S.state, string) result) ->
    engine:string ->
    encode:(S.item -> string) ->
    decode:(string -> S.item option) ->
    items:S.item list ->
    unit ->
    (t, Core.Error.t) result
  (** [encode]/[decode] are the journal codec (item identity on the wire
      and in replay); [snapshot]/[restore] are the engine's accumulator
      codec, used by checkpoints.  [step_budget] is drawn fresh for each
      advance (the determined-scan between two questions); default
      unlimited.  [resume] and [checkpoint_every] are as in
      [Core.Interact.Make.start]: replay events that the codecs reject are
      an [Invalid_input] error on ["journal"].  Storage failures (ENOSPC,
      EIO) surface as typed [Error.Storage] results from [answer]; the
      journal is never left mid-write — it truncates back to its last
      complete record. *)
end

val drive :
  ?stop_after:int ->
  t ->
  (string -> Core.Flaky.reply) ->
  string list * (view, Core.Error.t) result
(** The in-process client of the protocol above: read the {!view}, answer
    its open question with [reply key] under its [qid], and repeat until
    the session is done, no question is open, or [stop_after] answers
    (default unlimited) have been delivered.  Returns the keys answered,
    in order, with the final view — or with the first error [answer]
    returned, which ends the drive (the caller decides whether to retry:
    the next drive re-reads the view, so it answers the current question).
    The view is re-read before every answer, and [reply] is called once
    per answer attempted. *)
