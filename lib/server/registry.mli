(** The session table: every live learning session, keyed by
    [tenant/id], each backed by its own journal file in the state
    directory.

    Three invariants carry the server's fault-tolerance story:

    - {e journal-keyed}: a session's entire recoverable state is its
      journal ([<dir>/<tenant>.<id>.journal] — '.' cannot appear in a
      name, so the mapping is injective; the header's config line
      regenerates the instance, the events replay the answers, and the
      last checkpoint — if any — short-circuits the replay).  The
      registry holds only the in-memory stepper; {!recover_all} rebuilds
      the table from the directory after a crash.
    - {e idempotent creation}: re-creating an existing [tenant/id] with the
      same spec returns the live session (clients retry blindly); a
      different spec is a typed conflict.  A journal already on disk but
      not in memory is resumed, not truncated.
    - {e quota-checked}: a tenant at its [max_sessions] gets a typed
      [Over_quota] refusal, checked under the registry lock (with slots
      reserved during construction, so concurrent creates cannot
      overshoot).

    The storage PR adds three more:

    - {e bounded residency}: {!evict_idle} checkpoints, compacts, and
      closes sessions beyond [max_live] (LRU) or idle past
      [idle_evict_after]; {!find_or_resume} transparently resurrects an
      evicted session from its journal — exactly once per burst of
      concurrent requests (single-flight on the registry's build table).
    - {e corruption quarantine}: a journal failing CRC or decode is moved
      to [<name>.quarantine] (its stale lock removed) instead of crashing
      every recovery; {!stats} counts them.
    - {e fault-injectable storage}: every file operation goes through the
      config's {!Core.Vfs.t}, so the chaos harness can script ENOSPC, torn
      writes, and lying fsyncs against the whole session lifecycle.

    The lock covers table bookkeeping only; instance generation and replay
    run outside it.  Mutating one session concurrently is excluded by the
    {!Admission} batch discipline, not by this lock. *)

type config = {
  dir : string;  (** state directory (created on {!create}) *)
  sync : Core.Journal.sync;
  tenants : Tenant.t;
  step_fuel : int option;  (** server-wide per-step default *)
  step_timeout : float option;
  vfs : Core.Vfs.t;  (** storage backend ({!Core.Vfs.real} in production) *)
  checkpoint_every : int;
      (** checkpoint + compact each session every N labeled answers;
          0 = never *)
  max_live : int;
      (** {!evict_idle} keeps at most this many live steppers (LRU);
          0 = unlimited *)
  idle_evict_after : float;
      (** {!evict_idle} evicts sessions untouched this many seconds;
          0. = never *)
}

val default_config : string -> config
(** An in-process registry on the given state directory: [Off] sync,
    default tenants, no step caps, real storage, no checkpoints, unbounded
    residency.  Override fields with [{ (default_config dir) with ... }]. *)

type stats = {
  live : int;
  evicted : int;  (** sessions checkpointed out by {!evict_idle} *)
  resumed : int;  (** sessions resurrected by {!find_or_resume} *)
  quarantined : int;  (** corrupt journals moved to [.quarantine] *)
}

type t

val create : config -> t
(** Creates [dir] if missing.  Does not scan it — call {!recover_all}. *)

val create_session :
  t -> tenant:string -> id:string -> Engines.spec ->
  (Stepper.t, Core.Error.t) result
(** The new (or, by the idempotency rule above, the live) session's
    stepper; callers must respect the one-thread-per-session batch
    discipline, as with {!find}.  See the quota rule above.  [id] and
    [tenant] must be [[A-Za-z0-9_-]+] (they name files). *)

val find : t -> tenant:string -> id:string -> Stepper.t option
(** The live stepper (touching its LRU clock); callers must respect the
    one-thread-per-session batch discipline.  Does not look at disk — use
    {!find_or_resume} to see through eviction. *)

val find_or_resume :
  t -> tenant:string -> id:string -> (Stepper.t option, Core.Error.t) result
(** {!find}, falling back to resuming the session's journal from disk when
    the stepper was evicted.  Single-flight: a burst of concurrent requests
    for the same evicted key replays the journal exactly once, the rest
    wait and share the result.  [Ok None] when no such session exists
    anywhere; [Error] when the journal exists but cannot be resumed (a
    corrupt one is quarantined on the way out). *)

val evict_idle : t -> int
(** Checkpoint, compact, close, and drop sessions beyond the config's
    [max_live] (least-recently-used first) or idle past
    [idle_evict_after]; returns how many were evicted.  A victim whose
    checkpoint fails stays live (nothing is lost to a sick disk).  Call
    from the dispatcher between batches — never while a session is
    mid-answer. *)

val delete : t -> tenant:string -> id:string -> bool
(** Closes the session and removes its journal file — including a session
    that only exists on disk (evicted or never loaded).  [false] if absent
    everywhere. *)

val recover_all :
  ?pool:Core.Pool.t -> t -> int * (string * Core.Error.t) list
(** Resumes every journal in the directory not already live — in parallel
    on [pool], or one after another on the calling domain without one —
    and returns (sessions recovered, per-file errors).
    Corrupt journals are quarantined; other failures (locked, storage) are
    left in place and reported. *)

val drain : t -> unit
(** Flush and close every live journal (graceful-shutdown path). *)

val crash : t -> unit
(** Abort every journal without flushing — the in-process stand-in for
    kill -9, for the chaos harness. *)

val count : t -> int
val tenant_count : t -> string -> int

val stats : t -> stats
(** Live count plus lifetime eviction / resume / quarantine counters. *)

val fold : t -> init:'a -> f:('a -> tenant:string -> id:string -> Stepper.t -> 'a) -> 'a
(** Snapshot iteration (order unspecified) — for /stats. *)

type session_debug = {
  sd_tenant : string;
  sd_id : string;
  sd_engine : string;
  sd_done : bool;
  sd_degraded : bool;
  sd_qid : int;
  sd_open : bool;  (** a question is currently posed *)
  sd_questions : int;
  sd_replayed : int;
  sd_journal_bytes : int;  (** on-disk journal size (0 if unreadable) *)
  sd_idle_s : float;  (** seconds since the session was last touched *)
}

val debug_sessions : t -> session_debug list
(** Per-session introspection, sorted by [tenant/id] — the
    [/debug/sessions] view.  Built from {!Stepper.t.peek}, so it never
    touches a journal and is safe concurrently with the dispatcher; the
    numbers are weakly consistent. *)
