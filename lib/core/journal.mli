(** The write-ahead session journal: crash durability for interactive
    learning sessions.

    The paper's Section 3 protocol is a long-running loop of questions and
    answers, each answer bought from a (crowd) user; losing them to a process
    crash means paying for them again.  In the spirit of ARIES-style
    write-ahead logging, a journal records the session {e before} the effects
    happen: a header (seed and configuration, so the run is reproducible),
    then one record per question asked and per answer received.

    {2 On-disk format}

    An 8-byte magic string ["LQJRNL1\n"] followed by records.  Each record is

    {v [length : 4 bytes LE] [crc32 : 4 bytes LE] [payload : length bytes] v}

    where the CRC-32 (polynomial 0xEDB88320) covers the payload.  A record is
    written with a single [write], so a crash leaves at most one torn record
    at the physical tail (under {!Batch}, at most one torn {e group}).
    {!recover} therefore treats a record whose bytes run out before [length]
    is satisfied as a torn tail and drops it silently, while a record that is
    fully present but fails its CRC is {e corruption} and is rejected with a
    positioned {!Error.t}.

    The header carries a trailing format-version field ([v=2] since the
    storage PR); version-1 journals (no checkpoints, bare-pid locks) still
    parse and resume.

    {2 Checkpoints and compaction}

    A {!checkpoint} record snapshots the whole session accumulator —
    counters, answered keys, and an opaque engine-encoded state — so
    {!resume} can restore from the last checkpoint and replay only the tail
    instead of every record since birth.  {!compact} then rewrites the
    journal as [header + checkpoint] via write-aside + atomic rename: the
    old journal survives untouched until the new one is durable, so a crash
    at any instant leaves one complete journal, never a hybrid.

    {2 Storage failures}

    All writes go through a {!Vfs.t} (defaulting to the passthrough
    backend).  A disk failure (ENOSPC, EIO, short write) raises {!Io}
    carrying a typed [Error.Storage]; the journal first truncates the file
    back to the last complete frame, so the on-disk image stays a valid
    prefix and the append can be retried once the disk recovers.

    {2 Fsync policy}

    Per-append [fsync] is the strongest guarantee but dominates the cost of a
    fast learner (BENCH_PR2 measured 6.8× on the twig learn path).  {!sync}
    trades durability for throughput: {!Always} fsyncs every record, {!Batch}
    group-commits (one write + fsync per 8 records, and at every session
    milestone), {!Off} leaves flushing to the OS.  The chosen policy is
    recorded in the header so {!recover} can report what guarantee the
    journal was written under.

    {2 Writer mutual exclusion}

    Two processes appending to one journal would interleave frames into
    corruption, so {!create_result} and {!resume} take a sidecar lock file
    ([path ^ ".lock"], created atomically via write-aside + [link(2)]),
    stamped with the owner's [pid:starttime] — not a bare pid, because pids
    are recycled: same pid but different [/proc/<pid>/stat] starttime means
    the recorded holder died and its pid was reborn, so the lock is stale
    and is stolen.  When the pid is alive and no stamp evidence says
    otherwise (old bare-pid locks, no /proc), stealing is refused with a
    typed [Journal_locked].  {!close} (and {!abort}) release the lock. *)

type header = {
  seed : int;  (** the PRNG seed the session ran under *)
  engine : string;  (** which learner ("learn-twig", "learn-join", …) *)
  config : string;  (** free-form parameter line; checked on resume *)
}

type sync =
  | Always  (** fsync every append: lose at most the in-flight record *)
  | Batch
      (** group commit: buffer up to 8 records per write+fsync; a crash loses
          at most the open group.  [Completed] and {!close} force a flush. *)
  | Off  (** never fsync: durability left to the OS page cache *)

val sync_to_string : sync -> string
val sync_of_string : string -> sync option

type checkpoint = {
  ck_qid : int;  (** questions asked when the snapshot was taken *)
  ck_questions : int;  (** labels actually received *)
  ck_pruned : int;
  ck_refused : int;
  ck_answered : string list;  (** answered item keys, oldest first *)
  ck_state : string;  (** engine-encoded accumulator (opaque here) *)
}

type event =
  | Asked of string  (** an encoded item was put to the oracle *)
  | Answered of string * Flaky.reply  (** …and this reply came back *)
  | Checkpoint of checkpoint
      (** a full accumulator snapshot; everything before it is superseded *)
  | Completed  (** the session ended with no open item *)

exception Io of Error.t
(** Raised by {!append}/{!flush} when the disk refuses a write; the payload
    is always an [Error.Storage].  The journal has already truncated back
    to its last complete frame (or marked itself broken if it could not). *)

type t
(** An open journal writer. *)

val create_result :
  ?sync:sync -> ?vfs:Vfs.t -> path:string -> header -> (t, Error.t) result
(** Starts a fresh journal at [path] (truncating any existing file) and
    writes the header record — durable immediately (unless [sync] is {!Off}),
    since resume depends on it.  [sync] defaults to {!Always}, [vfs] to the
    passthrough backend.  Fails with [Journal_locked] when a live process
    holds the journal's lock file, or [Storage] when the disk refuses. *)

val create : ?sync:sync -> ?vfs:Vfs.t -> path:string -> header -> t
(** {!create_result}, raising [Invalid_argument] on failure — for callers
    (tests, benches) that own their paths outright. *)

val append : t -> event -> unit
(** Appends one record under the journal's {!sync} policy.
    @raise Invalid_argument on a closed journal.
    @raise Io when the disk refuses the write. *)

val append_checkpoint : t -> checkpoint -> unit
(** {!append} a checkpoint and force a flush: a checkpoint is a durability
    milestone (compaction may discard history behind it).
    @raise Io when the disk refuses the write. *)

val compact : t -> checkpoint -> (unit, Error.t) result
(** Atomically rewrite the journal as [header + ck] (write-aside, fsync,
    rename).  On success the writer continues into the new file and any
    buffered records are dropped as subsumed; on failure the old journal and
    the writer are untouched.  The caller must ensure [ck] reflects every
    event already appended, including buffered ones. *)

val flush : t -> unit
(** Forces any buffered {!Batch} records to disk (write + fsync).  No-op when
    nothing is pending or under {!Always}/{!Off}.
    @raise Io when the disk refuses the write (the buffer is kept for
    retry). *)

val close : t -> unit
(** Flushes pending records, closes the descriptor, and releases the
    journal's lock; idempotent.  May raise {!Io} if the final flush fails —
    the descriptor and lock are released regardless. *)

val abort : t -> unit
(** Simulated crash, for chaos harnesses: closes the descriptor {e without}
    flushing — buffered {!Batch} records are lost, exactly as a kill -9
    would lose them.  The lock is released (it belongs to this still-live
    process; after a real crash the next opener steals it instead).
    Idempotent with {!close}. *)

type recovered = {
  header : header option;
      (** [None] when even the header record was lost to truncation. *)
  recorded_sync : sync;
      (** the fsync policy the journal was written under ({!Always} for
          journals predating the policy field) *)
  version : int;
      (** header format version (1 for journals predating the field) *)
  events : event list;  (** the surviving prefix, in append order *)
  valid_bytes : int;  (** file offset just past the last whole record *)
  dropped_bytes : int;  (** torn-tail bytes discarded after [valid_bytes] *)
}

val parse : source:string -> string -> (recovered, Error.t) result
(** Pure parser over raw journal bytes ([source] names them in errors).  Any
    byte-truncation of a valid journal parses to the surviving prefix; a CRC
    mismatch or an undecodable payload in a complete record is an error
    positioned at the record's offset. *)

val recover : path:string -> (recovered, Error.t) result
(** Reads and {!parse}s the file at [path]. *)

val resume :
  ?sync:sync -> ?vfs:Vfs.t -> path:string -> unit -> (t * recovered, Error.t) result
(** {!recover} under the writer lock, then reopen [path] for appending: the
    torn tail (if any) is truncated away and subsequent {!append}s continue
    the valid prefix.  Continues under the journal's recorded policy unless
    [sync] overrides it.  Fails when the journal has no header (nothing to
    resume) or when a live process holds the lock ([Journal_locked]). *)

val answered : recovered -> (string * Flaky.reply) list
(** The [Answered] events of the surviving prefix, in order. *)

val split_checkpoint : event list -> checkpoint option * event list
(** The last checkpoint (if any) among recovered events, and the events
    after it: restore the snapshot, replay only the tail.  With no
    checkpoint the full event list comes back — version-1 journals resume
    exactly as before. *)

val crc32 : string -> int
(** The checksum used by the record format (exposed for tests). *)

val lock_path_of : string -> string
(** The sidecar lock path for a journal path (exposed for quarantine
    cleanup and tests). *)
