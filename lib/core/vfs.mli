(** A narrow file-I/O seam under {!Journal} and the session registry.

    {!real} passes straight through to [Unix].  {!faulty} injects, with
    seeded probabilities from a {!Flaky.disk} plan, the failure modes real
    disks exhibit: ENOSPC, EIO, short writes, fsyncs that acknowledge
    without persisting, and torn multi-byte writes at simulated crash time.

    The faulty backend operates on real files and tracks written-vs-durable
    byte counts per path; {!crash} truncates every file back to its durable
    prefix (or, with probability [torn], a fuzzed strict prefix of the lost
    tail).  Write-side operations raise [Unix.Unix_error] exactly as the
    passthrough would; read-side operations are always faithful so recovery
    can trust what it reads.  All injected faults are logged for the chaos
    gates ("every quarantine traces to an injected fault"). *)

type t

type fh
(** An open write handle (append-only; journals never seek backwards
    except to truncate a torn tail). *)

type fault_kind =
  | Enospc
  | Eio
  | Short_write of int  (** bytes that made it before the error *)
  | Lying_fsync
  | Torn of int  (** bytes of unfsynced tail kept by the crash *)

type fault = { f_path : string; f_op : string; f_kind : fault_kind }

val real : t
(** Passthrough to [Unix]; zero overhead, injects nothing. *)

val faulty : ?seed:int -> Flaky.disk -> t
(** A fault-injecting backend.  Each file draws from its own stream,
    seeded by [seed] and the file's base name, so its faults are the same
    however domains interleave.  Thread-safe: registry pools may hit it
    from several domains. *)

(** {2 Write side — faults injected here} *)

val openf : ?trunc:bool -> t -> string -> fh
(** Open (creating if needed, truncating when [trunc]) for appending.
    Under a scripted disk-full condition, creating a {e new} file raises
    [ENOSPC]. *)

val append : t -> fh -> string -> unit
(** Append all bytes.  May raise [Unix.Unix_error (ENOSPC|EIO, _, _)];
    on a short write a strict prefix really lands in the file before the
    error is raised — recovery sees the torn bytes. *)

val fsync : t -> fh -> unit
(** Really fsyncs; with probability [lying_fsync] the durable watermark is
    not advanced, so a later {!crash} drops bytes the caller believed
    safe. *)

val ftruncate : t -> fh -> int -> unit
val close : t -> fh -> unit

val link : t -> string -> string -> unit
(** [link src dst]: atomic lock-file creation.  Raises [ENOSPC] when the
    disk is scripted full (a new directory entry needs space). *)

val rename : t -> string -> string -> unit
(** Atomic replace — the compaction and quarantine commit point. *)

val unlink : t -> string -> unit
val mkdir : t -> string -> unit

(** {2 Read side — always faithful} *)

val exists : t -> string -> bool
val size : t -> string -> int
val readdir : t -> string -> string array
val read_file : t -> string -> string

(** {2 Fault control} *)

val set_full : t -> bool -> unit
(** Script a disk-full episode: every allocation (append, new file, link)
    fails with [ENOSPC] until cleared.  Drives the daemon's degraded
    read-only mode and its self-heal probe in tests. *)

val set_stall : t -> float -> unit
(** Script a slow disk: every subsequent fsync sleeps this many seconds
    (0. clears).  Each stalled fsync leaves a [vfs.stall] event in the
    flight recorder, so a dragging request is findable end to end.  No-op
    on {!real}. *)

val crash : t -> unit
(** Simulate powerloss: truncate every tracked file to its durable prefix
    (plus, with probability [torn], a fuzzed strict prefix of the lost
    tail).  Open handles become stale; reopen via {!openf} after. *)

val faults : t -> fault list
(** Injected faults, oldest first. *)

val fault_count : t -> int
