(** Fault injection: the simulated crowd worker of the paper's Section 3,
    who sometimes answers a question (a paid HIT) wrong, declines it, or
    never returns; and the disk faults {!Vfs.faulty} injects.
    [Interact.Make.run_flaky] drives a session against the worker, setting
    refused/timed-out questions aside instead of crashing. *)

type reply =
  | Label of bool  (** an answer (possibly flipped by noise) *)
  | Refused  (** the user declined to answer this question *)
  | Timed_out  (** the answer never arrived *)

val user :
  seed:int ->
  truth:(string -> bool) ->
  refusal:int ->
  timeout:int ->
  noise:int ->
  ?attempt:int ->
  string ->
  reply
(** [user ~seed ~truth ~refusal ~timeout ~noise key] is the one simulated
    user's reply to the question whose codec key is [key]: refused with
    probability [refusal]‰, timed out with [timeout]‰, otherwise
    [Label (truth key)] flipped with [noise]‰.  The draws come from a PRNG
    seeded by [seed] and a hash of [key], never from the questions asked
    before, so a resumed session gets its uninterrupted run's replies.

    [attempt] (default 0) numbers the asks of one question, as when a
    refused HIT is re-issued (DESIGN §6.2).  Attempt [n >= 1] re-rolls
    only the refusal and the timeout, from ([seed], [key], [n]); the
    label, noise flip included, is attempt 0's: a retry can rescue a
    refusal but never changes an answer. *)

type profile = { noise : int; refusal : int; timeout : int }
(** Fault rates in ‰, as {!user} takes them. *)

val profile : ?noise:float -> ?refusal:float -> ?timeout:float -> unit -> profile
(** Probabilities rounded to ‰; each defaults to 0.  @raise Invalid_argument
    when a rate is outside [0,1] or refusal + timeout exceeds 1. *)

(** {2 Disk faults}

    What real disks do to a write-ahead log: refuse the bytes ([enospc],
    [eio]), take only some of them ([short_write]), acknowledge an fsync
    without making the bytes durable ([lying_fsync]), and — at the crash
    itself — tear a multi-byte write at an arbitrary offset ([torn]).
    [Vfs.faulty] implements these against real files; the rates here are
    per-operation probabilities. *)

type disk = {
  enospc : float;  (** probability an append fails with [ENOSPC] *)
  eio : float;  (** probability an append fails with [EIO] *)
  short_write : float;
      (** probability an append takes only a prefix before failing *)
  lying_fsync : float;
      (** probability an fsync reports success without durability *)
  torn : float;
      (** probability a simulated crash keeps a torn prefix of the
          unfsynced tail instead of dropping it whole *)
}

val no_disk_faults : disk

val disk :
  ?enospc:float ->
  ?eio:float ->
  ?short_write:float ->
  ?lying_fsync:float ->
  ?torn:float ->
  unit ->
  disk
(** Rates default to 0.  @raise Invalid_argument outside [0,1]. *)
