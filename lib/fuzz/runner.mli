(** The fuzzing loop: N iterations per oracle under a {!Core.Budget},
    deterministic from one master seed, with per-oracle stats in
    {!Core.Telemetry} and minimized counterexamples as {!Artifact}s.

    Each oracle gets its own PRNG stream derived from [(master seed, oracle
    name)] — adding or selecting oracles never perturbs another oracle's
    cases — and each case runs at a size cycling through [1..max_size].
    The first failing case of an oracle is shrunk (re-checking the oracle
    on every reduction step) and reported; the loop then moves to the next
    oracle rather than re-finding the same bug. *)

type stats = {
  oracle : string;
  runs : int;  (** cases executed (≤ iters when interrupted or failed) *)
  failures : int;  (** 0 or 1: an oracle stops at its first failure *)
}

type counterexample = {
  artifact : Artifact.t;
  path : string option;  (** where it was written when a dir was given *)
}

type report = {
  stats : stats list;
  counterexamples : counterexample list;
  interrupted : bool;  (** the budget ran out before all cases ran *)
}

val run :
  ?oracles:Oracle.t list ->
  ?budget:Core.Budget.t ->
  ?dir:string ->
  ?max_size:int ->
  ?jobs:int ->
  iters:int ->
  seed:int ->
  unit ->
  report
(** [oracles] defaults to {!Oracle.all}; [max_size] to 10; [budget] to
    unlimited (one fuel tick per case).  When [dir] is given, every
    counterexample is saved there.

    [jobs] (default 1) > 1 runs the oracles on a {!Core.Pool} of that
    many lanes.  Per-oracle PRNG streams are derived exactly as in
    sequential mode, and each oracle's state is confined to locals,
    unique temp files, and domain-local caches, so every oracle sees the
    same cases at every job count; {!Oracle.serial} oracles (which flip
    the telemetry mode) run on the calling domain after the parallel
    batch.  Stats stay in input oracle order.  Under a
    budget, sequential mode stops scheduling oracles when fuel runs out,
    while parallel mode reports an entry per oracle; the shared fuel
    counter is decremented from all lanes without synchronization — ticks
    may be lost, the cap is approximate. *)

val replay :
  Artifact.t -> [ `Passed | `Failed of string | `Unknown_oracle of string ]
(** Regenerate the artifact's input from its recorded seed and size and
    re-run the oracle — [`Passed] means the recorded bug no longer
    reproduces. *)
