(** The differential and metamorphic oracles.

    Each oracle packages a generator, a checkable property, a shrinking
    candidate function and a size measure for one cross-implementation
    invariant — cached ≡ uncached, incremental ≡ batch, parallel ≡
    sequential, parse ∘ print ≡ id, optimized ≡ naive reference.  The
    {!Runner} drives them; nothing here depends on how many iterations run
    or where counterexamples go.

    A check returns [Error reason] on a violated invariant and must be a
    deterministic function of its input: shrinking re-evaluates it on every
    reduction candidate, and [--replay] re-evaluates it on a regenerated
    input. *)

type 'a spec = {
  name : string;  (** CLI identifier, e.g. ["eval-cache"] *)
  about : string;  (** one-line description for [learnq fuzz --list] *)
  generate : Core.Prng.t -> size:int -> 'a;
  check : 'a -> (unit, string) result;
  candidates : 'a -> 'a list;  (** {!Shrink}-style reduction candidates *)
  print : 'a -> string;  (** human rendering for artifacts *)
  size_of : 'a -> int;  (** structural size (nodes), the shrink metric *)
}

type t = Spec : 'a spec -> t  (** existentially packaged *)

val name : t -> string
val about : t -> string

val all : t list
(** Every oracle, in reporting order. *)

val find : string -> t option

val serial : t -> bool
(** Oracles that mutate process-global state (the telemetry mode) and
    therefore must not run concurrently with other oracles.  The parallel
    {!Runner} pins these to the calling domain; everything else may run on
    pool workers. *)
