(** The three learnable query classes of the paper — twig, join, path —
    adapted to server sessions.

    A session is born from a {!spec}: which engine, and the seed and size
    knobs of the synthetic instance it learns over.  The spec is canonically
    serialized into the journal header's [config] line, so a crashed
    session's journal alone suffices to regenerate the {e identical}
    instance (generators are deterministic in the seed) and resume — the
    daemon stores nothing else.

    {!oracle} turns a spec plus a goal description into a labeling
    function, and {!user} into the simulated crowd user that the serve
    benches and the server fuzz oracles answer their questions with. *)

type spec = {
  engine : string;  (** ["twig"], ["join"], or ["path"] *)
  seed : int;
  scale : float;  (** twig: XMark scale factor *)
  rows : int;  (** join: rows per relation *)
  cities : int;  (** path: geo graph size *)
}

val default_spec : spec
(** twig, seed 0, scale 0.1, 12 rows, 12 cities. *)

val config_of_spec : spec -> string
(** Canonical [key=value] line stored in the journal header. *)

val max_scale : float
val max_rows : int
val max_cities : int
(** Instance-size ceilings enforced by {!validate}: a spec fresh off the
    wire or replayed from a journal header must not be able to allocate an
    arbitrarily large instance on a pool domain. *)

val validate : spec -> (spec, string) result
(** Checks the engine name and that [scale]/[rows]/[cities] are positive,
    finite, and within the ceilings above. *)

val spec_of_config : string -> (spec, string) result
(** Inverse of {!config_of_spec} (order-insensitive, unknown keys are
    errors); the result is {!validate}d, so a poisoned journal header is an
    [Error], not a daemon-killing allocation at recovery. *)

val spec_of_json : Json.t -> (spec, string) result
(** Reads [engine]/[seed]/[scale]/[rows]/[cities] fields, defaulting the
    absent ones from {!default_spec}; the result is {!validate}d. *)

val json_of_spec : spec -> Json.t

val header_of_spec : spec -> Core.Journal.header
(** [engine] is namespaced ["serve-twig"] etc., so server journals are
    distinguishable from CLI ones. *)

val make :
  ?journal:Core.Journal.t ->
  ?resume:Core.Journal.event list ->
  ?step_budget:(unit -> Core.Budget.t) ->
  ?checkpoint_every:int ->
  spec ->
  (Stepper.t, Core.Error.t) result
(** Builds the instance from the spec and wraps the engine's
    [Interactive.Session] in a {!Stepper}, wiring in the engine's state
    codec so checkpoints work for every engine: a [resume] bearing a
    {!Core.Journal.checkpoint} restores from it, and [checkpoint_every] > 0
    compacts the journal every N labeled answers. *)

val oracle : spec -> goal:string -> (string -> bool, Core.Error.t) result
(** A labeling function over {e codec strings} (the stepper's [question]
    field), simulating a user who holds [goal]: twig — a twig query string;
    join — ["planted"] for the instance's hidden predicate; path — a
    regular expression over edge labels. *)

val user :
  spec ->
  truth:(string -> bool) ->
  refusal:int ->
  timeout:int ->
  noise:int ->
  string ->
  Core.Flaky.reply
(** [user spec ~truth ~refusal ~timeout ~noise key] is the simulated user's
    reply to question [key]: refused with probability [refusal]‰, timed out
    with [timeout]‰, otherwise [Label (truth key)] flipped with [noise]‰.
    The draws come from a PRNG seeded by the spec's seed and a hash of
    [key], so the reply is a pure function of the question: a session
    re-asked after a crash sees the same replies in the same order as an
    uninterrupted one, which is what the server's crash-equivalence checks
    rely on.  Zero rates give [Label (truth key)]. *)
