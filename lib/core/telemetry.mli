(** Telemetry: spans, metrics, trace ids, a flight recorder, and structured
    logs — one layer for the learner engines and for the [serve] daemon.

    The paper's quantitative claims are claims about {e counts and costs} —
    convergence "generally from two examples" (§2) is a question count, the
    PTIME containment of DMS (§2) is a bound on containment-check work.  This
    module gives the engines first-class accounting for both: a span tracer
    for where the time goes, a metrics registry for how much work was done,
    and a leveled key=value logger correlated with the active span.  For the
    server it adds request-scoped trace ids, an always-on flight recorder,
    and labeled sliding-window metrics.

    Instrumented code runs on the main domain, on connection systhreads
    sharing it, and on {!Pool} worker domains; everything here is safe on
    all of them, and work done anywhere is counted.  Every engine entry
    point ({!with_span}, {!Metrics.incr}, {!Metrics.observe}) starts with a
    single load and branch on the mode, so an un-instrumented-feeling fast
    path survives in the innermost enumeration loops; [bench pr3] measures
    the residue in the default mode.

    {2 Naming scheme}

    Metrics are named [learnq.<engine>.<name>] — e.g.
    [learnq.interact.questions], [learnq.journal.fsync_s],
    [learnq.twig.contain_calls].  Spans use [<engine>.<what>] ("interact.ask",
    "twiglearn.lgg", "twig.contain.minimize").  Labeled server families use
    Prometheus names ([learnq_requests_total]).

    Nothing here may perturb engine behaviour: no journal writes, no
    question-sequence effects.  The [telemetry-transparency] fuzz oracle
    checks that observed and unobserved sessions yield identical
    transcripts and journal bytes. *)

(** {1 The switch} *)

(** [Off] records nothing.  [Ring], the default, records spans and events
    in the flight ring only.  [Full] adds engine metrics, span rollups and
    the [--trace] buffer; [--trace], [--metrics] and [--summary] select it. *)
type mode = Off | Ring | Full

val mode : unit -> mode
val set_mode : mode -> unit
val enabled : unit -> bool  (** [mode () = Full] *)

val reset : unit -> unit
(** For tests and benchmarks: clear the flight ring, zero every metric and
    forget label sets, drop recorded spans, open span stacks and the run
    context, and return to [Ring].  Registered metric handles stay valid. *)

(** {1 Run context}

    Key-value pairs stamped into the header of every trace and metrics
    export, so a run is reproducible from its telemetry file alone: the PRNG
    seed, the budget settings, and (added automatically at export time) the
    source revision from [git describe]. *)

val set_context : (string * string) list -> unit
(** Merge pairs into the run context (later values win per key). *)

(** {1 Trace ids}

    A trace id names one request end to end.  Storage is keyed by
    [(domain, thread)] — {e not} [Domain.DLS], which cannot distinguish two
    connection systhreads on the main domain. *)

module Trace : sig
  val mint : unit -> string
  (** A fresh process-unique id ([t<pid>-<seq>]). *)

  val valid : string -> bool
  (** Accept an inbound id: non-empty, at most 64 chars, alphanumeric plus
      [-_.] — anything else is replaced by a minted id rather than echoed
      into logs and headers. *)

  val set : string option -> unit
  (** Install (or clear) the calling thread's trace id. *)

  val current : unit -> string option

  val with_trace : string -> (unit -> 'a) -> 'a
  (** Run with the id installed, restoring the previous id even on raise.
      Used to carry a captured trace onto a pool worker domain. *)
end

(** {1 Spans}

    Nested, monotonic-clock-timed intervals.  A span is opened and closed by
    {!with_span}; nesting follows each thread's call stack. *)

val with_span : ?detail:string -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span, which closes even when
    [f] raises (e.g. {!Budget.Out_of_budget} escaping an enumeration).
    Unless the mode is [Off], the flight ring gets paired [Begin]/[End]
    events stamped with the thread's trace id ([detail] rides on the
    [Begin]).  In [Full] mode the span is also kept (up to a cap) for the
    Chrome exporter and aggregated by name (count, total, self time)
    regardless of the cap.  Identity when [Off]. *)

val current_span_id : unit -> int option
(** The calling thread's innermost open span ([Full]), for log correlation. *)

val span_count : unit -> int
(** Completed spans kept for {!trace_json}: capped, unlike the rollup. *)

val span_aggregates : unit -> (string * int * float * float) list
(** Per-name rollup [(name, count, total_s, self_s)], sorted by total time
    descending.  Self time excludes child spans — the per-engine "where the
    time goes" breakdown. *)

val trace_json : unit -> string
(** Chrome [trace_event] export (JSON object format: ["traceEvents"] complete
    events, one lane per domain, plus an ["otherData"] header with the run
    context).  Loadable in [chrome://tracing] and Perfetto. *)

(** {1 Flight recorder}

    A fixed-size ring of recent events, on unless the mode is [Off], dumped
    when something goes wrong (quarantine, watchdog trip) or on demand
    ([/debug/flightrecorder]).  Writers lock only the slot their domain
    hashes to; the critical section is two array stores. *)

module Recorder : sig
  type phase = Instant | Begin | End

  type event = {
    ev_ns : int64;  (** monotonic timestamp *)
    ev_dom : int;  (** recording domain *)
    ev_trace : string option;  (** the recording thread's trace id *)
    ev_name : string;
    ev_detail : string;
    ev_phase : phase;  (** [Instant] from {!record}; spans write the pairs *)
  }

  val record : ?detail:string -> string -> unit
  (** Append an [Instant] event (unless the mode is [Off]); overwrites the
      oldest once the ring is full.  [Begin]/[End] events come only from
      {!with_span}. *)

  val set_capacity : int -> unit
  (** Total event capacity across all ring slots (default 4096).  Resets
      the buffers. *)

  val events : unit -> event list
  (** All retained events, oldest first across slots. *)

  val trace_events : string -> event list
  (** Retained events stamped with the given trace id: one request's span
      tree across the domains it touched. *)

  val dump_json : unit -> string
  (** Chrome [trace_event] JSON: instant events plus begin/end span pairs,
      one lane per domain, [args.trace] linking lanes of one request. *)

  val dump_to_file : string -> unit
  (** Best-effort write of {!dump_json}; never raises. *)
end

(** {1 Metrics}

    One registry of named counters, gauges and log-scale histograms, each
    family holding one series per label set.  The handles below are the
    unlabeled engine series, recorded in [Full] mode only; {!Labeled}
    addresses labeled series by name and always records. *)

module Metrics : sig
  type counter
  type gauge
  type histogram

  val counter : string -> counter
  (** Register (or look up) a named monotonic counter.  Registration at
      module-initialisation time keeps the hot path free of table lookups. *)

  val incr : ?by:int -> counter -> unit
  (** Lock-free: bumps the calling domain's shard.  No-op unless [Full]. *)

  val counter_value : counter -> int
  (** Summed over every domain, exited ones too. *)

  val gauge : string -> gauge
  val set : gauge -> float -> unit  (** No-op unless [Full]. *)

  val gauge_value : gauge -> float

  val histogram : string -> histogram
  (** Since-boot log-scale histogram (2 buckets per octave from 1e-9 up):
      made for latencies spanning nanoseconds to minutes. *)

  val observe : histogram -> float -> unit  (** No-op unless [Full]. *)

  val hist_count : histogram -> int
  val hist_sum : histogram -> float

  val percentile : histogram -> float -> float
  (** [percentile h p] with [p] in [0,1]: 0. on an empty histogram, the exact
      minimum at [p <= 0.], the exact maximum at [p >= 1.]; otherwise the
      geometric midpoint of the bucket holding the nearest-rank sample,
      clamped to the observed [min, max] (so single-sample and all-equal
      series are exact).  Windowed series use the same estimate. *)

  val metrics_json : unit -> string
  (** Every unlabeled series plus the run-context header and the span
      rollup, as a JSON object. *)

  val metrics_prometheus : unit -> string
  (** Prometheus text exposition of every family: counters and gauges
      as-is, histograms as summaries (p50/p90/p99 quantiles, [_sum] and
      [_count]; windowed ones over the live window), labels as labels, and
      the run context as a [learnq_run_info] gauge. *)
end

module Labeled : sig
  val incr : ?by:int -> string -> (string * string) list -> unit
  (** Bump a labeled counter, creating the family/series on first use. *)

  val counter_value : string -> (string * string) list -> int

  val observe : string -> (string * string) list -> float -> unit
  (** Record a sample into a sliding-window histogram: 6 sub-windows of
      10 s each, a one-minute sliding view.  Rotation is lazy (no ticker
      thread). *)

  val window_stats :
    string ->
    (string * string) list ->
    (int * float * float * float * float) option
  (** [(count, sum, p50, p90, p99)] over the live window, or [None] for an
      unknown series. *)

  val window_percentile : string -> (string * string) list -> float -> float
  (** 0. on an empty window or an unknown series. *)

  val series_count : string -> int
  (** Distinct label sets in a family (includes the overflow series). *)

  val set_max_series : int -> unit
  (** Per-family label-cardinality cap (default 64).  Past the cap, new
      label sets collapse into one [{overflow="true"}] series so the
      overflow is visible instead of unbounded. *)

  val set_clock : (unit -> float) option -> unit
  (** Test hook: window rotation reads this clock ([None] = monotonic). *)
end

(** {1 Structured logging}

    Leveled key=value logging to stderr (or a caller-supplied formatter),
    correlated with the active span and — when the serving path installed
    one on this thread — the active {!Trace} id ([trace=] key).
    Independent of the mode: logs are gated only by level. *)

type level = Debug | Info | Warn | Error

val level_of_string : string -> level option

module Log : sig
  val set_level : level option -> unit
  (** [None] silences the logger entirely.  Default: [Some Warn]. *)

  val level : unit -> level option

  val set_formatter : Format.formatter -> unit  (** Default: stderr. *)

  val debug : ?kv:(string * string) list -> string -> unit
  val info : ?kv:(string * string) list -> string -> unit
  val warn : ?kv:(string * string) list -> string -> unit
  val error : ?kv:(string * string) list -> string -> unit
end

(** {1 CLI wiring} *)

val configure :
  ?trace:string ->
  ?metrics:string ->
  ?log_level:level option ->
  ?summary:bool ->
  unit ->
  unit
(** One-call setup for the [learnq] binary: switches to [Full] when any of
    [trace]/[metrics]/[summary] is requested, sets the log level, and
    registers an [at_exit] hook that writes the trace JSON to [trace], the
    metrics JSON to [metrics] (plus [<metrics>.prom] in Prometheus text
    exposition), and prints a summary table to stderr (non-zero counters
    and gauges, histogram quantiles, the span time rollup) — also on early
    [exit], e.g. degraded outcomes or an injected crash. *)
