(** The [learnq serve] daemon: sockets, threads, routing, and the drain
    choreography.

    {2 Thread model}

    One {!Mux} thread (the caller of {!serve}) owns {e every} socket via a
    poll(2) readiness loop: it accepts, parks idle keep-alive connections
    at zero thread cost, feeds bytes to each connection's incremental
    parser, and hands complete requests to a bounded pool of [io_threads]
    workers.  The whole I/O thread budget is [io_threads + 1] no matter
    how many thousands of clients stay connected.  Workers parse and
    validate only; all session work is submitted to {!Admission} and
    executed by the one dispatcher thread, which runs each key-disjoint
    batch across a {!Core.Pool} of domains ({e one domain per batch of
    sessions}) — so two requests never race on one session, and
    fsync-bound sessions overlap with compute-bound ones.

    Slow requests hit the mux's [request_deadline] (measured from a
    request's first byte) and get a 408 without ever occupying a worker;
    connections beyond [max_conns] are shed with 503; parked connections
    beyond [max_idle_conns] are closed oldest-first.

    {2 Wire protocol}

    Line-delimited JSON over HTTP/1.1 keep-alive; the tenant rides in the
    [x-learnq-tenant] header (default ["anon"]).

    {v POST   /v1/sessions              {"id":..,"engine":..,"seed":..}  create/resume
       GET    /v1/sessions/ID                                            current view
       POST   /v1/sessions/ID/answers   {"qid":N,"reply":true|false|"refused"|"timed_out"}
       DELETE /v1/sessions/ID                                            close + forget
       GET    /healthz | /stats | /metrics                               inline, never queued
       GET    /debug/sessions | /debug/tenants | /debug/slow
              /debug/flightrecorder              when [debug_endpoints] v}

    Views are [{"engine","done","degraded","qid","question","question_text",
    "questions","replayed","pruned","refused","query"}]; errors are
    [{"error":msg,"trace":id}] with 400 (malformed), 404 (unknown session),
    409 (conflicting spec / stale qid), 429 (quota or breaker, with
    [Retry-After]), 503 (shedding or draining, with [Retry-After]), 507
    (disk full).

    {2 Observability}

    Every request gets a trace id — a well-formed inbound [X-Learnq-Trace]
    is honored, otherwise one is minted — installed in {!Core.Telemetry.Trace}
    for the connection thread, captured into the admission job, and
    re-installed on the pool domain that executes it: log lines, error
    bodies, flight-recorder events (journal fsyncs, vfs faults, question
    asked/answered, evictions, breaker trips) and the [X-Learnq-Trace]
    response header all carry the same id.  Request latencies feed labeled
    sliding-window metrics ([learnq_request_seconds{tenant=…}],
    [learnq_requests_total{route=…,outcome=…,tenant=…}]) appended to
    [/metrics].  Requests at or over [slow_ms] land in a 64-entry ring
    served by [/debug/slow].  A stall watchdog (on the accept loop's tick)
    flags requests in flight longer than [stall_after]: it bumps
    [learnq_watchdog_stalled_total] and the [/stats] [stalled] counter,
    records the event, and dumps the flight recorder to
    [<state_dir>/flightrecorder-stall.json] — it never kills the request.

    {2 Storage robustness}

    Sessions checkpoint + compact their journals every [checkpoint_every]
    answers; {!Registry.evict_idle} (run by the dispatcher between
    batches) closes sessions beyond [max_live_sessions] or idle past
    [idle_evict_after], and requests touching an evicted session resume it
    transparently from its journal.  The first ENOSPC flips the daemon
    into {e degraded read-only mode}: creates are refused with 507 (and,
    under [sync = Off], steps too — an unsynced append can lie about a
    full disk); a ~1/s write-fsync probe in the accept loop leaves the
    mode as soon as the disk takes allocations again.  Corrupt journals
    are quarantined ([<name>.quarantine]) rather than retried forever;
    [/stats] reports [degraded], [evicted], [resumed], [quarantined].

    {2 Drain}

    {!drain} (async-signal-safe: a flag write) starts the choreography:
    stop accepting, answer session requests 503, let the dispatcher finish
    the queued backlog, wait up to [drain_grace] for connection threads,
    journal-sync every live session ({!Registry.drain}), shut the pool
    down, return from {!serve}.  The process exits 0 with every journal
    flushed — the next start resumes them. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port (reported via [on_listen]) *)
  state_dir : string;
  pool : int;  (** domains for batch execution and recovery *)
  max_queue : int;  (** admission backlog bound *)
  max_conns : int;  (** concurrent connections; excess get 503 *)
  io_threads : int;  (** mux worker threads running request handlers *)
  max_idle_conns : int;
      (** parked keep-alive cap; oldest evicted beyond it; 0 = unlimited *)
  request_deadline : float;
      (** seconds from a request's first byte to its 408; slow-loris
          clients are cut here without costing a thread *)
  sync : Core.Journal.sync;
  tenants : Tenant.t;
  step_fuel : int option;
  step_timeout : float option;
  drain_grace : float;  (** seconds to wait for connections on drain *)
  on_listen : int -> unit;  (** called with the bound port *)
  vfs : Core.Vfs.t;
      (** storage backend; the chaos harness swaps in {!Core.Vfs.faulty} *)
  checkpoint_every : int;
      (** compact each session's journal every N answers; 0 = never *)
  max_live_sessions : int;  (** LRU-evict beyond this many; 0 = unlimited *)
  idle_evict_after : float;  (** evict sessions idle this long; 0 = never *)
  slow_ms : float;
      (** requests at/over this many milliseconds land in the /debug/slow
          ring *)
  stall_after : float;
      (** watchdog deadline (seconds) for in-flight requests *)
  flight_recorder_size : int;
      (** total flight-recorder event capacity; 0 keeps the default *)
  debug_endpoints : bool;  (** serve the [/debug/*] routes *)
}

val default_config : config
(** 127.0.0.1:0, ["./learnq-state"], pool 2, queue 256, 128 conns, 4 io
    threads, unlimited idle conns, 30s request deadline, [Batch] sync,
    default tenants, no step caps, 5s grace, real storage, no checkpoints,
    unbounded residency, 250ms slow threshold, 30s watchdog, default
    recorder capacity, debug endpoints on. *)

type t

val create : config -> t

val serve : t -> (unit, string) result
(** Binds, recovers the state directory, and serves until {!drain}.
    [Error] is a bind/listen failure. *)

val drain : t -> unit
(** Idempotent; callable from a signal handler or another thread. *)

val with_inprocess : config -> (t -> int -> 'a) -> ('a, string) result
(** [with_inprocess cfg f] boots a daemon on a thread of this process,
    waits for it to listen, runs [f daemon port], then drains it and joins
    its thread (also when [f] raises).  [cfg.on_listen] is still called.
    [Error] is {!serve}'s bind/listen failure, in which case [f] never
    runs.  SIGPIPE is ignored, as [learnq serve] does, since peers may
    close their sockets mid-response.  The tests and the in-process benches
    boot their daemons through this. *)

val draining : t -> bool

val degraded : t -> bool
(** The daemon is in degraded read-only mode (disk full, not yet healed). *)

val registry : t -> Registry.t
(** Exposed for in-process tests and the chaos harness. *)

val stalled : t -> int
(** Lifetime watchdog trips (also in [/stats] as ["stalled"]). *)
