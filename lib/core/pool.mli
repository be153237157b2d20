(** A small pool of OCaml 5 domains for data-parallel scans.

    The interactive learners spend most of their time in embarrassingly
    parallel per-item work: the determined-scan over the open pool
    ({!Interact.Make.advance}) and version-space mask tests.  This pool
    keeps [size - 1] worker domains alive across calls (domain spawn costs
    tens of microseconds, far too much to pay once per question) and splits
    each {!map_array} into index chunks claimed from a shared counter.

    The CLI's batch loop passes {!default} to that scan (two lanes
    halve a learn-twig session on an XMark scale-3 document); the server,
    which already runs whole sessions on pool lanes, scans without one.

    {2 Determinism}

    {!map_array} writes result [i] into slot [i] of a pre-sized array: the
    output order is the input order regardless of which domain computed
    which chunk or in what interleaving.  A session driven through the pool
    therefore asks the same questions, in the same order, and writes
    byte-identical journals at every pool size — property-tested in
    [test_twiglearn.ml].

    {2 Sequential fallback}

    A pool of size [<= 1] spawns no domains and {!map_array} degenerates to
    [Array.map] on the calling domain — identical semantics, zero threading.
    The default pool is sequential until {!set_default_size} is called (the
    CLI's [--pool N]); unit tests run sequentially unless they opt in.

    {2 What worker domains may do}

    Worker closures must confine their mutation to their own result slots
    and to domain-local state ([Domain.DLS] — see the twig containment
    cache).  {!Telemetry} is domain-safe: instrumented code may run inside
    a worker, and its counters, histograms and spans are counted as if
    the work had run on the calling domain. *)

type t

val create : int -> t
(** [create size] starts a pool of [size] total lanes: the calling domain
    plus [size - 1] spawned workers ([size <= 1] spawns none).  The pool
    must only be driven from the domain that created it. *)

val size : t -> int

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array pool f xs] is [Array.map f xs], computed on all lanes.
    Results are in input order.  If [f] raises, the exception with the
    lowest input index is re-raised on the calling domain after every
    in-flight chunk has drained (so the pool stays usable). *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map_array} over a list. *)

val map_array_chunked : t -> chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Like {!map_array}, but one lock round dispatches [chunk] consecutive
    items instead of a pool-derived slice, amortizing dispatch overhead
    for micro-items.  [chunk] is clamped to [>= 1]; results are in input
    order at every pool size and exceptions behave as in {!map_array}. *)

val shutdown : t -> unit
(** Stops and joins the worker domains; idempotent.  Further use of the
    pool is a programming error ([Invalid_argument]). *)

(** {1 The process-default pool}

    One shared pool for code (like {!Interact.Make.run_flaky}) that should
    not thread a pool parameter through every caller.  Starts sequential. *)

val set_default_size : int -> unit
(** Resize the default pool (clamped to [>= 1]).  Tears down the old
    worker domains, if any; the next {!default} call rebuilds lazily.
    Workers are also torn down [at_exit]. *)

val default_size : unit -> int

val default : unit -> t
(** The default pool, built on first use at the configured size. *)

val recommended_size : unit -> int
(** [Domain.recommended_domain_count ()], for [--pool 0 = auto] CLI
    conventions. *)
