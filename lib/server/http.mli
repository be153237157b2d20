(** A deliberately small HTTP/1.1 server-side codec.

    The wire protocol is line-delimited JSON over HTTP: every request body
    and every response body is a single JSON value on one line.  No chunked
    transfer-encoding, no pipelining beyond keep-alive, no multi-valued
    headers — just enough of RFC 9112 for [curl] and the bundled
    {!Client} to speak to the daemon.

    Both parsers are pure, so tests can exercise framing without sockets:
    {!parse_head} reads one request head, and {!incremental} resumes
    parsing across arbitrary byte splits (with size caps, so a hostile peer
    cannot balloon memory) for the multiplexer. *)

type request = {
  meth : string;  (** uppercased verb: ["GET"], ["POST"], … *)
  path : string;  (** request-target as sent, e.g. ["/v1/sessions/s1"] *)
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

type response = {
  status : int;
  headers : (string * string) list;  (** extra headers; framing is added *)
  body : string;  (** sent verbatim, with a trailing newline appended *)
}

val header : string -> request -> string option
(** Case-insensitive header lookup. *)

val parse_head : string -> (request, string) result
(** Parses a request head (request line + header lines, no body, no
    terminating blank line) into a {!request} with an empty [body]. *)

val reason : int -> string
(** Canonical reason phrase ("OK", "Too Many Requests", …). *)

(** {1 Incremental (resumable) request parsing}

    The connection multiplexer owns many sockets on one thread, so it
    cannot block for a request's remaining bytes: it {!feed}s whatever the
    socket had and calls {!step}, which either produces a complete request,
    asks for more, or reports a framing error.  A request's bytes may be
    split at {e any} boundary across any number of feeds — the
    [http-incremental-parse] fuzz oracle checks the result is identical to
    whole-buffer {!parse_head}+body parsing.  Pipelined bytes beyond a
    completed request stay buffered for the next [step]. *)

type incremental

val incremental : ?max_head:int -> ?max_body:int -> unit -> incremental
(** A fresh parser (default caps 16 KiB head / 1 MiB body). *)

val feed : incremental -> string -> unit
val feed_sub : incremental -> Bytes.t -> pos:int -> len:int -> unit

val step :
  incremental -> [ `Request of request | `More | `Error of string ]
(** [`Request r] consumes exactly [r]'s bytes (call again for a pipelined
    successor); [`More] means the buffered prefix is valid but incomplete;
    [`Error] (oversized or malformed framing) is sticky — the connection
    is beyond salvage. *)

val pending : incremental -> int
(** Unconsumed buffered bytes. *)

val mid_request : incremental -> bool
(** A request has started but not completed — the multiplexer's
    slow-request deadline applies; [false] means the connection is idle
    and may park indefinitely. *)

(** {1 Responses} *)

val response_bytes : keep_alive:bool -> response -> string
(** The serialized wire form: status line, headers ([Content-Length],
    [Connection], a default [Content-Type], any extras), body + ["\n"].
    The multiplexer writes these bytes non-blockingly. *)

