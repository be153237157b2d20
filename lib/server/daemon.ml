module Error = Core.Error
module Telemetry = Core.Telemetry

type config = {
  host : string;
  port : int;
  state_dir : string;
  pool : int;
  max_queue : int;
  max_conns : int;
  io_threads : int;  (** mux worker threads running request handlers *)
  max_idle_conns : int;
      (** parked keep-alive connections beyond this are evicted oldest
          first; 0 = unlimited *)
  request_deadline : float;
      (** seconds from a request's first byte to its 408 *)
  sync : Core.Journal.sync;
  tenants : Tenant.t;
  step_fuel : int option;
  step_timeout : float option;
  drain_grace : float;
  on_listen : int -> unit;
  vfs : Core.Vfs.t;  (** storage backend (chaos harness swaps in faults) *)
  checkpoint_every : int;  (** compact sessions every N answers; 0 = off *)
  max_live_sessions : int;  (** LRU-evict beyond this; 0 = unlimited *)
  idle_evict_after : float;  (** evict sessions idle this long; 0 = off *)
  slow_ms : float;  (** requests at/over this land in the slow ring *)
  stall_after : float;  (** watchdog deadline for in-flight requests *)
  flight_recorder_size : int;  (** total recorder events; 0 = default *)
  debug_endpoints : bool;  (** serve /debug/\{sessions,tenants,slow,…\} *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    state_dir = "./learnq-state";
    pool = 2;
    max_queue = 256;
    max_conns = 128;
    io_threads = 4;
    max_idle_conns = 0;
    request_deadline = 30.0;
    sync = Core.Journal.Batch;
    tenants = Tenant.make [];
    step_fuel = None;
    step_timeout = None;
    drain_grace = 5.0;
    on_listen = (fun _ -> ());
    vfs = Core.Vfs.real;
    checkpoint_every = 0;
    max_live_sessions = 0;
    idle_evict_after = 0.;
    slow_ms = 250.;
    stall_after = 30.;
    flight_recorder_size = 0;
    debug_endpoints = true;
  }

type slow_entry = {
  sl_trace : string;
  sl_route : string;
  sl_tenant : string;
  sl_status : int;
  sl_ms : float;
  sl_at : float;  (** wall clock, for the /debug/slow listing *)
}

type inflight = {
  if_trace : string;
  if_route : string;
  if_tenant : string;
  if_started : float;  (** monotonic *)
  mutable if_flagged : bool;  (** already counted by the watchdog *)
}

type t = {
  cfg : config;
  registry : Registry.t;
  admission : Admission.t;
  drain_flag : bool Atomic.t;
  degraded_flag : bool Atomic.t;
      (** the disk said ENOSPC: refuse writes until the probe heals *)
  mutable mux : Mux.t option;  (** set by [serve] before the loop starts *)
  requests : int Atomic.t;
  req_seq : int Atomic.t;  (** in-flight table key generator *)
  slow_mu : Mutex.t;
  slow_ring : slow_entry option array;  (** newest overwrite oldest *)
  mutable slow_pos : int;
  inflight_mu : Mutex.t;
  inflight : (int, inflight) Hashtbl.t;
  stalled : int Atomic.t;  (** watchdog trips, lifetime *)
}

let m_shed = Telemetry.Metrics.counter "learnq.serve.shed"
let m_tripped = Telemetry.Metrics.counter "learnq.serve.tripped"
let m_faults = Telemetry.Metrics.counter "learnq.serve.client_faults"
let g_sessions = Telemetry.Metrics.gauge "learnq.serve.sessions"

let m_degraded = Telemetry.Metrics.counter "learnq.serve.degraded_entered"

let create cfg =
  let registry =
    Registry.create
      {
        Registry.dir = cfg.state_dir;
        sync = cfg.sync;
        tenants = cfg.tenants;
        step_fuel = cfg.step_fuel;
        step_timeout = cfg.step_timeout;
        vfs = cfg.vfs;
        checkpoint_every = cfg.checkpoint_every;
        max_live = cfg.max_live_sessions;
        idle_evict_after = cfg.idle_evict_after;
      }
  in
  let admission = Admission.create ~max_queue:cfg.max_queue () in
  if cfg.flight_recorder_size > 0 then
    Telemetry.Recorder.set_capacity cfg.flight_recorder_size;
  {
    cfg;
    registry;
    admission;
    drain_flag = Atomic.make false;
    degraded_flag = Atomic.make false;
    mux = None;
    requests = Atomic.make 0;
    req_seq = Atomic.make 0;
    slow_mu = Mutex.create ();
    slow_ring = Array.make 64 None;
    slow_pos = 0;
    inflight_mu = Mutex.create ();
    inflight = Hashtbl.create 32;
    stalled = Atomic.make 0;
  }

(* Order matters: the admission queue must refuse before the atomic flag
   flips, because the dispatcher exits on [draining && pending = 0] — if a
   submit could still enqueue after that check, its waiter would block
   forever.  Seeing drain_flag = true implies Admission.drain completed,
   which implies any job counted by a later [pending] read was enqueued
   before the refusal point. *)
let drain t =
  Admission.drain t.admission;
  Atomic.set t.drain_flag true;
  (* Nudge the two sleepers that check the flag: the dispatcher (blocked in
     take_batch) and the mux (blocked in poll). *)
  Admission.wake t.admission;
  match t.mux with Some m -> Mux.wake m | None -> ()

let draining t = Atomic.get t.drain_flag
let registry t = t.registry
let stalled t = Atomic.get t.stalled

(* Degraded read-only mode: the first ENOSPC flips the flag; session
   creation is refused outright (507) and — under [sync = Off], where an
   append can land in the page cache without the disk ever admitting it has
   no room for it — steps are refused too.  Under Always/Batch a step's own
   fsync surfaces the disk state, so steps stay admitted and either succeed
   (space came back) or return the honest 507. *)
let degraded t = Atomic.get t.degraded_flag

let enter_degraded t =
  if not (Atomic.exchange t.degraded_flag true) && Telemetry.enabled ()
  then begin
    Telemetry.Metrics.incr m_degraded;
    Telemetry.Log.warn "disk full: entering degraded read-only mode"
  end

(* Self-heal: a tiny write-fsync-unlink round trip in the state directory.
   Success means the disk takes allocations again — leave degraded mode. *)
let probe_disk t =
  if degraded t then begin
    let vfs = t.cfg.vfs in
    let path = Filename.concat t.cfg.state_dir ".heal-probe" in
    match
      let fh = Core.Vfs.openf ~trunc:true vfs path in
      Fun.protect
        ~finally:(fun () -> try Core.Vfs.close vfs fh with Unix.Unix_error _ -> ())
        (fun () ->
          Core.Vfs.append vfs fh "ok";
          Core.Vfs.fsync vfs fh);
      Core.Vfs.unlink vfs path
    with
    | () ->
        Atomic.set t.degraded_flag false;
        if Telemetry.enabled () then
          Telemetry.Log.info "disk recovered: leaving degraded mode"
    | exception Unix.Unix_error _ -> ()
    | exception Sys_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let json_response ?(headers = []) status j =
  { Http.status; headers; body = Json.to_string j }

(* Error bodies carry the trace id so a client's error report names the
   exact request in the server's logs, slow ring, and flight recorder.
   Works on connection threads and — because the dispatcher re-installs
   the job's trace — on pool domains too. *)
let error_response ?headers status msg =
  let fields = [ ("error", Json.Str msg) ] in
  let fields =
    match Telemetry.Trace.current () with
    | Some id -> fields @ [ ("trace", Json.Str id) ]
    | None -> fields
  in
  json_response ?headers status (Json.Obj fields)

let retry_after_headers ra =
  [ ("Retry-After", string_of_int (max 1 (int_of_float (Float.ceil ra)))) ]

let status_of_error = function
  | Error.Over_quota _ -> 429
  | Error.Journal_locked _ -> 409
  | Error.Invalid_input { what = "session"; _ } -> 409
  | Error.Invalid_input { what = "qid"; _ } -> 409
  | Error.Invalid_input _ | Error.Parse _ -> 400
  | Error.Budget_exhausted _ -> 503
  | Error.Corrupt_journal _ -> 500
  (* 507 Insufficient Storage: retryable once space returns; other storage
     failures (EIO) are plain 500s. *)
  | Error.Storage { full = true; _ } -> 507
  | Error.Storage _ -> 500

let of_error e = error_response (status_of_error e) (Error.to_string e)

let view_json (v : Stepper.view) =
  Json.Obj
    [
      ("engine", Json.Str v.engine);
      ("done", Json.Bool v.done_);
      ("degraded", Json.Bool v.degraded);
      ("qid", Json.of_int v.qid);
      ("question", Json.of_opt (fun s -> Json.Str s) v.question);
      ("question_text", Json.of_opt (fun s -> Json.Str s) v.question_text);
      ("questions", Json.of_int v.questions);
      ("replayed", Json.of_int v.replayed);
      ("pruned", Json.of_int v.pruned);
      ("refused", Json.of_int v.refused);
      ("query", Json.of_opt (fun s -> Json.Str s) v.query);
    ]

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

(* Paths: /v1/sessions[/ID[/answers]] *)
let split_path path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

(* Metric label for a route: session ids are collapsed so the label set
   stays small (the Telemetry cardinality cap would fold an id-per-series
   explosion into an overflow bucket, but there is no reason to get near
   it). *)
let route_label meth parts =
  match (meth, parts) with
  | "POST", [ "v1"; "sessions" ] -> "/v1/sessions"
  | ("GET" | "DELETE"), [ "v1"; "sessions"; _ ] -> "/v1/sessions/:id"
  | "POST", [ "v1"; "sessions"; _; "answers" ] -> "/v1/sessions/:id/answers"
  | "GET", [ "healthz" ] -> "/healthz"
  | "GET", [ "stats" ] -> "/stats"
  | "GET", [ "metrics" ] -> "/metrics"
  | "GET", "debug" :: _ -> "/debug"
  | _ -> "other"

let outcome_label status =
  if status < 300 then "2xx"
  else if status < 400 then "3xx"
  else if status < 500 then "4xx"
  else "5xx"

let tenant_of req =
  match Http.header "x-learnq-tenant" req with
  | Some ten when ten <> "" -> ten
  | _ -> "anon"

(* ------------------------------------------------------------------ *)
(* Request accounting: labeled metrics, slow ring, in-flight watchdog  *)
(* ------------------------------------------------------------------ *)

let track_inflight t ~trace ~route ~tenant =
  let seq = Atomic.fetch_and_add t.req_seq 1 in
  let e =
    {
      if_trace = trace;
      if_route = route;
      if_tenant = tenant;
      if_started = Core.Monotonic.now ();
      if_flagged = false;
    }
  in
  Mutex.protect t.inflight_mu (fun () -> Hashtbl.replace t.inflight seq e);
  seq

let untrack_inflight t seq =
  Mutex.protect t.inflight_mu (fun () -> Hashtbl.remove t.inflight seq)

(* The stall watchdog: called from the accept loop's select tick.  An
   in-flight request older than the deadline is flagged exactly once —
   the alertable counter bumps, the event lands in the flight recorder,
   and the recorder is dumped next to the state dir for the post-mortem.
   The request itself is left alone: it may still complete (a slow disk),
   and killing it would turn an incident into data loss. *)
let watchdog t =
  let now = Core.Monotonic.now () in
  let tripped =
    Mutex.protect t.inflight_mu (fun () ->
        Hashtbl.fold
          (fun _ e acc ->
            if (not e.if_flagged) && now -. e.if_started >= t.cfg.stall_after
            then begin
              e.if_flagged <- true;
              e :: acc
            end
            else acc)
          t.inflight [])
  in
  List.iter
    (fun e ->
      Atomic.incr t.stalled;
      Telemetry.Labeled.incr "learnq_watchdog_stalled_total"
        [ ("tenant", e.if_tenant); ("route", e.if_route) ];
      Telemetry.Recorder.record
        ~detail:(Printf.sprintf "%s %s age>%.1fs" e.if_trace e.if_route
                   t.cfg.stall_after)
        "watchdog.stall";
      Telemetry.Recorder.dump_to_file
        (Filename.concat t.cfg.state_dir "flightrecorder-stall.json");
      Telemetry.Log.warn
        ~kv:
          [
            ("trace", e.if_trace);
            ("route", e.if_route);
            ("tenant", e.if_tenant);
          ]
        "request stalled past the watchdog deadline")
    tripped

let observe_request t ~trace ~route ~tenant ~status ~dur =
  Telemetry.Labeled.incr "learnq_requests_total"
    [ ("route", route); ("outcome", outcome_label status); ("tenant", tenant) ];
  Telemetry.Labeled.observe "learnq_request_seconds" [ ("tenant", tenant) ] dur;
  let ms = dur *. 1e3 in
  if ms >= t.cfg.slow_ms then begin
    Telemetry.Recorder.record
      ~detail:(Printf.sprintf "%s %s %.1fms" route tenant ms)
      "http.slow";
    let e =
      {
        sl_trace = trace;
        sl_route = route;
        sl_tenant = tenant;
        sl_status = status;
        sl_ms = ms;
        sl_at = Unix.gettimeofday ();
      }
    in
    Mutex.protect t.slow_mu (fun () ->
        t.slow_ring.(t.slow_pos) <- Some e;
        t.slow_pos <- (t.slow_pos + 1) mod Array.length t.slow_ring)
  end

let reply_of_json j =
  match Json.mem "reply" j with
  | Some (Json.Bool b) -> Ok (Core.Flaky.Label b)
  | Some (Json.Str "refused") -> Ok Core.Flaky.Refused
  | Some (Json.Str "timed_out") -> Ok Core.Flaky.Timed_out
  | _ -> Error "reply must be true, false, \"refused\", or \"timed_out\""

(* Build the work closure for a session route; [None] means the route
   needs no queue (handled inline by the caller). *)
let session_job t ~tenant (req : Http.request) parts body =
  match (req.meth, parts) with
  | "POST", [ "v1"; "sessions" ] -> (
      match body with
      | Error msg -> Error (error_response 400 ("bad json: " ^ msg))
      | Ok j -> (
          match Json.get_str "id" j with
          | None -> Error (error_response 400 "missing session \"id\"")
          | Some id -> (
              match Engines.spec_of_json j with
              | Error msg -> Error (error_response 400 msg)
              | Ok spec ->
                  Ok
                    ( id,
                      fun () ->
                        if degraded t then
                          error_response 507
                            "degraded: disk full, not creating sessions"
                        else
                          match
                            Registry.create_session t.registry ~tenant ~id
                              spec
                          with
                          | Ok view ->
                              Telemetry.Labeled.incr
                                "learnq_sessions_created_total"
                                [
                                  ("engine", spec.Engines.engine);
                                  ("tenant", tenant);
                                ];
                              json_response 200 (view_json view)
                          | Error e -> of_error e ))))
  | "GET", [ "v1"; "sessions"; id ] ->
      Ok
        ( id,
          fun () ->
            match Registry.find_or_resume t.registry ~tenant ~id with
            | Ok None -> error_response 404 "unknown session"
            | Ok (Some s) -> json_response 200 (view_json (s.Stepper.view ()))
            | Error e -> of_error e )
  | "DELETE", [ "v1"; "sessions"; id ] ->
      Ok
        ( id,
          fun () ->
            if Registry.delete t.registry ~tenant ~id then
              json_response 200 (Json.Obj [ ("deleted", Json.Bool true) ])
            else error_response 404 "unknown session" )
  | "POST", [ "v1"; "sessions"; id; "answers" ] -> (
      match body with
      | Error msg -> Error (error_response 400 ("bad json: " ^ msg))
      | Ok j -> (
          match (Json.get_int "qid" j, reply_of_json j) with
          | None, _ -> Error (error_response 400 "missing integer \"qid\"")
          | _, Error msg -> Error (error_response 400 msg)
          | Some qid, Ok reply ->
              Ok
                ( id,
                  fun () ->
                    if degraded t && t.cfg.sync = Core.Journal.Off then
                      error_response 507
                        "degraded: disk full, refusing unsynced steps"
                    else
                      match Registry.find_or_resume t.registry ~tenant ~id with
                      | Ok None -> error_response 404 "unknown session"
                      | Error e -> of_error e
                      | Ok (Some s) -> (
                          match s.Stepper.answer ~qid reply with
                          | Ok view -> json_response 200 (view_json view)
                          | Error e -> of_error e ) )))
  | _, _ -> Error (error_response 404 "no such route")

let stats_json t =
  let a = Admission.stats t.admission in
  let r = Registry.stats t.registry in
  let m =
    match t.mux with
    | Some m -> Mux.stats m
    | None ->
        {
          Mux.s_conns = 0;
          s_parked = 0;
          s_busy = 0;
          s_threads = 0;
          s_accepted = 0;
          s_shed = 0;
          s_emfile = 0;
          s_timeouts = 0;
          s_idle_closed = 0;
        }
  in
  Json.Obj
    [
      ("sessions", Json.of_int r.Registry.live);
      ("draining", Json.Bool (draining t));
      ("degraded", Json.Bool (degraded t));
      ("evicted", Json.of_int r.Registry.evicted);
      ("resumed", Json.of_int r.Registry.resumed);
      ("quarantined", Json.of_int r.Registry.quarantined);
      ("connections", Json.of_int m.Mux.s_conns);
      ("parked", Json.of_int m.Mux.s_parked);
      ("io_busy", Json.of_int m.Mux.s_busy);
      ("io_threads", Json.of_int (max 1 t.cfg.io_threads));
      ("threads", Json.of_int m.Mux.s_threads);
      ("accepted", Json.of_int m.Mux.s_accepted);
      ("shed_conns", Json.of_int m.Mux.s_shed);
      ("emfile", Json.of_int m.Mux.s_emfile);
      ("http_timeouts", Json.of_int m.Mux.s_timeouts);
      ("idle_conns_closed", Json.of_int m.Mux.s_idle_closed);
      ("requests", Json.of_int (Atomic.get t.requests));
      ("queued", Json.of_int a.Admission.queued);
      ("shed", Json.of_int a.Admission.shed);
      ("tripped", Json.of_int a.Admission.tripped);
      ("dispatched", Json.of_int a.Admission.dispatched);
      ("stalled", Json.of_int (Atomic.get t.stalled));
    ]

(* /healthz: a load balancer's (and the soak harness's) one-glance view —
   draining and degraded are the two states where sending more traffic
   here is a mistake.  Always 200: "unhealthy but alive" is for /stats. *)
let healthz_json t =
  let r = Registry.stats t.registry in
  Json.Obj
    [
      ("ok", Json.Bool ((not (draining t)) && not (degraded t)));
      ("draining", Json.Bool (draining t));
      ("degraded", Json.Bool (degraded t));
      ("sessions", Json.of_int r.Registry.live);
      ("evicted", Json.of_int r.Registry.evicted);
      ("stalled", Json.of_int (Atomic.get t.stalled));
    ]

let debug_sessions_json t =
  Json.Obj
    [
      ( "sessions",
        Json.Arr
          (List.map
             (fun (d : Registry.session_debug) ->
               Json.Obj
                 [
                   ("tenant", Json.Str d.Registry.sd_tenant);
                   ("id", Json.Str d.Registry.sd_id);
                   ("engine", Json.Str d.Registry.sd_engine);
                   ("done", Json.Bool d.Registry.sd_done);
                   ("degraded", Json.Bool d.Registry.sd_degraded);
                   ("qid", Json.of_int d.Registry.sd_qid);
                   ("open_question", Json.Bool d.Registry.sd_open);
                   ("questions", Json.of_int d.Registry.sd_questions);
                   ("replayed", Json.of_int d.Registry.sd_replayed);
                   ("journal_bytes", Json.of_int d.Registry.sd_journal_bytes);
                   ("idle_s", Json.Num d.Registry.sd_idle_s);
                 ])
             (Registry.debug_sessions t.registry)) );
    ]

let debug_tenants_json t =
  Json.Obj
    [
      ( "tenants",
        Json.Arr
          (List.map
             (fun (d : Admission.tenant_debug) ->
               Json.Obj
                 [
                   ("tenant", Json.Str d.Admission.td_tenant);
                   ("queued", Json.of_int d.Admission.td_queued);
                   ("breaker", Json.Str d.Admission.td_breaker);
                   ( "live_sessions",
                     Json.of_int
                       (Registry.tenant_count t.registry d.Admission.td_tenant)
                   );
                 ])
             (Admission.debug_tenants t.admission)) );
    ]

let debug_slow_json t =
  let entries =
    Mutex.protect t.slow_mu (fun () ->
        let n = Array.length t.slow_ring in
        let out = ref [] in
        (* Oldest first from the ring, so the accumulated list is newest
           first. *)
        for i = 0 to n - 1 do
          match t.slow_ring.((t.slow_pos + i) mod n) with
          | Some e -> out := e :: !out
          | None -> ()
        done;
        !out)
  in
  Json.Obj
    [
      ("slow_ms", Json.Num t.cfg.slow_ms);
      ( "requests",
        Json.Arr
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("trace", Json.Str e.sl_trace);
                   ("route", Json.Str e.sl_route);
                   ("tenant", Json.Str e.sl_tenant);
                   ("status", Json.of_int e.sl_status);
                   ("ms", Json.Num e.sl_ms);
                   ("at", Json.Num e.sl_at);
                 ])
             entries) );
    ]

let handle t (req : Http.request) =
  Atomic.incr t.requests;
  let parts = split_path req.path in
  match (req.meth, parts) with
  | "GET", [ "healthz" ] -> json_response 200 (healthz_json t)
  | "GET", [ "stats" ] -> json_response 200 (stats_json t)
  | "GET", [ "metrics" ] ->
      {
        Http.status = 200;
        headers = [ ("Content-Type", "text/plain; version=0.0.4") ];
        (* One registry: the since-boot engine series and the labeled,
           sliding-window request series in one scrape. *)
        body = Telemetry.Metrics.metrics_prometheus ();
      }
  | "GET", [ "debug"; sub ] when t.cfg.debug_endpoints -> (
      match sub with
      | "sessions" -> json_response 200 (debug_sessions_json t)
      | "tenants" -> json_response 200 (debug_tenants_json t)
      | "slow" -> json_response 200 (debug_slow_json t)
      | "flightrecorder" ->
          {
            Http.status = 200;
            headers = [ ("Content-Type", "application/json") ];
            body = Telemetry.Recorder.dump_json ();
          }
      | _ -> error_response 404 "no such debug endpoint")
  | _ ->
      let tenant = tenant_of req in
      if draining t then
        error_response
          ~headers:(retry_after_headers (Admission.retry_suggestion t.admission))
          503 "draining: not admitting session work"
      else
        let body =
          if req.body = "" then Ok (Json.Obj []) else Json.parse req.body
        in
        let outcome =
          match session_job t ~tenant req parts body with
          | Error resp -> resp
          | Ok (id, run) -> (
              let key = tenant ^ "/" ^ id in
              match Admission.submit t.admission ~tenant ~key run with
              | Admission.Enqueued job -> Admission.wait job
              | Admission.Shed ra ->
                  if Telemetry.enabled () then Telemetry.Metrics.incr m_shed;
                  error_response ~headers:(retry_after_headers ra) 503
                    "overloaded: admission queue is full"
              | Admission.Tripped ra ->
                  if Telemetry.enabled () then
                    Telemetry.Metrics.incr m_tripped;
                  error_response ~headers:(retry_after_headers ra) 429
                    "tenant breaker open: too many malformed requests"
              | Admission.Draining ra ->
                  error_response ~headers:(retry_after_headers ra) 503
                    "draining: not admitting session work")
        in
        (match outcome.Http.status with
        | 400 | 404 | 405 | 409 ->
            if Telemetry.enabled () then Telemetry.Metrics.incr m_faults;
            Admission.fault t.admission ~tenant
        | s when s < 400 -> Admission.ok t.admission ~tenant
        | _ -> ());
        (* 507 is only ever minted from an ENOSPC ([Error.Storage full]):
           the disk is out of room, flip read-only until the probe heals. *)
        if outcome.Http.status = 507 then enter_degraded t;
        outcome

(* ------------------------------------------------------------------ *)
(* Request handler (runs on a mux worker thread)                       *)
(* ------------------------------------------------------------------ *)

(* The mux hands over a complete, parsed request; this wrapper owns the
   request's trace id — a well-formed inbound X-Learnq-Trace is honored
   (so a client or proxy can stitch its own ids through), one is minted
   otherwise.  Installed on the worker thread for the whole request;
   captured into the admission job for the pool hop; echoed back in the
   response header either way. *)
let request_handler t (req : Http.request) =
  let trace =
    match Http.header "x-learnq-trace" req with
    | Some id when Telemetry.Trace.valid id -> id
    | _ -> Telemetry.Trace.mint ()
  in
  Telemetry.Trace.set (Some trace);
  let route = route_label req.meth (split_path req.path) in
  let tenant = tenant_of req in
  let seq = track_inflight t ~trace ~route ~tenant in
  (* One monotonic reading around the span feeds both the windowed
     latency histogram and the slow ring, so a wall-clock step cannot put a
     bogus latency into either.  The span takes its own readings of the
     same clock, so its duration may differ from [dur] by the span's own
     bookkeeping. *)
  let t0 = Core.Monotonic.now () in
  let resp =
    Telemetry.with_span
      ~detail:(req.meth ^ " " ^ req.path)
      "http.request"
      (fun () ->
        match handle t req with
        | resp -> resp
        | exception exn ->
            error_response 500 ("internal error: " ^ Printexc.to_string exn))
  in
  let dur = Core.Monotonic.now () -. t0 in
  untrack_inflight t seq;
  observe_request t ~trace ~route ~tenant ~status:resp.Http.status ~dur;
  Telemetry.Trace.set None;
  { resp with Http.headers = ("X-Learnq-Trace", trace) :: resp.Http.headers }

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)
(* ------------------------------------------------------------------ *)

(* The dispatcher owns all session mutation: it pulls key-disjoint batches
   and runs each batch across the pool — "one domain per batch of
   sessions".  On one core this still wins: a session blocked in [fsync]
   releases the runtime lock while another session's determined-scan
   computes. *)
let dispatcher t pool () =
  let batch_size = max 1 (Core.Pool.size pool * 2) in
  let rec loop () =
    let batch =
      Admission.take_batch t.admission ~max:batch_size ~block:true
    in
    (match batch with
    | [] -> ()
    | batch ->
        let results =
          Core.Pool.map_list pool
            (fun (job : Admission.job) ->
              (* Re-install the submitting request's trace on this pool
                 domain: journal fsyncs, vfs faults, and error bodies
                 produced inside the job all stamp the same id the client
                 saw in its X-Learnq-Trace header. *)
              let go () =
                Telemetry.with_span ~detail:job.Admission.key "serve.job"
                  (fun () ->
                    match job.Admission.run () with
                    | resp -> resp
                    | exception exn ->
                        error_response 500
                          ("internal error: " ^ Printexc.to_string exn))
              in
              match job.Admission.trace with
              | Some id -> Telemetry.Trace.with_trace id go
              | None -> go ())
            batch
        in
        List.iter2 Admission.finish batch results;
        (* Eviction rides the batch boundary: the dispatcher owns all
           session mutation, so right here no stepper is mid-answer and a
           checkpoint+close cannot race a step. *)
        if not (draining t) then ignore (Registry.evict_idle t.registry);
        if Telemetry.enabled () then
          Telemetry.Metrics.set g_sessions
            (float_of_int (Registry.count t.registry)));
    if draining t && Admission.pending t.admission = 0 then ()
    else loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve t =
  let cfg = t.cfg in
  let pool = Core.Pool.create (max 1 cfg.pool) in
  let recovered, errors = Registry.recover_all t.registry ~pool in
  if Telemetry.enabled () then begin
    if recovered > 0 || errors <> [] then
      Telemetry.Log.info
        ~kv:
          [
            ("recovered", string_of_int recovered);
            ("errors", string_of_int (List.length errors));
          ]
        "state directory recovery"
  end;
  List.iter
    (fun (f, e) ->
      if Telemetry.enabled () then
        Telemetry.Log.warn
          ~kv:[ ("journal", f); ("error", Error.to_string e) ]
          "unresumable journal left in place")
    errors;
  let listen_result =
    match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
    | fd -> (
        try
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          let addr = Unix.inet_addr_of_string cfg.host in
          Unix.bind fd (Unix.ADDR_INET (addr, cfg.port));
          Unix.listen fd 128;
          let port =
            match Unix.getsockname fd with
            | Unix.ADDR_INET (_, p) -> p
            | _ -> cfg.port
          in
          Ok (fd, port)
        with
        | Unix.Unix_error (e, _, _) ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Error (Unix.error_message e)
        | Failure msg ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Error msg)
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  match listen_result with
  | Error _ as e ->
      Core.Pool.shutdown pool;
      e
  | Ok (listen_fd, port) ->
      cfg.on_listen port;
      let disp = Thread.create (dispatcher t pool) () in
      (* The heal probe and the stall watchdog piggyback on the mux loop's
         tick so they run even when no requests arrive; throttled to
         ~1/s. *)
      let last_probe = ref 0. in
      let tick () =
        let now = Unix.gettimeofday () in
        if now -. !last_probe >= 1.0 then begin
          last_probe := now;
          probe_disk t;
          watchdog t
        end
      in
      let mux =
        Mux.create
          {
            Mux.io_threads = max 1 cfg.io_threads;
            max_conns = cfg.max_conns;
            max_idle_conns =
              (if cfg.max_idle_conns <= 0 then max_int
               else cfg.max_idle_conns);
            request_deadline = cfg.request_deadline;
            drain_grace = cfg.drain_grace;
            max_head = 16 * 1024;
            max_body = 1024 * 1024;
            handler = (fun req -> request_handler t req);
            keep_alive =
              (fun req _ ->
                (not (draining t))
                && Http.header "connection" req <> Some "close");
            draining = (fun () -> draining t);
            tick;
            accept_fn = (fun fd -> Unix.accept fd);
          }
      in
      t.mux <- Some mux;
      (* The mux runs on this thread until drain completes: it stops
         accepting, closes idle connections, lets in-flight requests
         finish (the dispatcher keeps executing the queued backlog
         concurrently), and force-closes stragglers after [drain_grace]. *)
      Mux.run mux ~listen_fd;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Thread.join disp;
      Registry.drain t.registry;
      Core.Pool.shutdown pool;
      Ok ()
