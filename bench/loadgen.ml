(* The one load driver for `learnq serve`, shared by pr6 (chaos), pr8
   (observability soak) and pr10 (sustained load): the mixed
   twig/join/path session population, the HTTP session loop, and the
   time-series sampler.  The benches differ only in the constants they
   pass.

   Every session's simulated user is [Core.Flaky.user]: its reply to a
   question is a pure function of the question, so a session driven
   twice, or resumed after a SIGKILL, labels the same items the same way
   and converges to the same query.

   Arrivals are scheduled, not reactive: the caller fixes every session's
   start time up front, and a scheduler thread releases sessions at those
   instants regardless of how fast earlier ones complete.  pr10 passes a seeded
   exponential schedule, so a slow server sees work pile up, the regime
   that exposes queueing collapse and that a closed-loop driver can never
   produce.  pr6 and pr8 release every session at t=0, which makes the
   worker pool a closed loop.

   A fixed pool of worker threads takes released sessions in order and
   drives each over the worker's keep-alive connection (one
   [Server.Client] per worker, reused across sessions).  A transport error
   reconnects to whatever port [port ()] reports, so a worker finds a
   daemon restarted on a new port.  A session that cannot be finished (an
   unexpected status, or retries exhausted) is counted as failed, never
   raised, so the bench always ends and its gate reads false.

   A sampler thread emits a time series: completions/sec over the
   interval, the sliding-window p50/p99 that /metrics exposes (read
   in-process via [Core.Telemetry.Labeled], keeping the scrape off the
   measured path; empty when the daemon is another process), and
   connection/thread gauges scraped from /stats over the wire. *)

module Engines = Server.Engines
module Client = Server.Client
module Json = Server.Json

let now = Core.Monotonic.now

(* ------------------------------------------------------------------ *)
(* Population                                                          *)
(* ------------------------------------------------------------------ *)

type sess = {
  id : string;
  tenant : string;
  spec : Engines.spec;
  reply : string -> Core.Flaky.reply;  (** the simulated user *)
}

(* [n] sessions cycling twig/join/path on small instances, session [i]
   seeded [seed + i], named [id i] and owned by [tenant i]; the fault
   rates are permille, as in [Core.Flaky.user]. *)
let population ~n ~seed ~id ~tenant ?(refusal = 0) ?(timeout = 0)
    ?(noise = 0) () =
  List.init n (fun i ->
      let engine = [| "twig"; "join"; "path" |].(i mod 3) in
      let spec =
        { Engines.engine; seed = seed + i; scale = 0.03; rows = 5; cities = 6 }
      in
      let goal =
        match engine with
        | "twig" -> "//person/name"
        | "join" -> "planted"
        | _ -> "highway*"
      in
      let truth =
        match Engines.oracle spec ~goal with
        | Ok f -> f
        | Error e -> failwith ("loadgen: bad goal: " ^ Core.Error.to_string e)
      in
      {
        id = id i;
        tenant = tenant i;
        spec;
        reply =
          Core.Flaky.user ~seed:spec.seed ~truth ~refusal ~timeout ~noise;
      })

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type config = {
  host : string;
  port : unit -> int;
      (** read at every (re)connect; 0 while the daemon is down *)
  workers : int;  (** keep-alive client threads *)
  sample_every : float;  (** seconds between time-series samples *)
}

type sample = {
  sm_t : float;  (** seconds since the run started *)
  sm_done : int;  (** sessions finished so far *)
  sm_rate : float;  (** completions/sec over the last interval *)
  sm_p50_ms : float;  (** sliding-window p50 request latency *)
  sm_p99_ms : float;  (** sliding-window p99 request latency *)
  sm_conns : int;  (** /stats: open connections *)
  sm_parked : int;  (** /stats: parked keep-alive connections *)
  sm_io_busy : int;  (** /stats: workers executing a request *)
  sm_threads : int;  (** /stats: mux thread budget (io_threads + 1) *)
}

type result = {
  r_elapsed : float;
      (** from the start until the sampler saw the last session finish, so
          up to one sample period late *)
  r_completed : int;
  r_failed : int;
  r_answers : int;
  r_p50_ms : float;  (** over every answer round trip in the run *)
  r_p99_ms : float;
  r_lag_max_ms : float;
      (** worst lateness of a session pickup vs its scheduled arrival —
          large values mean the worker pool, not the server, was the
          bottleneck and the run was not truly open-loop *)
  r_samples : sample list;
  r_queries : (string * string option) list;
      (** session id -> final query, for every completed session *)
}

type shared = {
  cfg : config;
  completed : int Atomic.t;
  failed : int Atomic.t;
  answers : int Atomic.t;
  on_answer : int -> unit;
  m : Mutex.t;
  mutable lats : float list;  (** per-answer round trips, seconds *)
  mutable lag_max : float;
  mutable queries : (string * string option) list;
}

let json_of_reply = function
  | Core.Flaky.Label b -> Json.Bool b
  | Core.Flaky.Refused -> Json.Str "refused"
  | Core.Flaky.Timed_out -> Json.Str "timed_out"

(* Drive one session to its end over the worker's connection [conn],
   which is opened on first use and reopened to the current port after a
   transport error.  Creates and views are then sent again.  An answer is
   not: a daemon restarted from a journal that lost its last records may
   pose a different question under the same qid, so the session goes on
   from a fresh view, and likewise after a 409 (a stale qid).  Refusals
   (503/429), failed connects and transport errors share one retry bound
   per request, and fresh views one bound per session. *)
let drive sh conn s =
  let req ?(resend = true) ?body meth path =
    let rec go tries =
      if Option.is_none !conn then
        conn :=
          Result.to_option
            (Client.connect ~host:sh.cfg.host ~port:(sh.cfg.port ()));
      let r =
        match !conn with
        | Some c -> Client.request c ~meth ~path ~tenant:s.tenant ?body ()
        | None -> Error "cannot connect"
      in
      match r with
      | Ok ((503 | 429), _) when tries > 0 ->
          Thread.delay 0.05;
          go (tries - 1)
      | Error _ when tries > 0 ->
          Option.iter Client.close !conn;
          conn := None;
          Thread.delay 0.05;
          if resend then go (tries - 1) else r
      | r -> r
    in
    go 100
  in
  let path = "/v1/sessions/" ^ s.id in
  let rec step views j =
    match Json.get_str "question" j with
    | Some key when Json.get_bool "done" j <> Some true -> (
        let qid = Option.value ~default:0 (Json.get_int "qid" j) in
        let t0 = now () in
        let reply = json_of_reply (s.reply key) in
        match
          req ~resend:false "POST" (path ^ "/answers")
            ~body:(Json.Obj [ ("qid", Json.of_int qid); ("reply", reply) ])
        with
        | Ok (200, j) ->
            let dt = now () -. t0 in
            Mutex.protect sh.m (fun () -> sh.lats <- dt :: sh.lats);
            sh.on_answer (1 + Atomic.fetch_and_add sh.answers 1);
            step views j
        | (Ok (409, _) | Error _) when views > 0 -> (
            match req "GET" path with
            | Ok (200, j) -> step (views - 1) j
            | _ -> None)
        | _ -> None)
    | _ -> Some (Json.get_str "query" j)
  in
  let created =
    req "POST" "/v1/sessions"
      ~body:
        (Json.Obj
           (("id", Json.Str s.id)
           :: (match Engines.json_of_spec s.spec with
              | Json.Obj fields -> fields
              | _ -> [])))
  in
  match created with
  | Ok (200, j) -> (
      match step 100 j with
      | Some q ->
          Mutex.protect sh.m (fun () -> sh.queries <- (s.id, q) :: sh.queries);
          Atomic.incr sh.completed
      | None -> Atomic.incr sh.failed)
  | _ -> Atomic.incr sh.failed

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let scrape_stats cfg stats_conn =
  let get c =
    match Client.request c ~meth:"GET" ~path:"/stats" () with
    | Ok (200, j) -> Some j
    | _ -> None
  in
  let stats =
    match !stats_conn with
    | Some c ->
        let r = get c in
        if r = None then begin
          Client.close c;
          stats_conn := None
        end;
        r
    | None -> (
        match Client.connect ~host:cfg.host ~port:(cfg.port ()) with
        | Ok c ->
            stats_conn := Some c;
            get c
        | Error _ -> None)
  in
  let f k =
    Option.value ~default:0 (Option.bind stats (Json.get_int k))
  in
  (f "connections", f "parked", f "io_busy", f "threads")

(* ------------------------------------------------------------------ *)

(* Drives every [(arrival, session)] of [schedule] (arrivals in seconds
   from the start, ascending); [on_answer n] runs on the worker after the
   run's [n]th accepted answer. *)
let run ?(on_answer = ignore) cfg schedule =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let schedule = Array.of_list schedule in
  let total = Array.length schedule in
  let sh =
    {
      cfg;
      completed = Atomic.make 0;
      failed = Atomic.make 0;
      answers = Atomic.make 0;
      on_answer;
      m = Mutex.create ();
      lats = [];
      lag_max = 0.0;
      queries = [];
    }
  in
  let finished () = Atomic.get sh.completed + Atomic.get sh.failed in
  let t0 = now () in
  (* A scheduler thread releases each session into a FIFO at its arrival
     time, whether or not earlier ones are done; free workers take from
     it. *)
  let q = Queue.create () and q_m = Mutex.create () in
  let q_cv = Condition.create () and all_released = ref false in
  let scheduler =
    Thread.create
      (fun () ->
        Array.iter
          (fun ((at, _) as x) ->
            let d = at -. (now () -. t0) in
            if d > 0.0 then Thread.delay d;
            Mutex.protect q_m (fun () ->
                Queue.push x q;
                Condition.signal q_cv))
          schedule;
        Mutex.protect q_m (fun () ->
            all_released := true;
            Condition.broadcast q_cv))
      ()
  in
  let take () =
    Mutex.protect q_m (fun () ->
        while Queue.is_empty q && not !all_released do
          Condition.wait q_cv q_m
        done;
        Queue.take_opt q)
  in
  let workers =
    List.init (max 1 cfg.workers) (fun _ ->
        Thread.create
          (fun () ->
            let conn = ref None in
            let rec go () =
              match take () with
              | None -> Option.iter Client.close !conn
              | Some (at, s) ->
                  let lag = now () -. t0 -. at in
                  Mutex.protect sh.m (fun () ->
                      if lag > sh.lag_max then sh.lag_max <- lag);
                  (* An exception would end this thread with its session
                     uncounted and the run waiting for it forever. *)
                  (try drive sh conn s
                   with e ->
                     Printf.eprintf "loadgen: session %s: %s\n%!" s.id
                       (Printexc.to_string e);
                     Atomic.incr sh.failed);
                  go ()
            in
            go ())
          ())
  in
  (* Time series: runs until every session is accounted for. *)
  let tenant = if total = 0 then "" else (snd schedule.(0)).tenant in
  let window_ms p =
    Core.Telemetry.Labeled.window_percentile "learnq_request_seconds"
      [ ("tenant", tenant) ]
      p
    *. 1e3
  in
  let samples = ref [] in
  let sampler =
    Thread.create
      (fun () ->
        let stats_conn = ref None in
        let rec tick prev_done prev_t =
          if finished () < total then begin
            Thread.delay cfg.sample_every;
            let t = now () and d = finished () in
            let conns, parked, io_busy, threads =
              scrape_stats cfg stats_conn
            in
            samples :=
              {
                sm_t = t -. t0;
                sm_done = d;
                sm_rate = float_of_int (d - prev_done) /. (t -. prev_t);
                sm_p50_ms = window_ms 0.50;
                sm_p99_ms = window_ms 0.99;
                sm_conns = conns;
                sm_parked = parked;
                sm_io_busy = io_busy;
                sm_threads = threads;
              }
              :: !samples;
            tick d t
          end
        in
        tick 0 t0;
        Option.iter Client.close !stats_conn)
      ()
  in
  Thread.join scheduler;
  List.iter Thread.join workers;
  Thread.join sampler;
  let elapsed = now () -. t0 in
  let lats = Array.of_list (List.map (fun s -> s *. 1000.) sh.lats) in
  Array.sort compare lats;
  {
    r_elapsed = elapsed;
    r_completed = Atomic.get sh.completed;
    r_failed = Atomic.get sh.failed;
    r_answers = Atomic.get sh.answers;
    r_p50_ms = Util.percentile lats 0.50;
    r_p99_ms = Util.percentile lats 0.99;
    r_lag_max_ms = sh.lag_max *. 1000.;
    r_samples = List.rev !samples;
    r_queries = sh.queries;
  }

let samples_json samples =
  Json.Arr
    (List.map
       (fun s ->
         Json.Obj
           [
             ("t_s", Json.Num s.sm_t);
             ("done_sessions", Json.of_int s.sm_done);
             ("sessions_per_sec", Json.Num s.sm_rate);
             ("p50_ms", Json.Num s.sm_p50_ms);
             ("p99_ms", Json.Num s.sm_p99_ms);
             ("connections", Json.of_int s.sm_conns);
             ("parked", Json.of_int s.sm_parked);
             ("io_busy", Json.of_int s.sm_io_busy);
             ("threads", Json.of_int s.sm_threads);
           ])
       samples)
