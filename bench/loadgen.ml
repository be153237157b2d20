(* Deterministic open-loop load generator for `learnq serve`.

   Arrivals are scheduled, not reactive: a seeded exponential process
   (rate = sessions / duration) fixes every session's start time up
   front, and a scheduler thread releases sessions at those instants
   regardless of how fast earlier ones complete.  A slow server
   therefore sees work *pile up* — exactly the regime a closed-loop
   driver (start the next session when the last finishes) can never
   produce, and the one that exposes queueing collapse.

   A fixed pool of worker threads drives the released sessions over
   keep-alive connections (one [Server.Client] per worker, reused across
   sessions — the reconnect-once-on-stale logic in the client absorbs
   idle eviction).  A sampler thread emits a time series: completions/sec
   over the interval, the sliding-window p50/p99 that /metrics exposes
   (read in-process via [Core.Telemetry.Labeled], keeping the scrape off the
   measured path), and connection/thread gauges scraped from /stats over
   the wire.

   Everything is seeded; two runs with the same config schedule the same
   arrival times and answer every question identically. *)

module Engines = Server.Engines
module Client = Server.Client
module Json = Server.Json
module Prng = Core.Prng

let now = Core.Monotonic.now

type config = {
  lg_host : string;
  lg_port : int;
  lg_tenant : string;
  lg_seed : int;
  lg_sessions : int;  (** total arrivals *)
  lg_duration : float;  (** arrival window, seconds *)
  lg_workers : int;  (** keep-alive client threads *)
  lg_sample_every : float;  (** seconds between time-series samples *)
}

type sample = {
  sm_t : float;  (** seconds since the run started *)
  sm_done : int;  (** sessions completed so far *)
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
}

(* permille fault rates — light, enough to keep the refusal/timeout
   paths warm without dominating the wall clock *)
let refusal = 30
let timeout = 15
let noise = 20

type sess = {
  id : string;
  spec : Engines.spec;
  truth : string -> bool;
}

let sessions cfg =
  List.init cfg.lg_sessions (fun i ->
      let engine = [| "twig"; "join"; "path" |].(i mod 3) in
      let spec =
        {
          Engines.engine;
          seed = cfg.lg_seed + i;
          scale = 0.03;
          rows = 5;
          cities = 6;
        }
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
      { id = Printf.sprintf "g%05d" i; spec; truth })

(* Same question, same reply — deterministic up to thread interleaving. *)
let reply_for s key =
  let g = Prng.create (s.spec.Engines.seed lxor Hashtbl.hash key) in
  let roll = Prng.int g 1000 in
  if roll < refusal then Core.Flaky.Refused
  else if roll < refusal + timeout then Core.Flaky.Timed_out
  else
    let label = s.truth key in
    Core.Flaky.Label (if Prng.int g 1000 < noise then not label else label)

let json_of_reply = function
  | Core.Flaky.Label b -> Json.Bool b
  | Core.Flaky.Refused -> Json.Str "refused"
  | Core.Flaky.Timed_out -> Json.Str "timed_out"

let wire_view j =
  ( Option.value ~default:false (Json.get_bool "done" j),
    Option.value ~default:0 (Json.get_int "qid" j),
    Json.mem "question" j |> Fun.flip Option.bind Json.str )

(* ------------------------------------------------------------------ *)
(* Worker: drive one session over a shared keep-alive connection       *)
(* ------------------------------------------------------------------ *)

type shared = {
  cfg : config;
  completed : int Atomic.t;
  failed : int Atomic.t;
  answers : int Atomic.t;
  lat_m : Mutex.t;
  mutable lats : float list;  (** per-answer round trips, seconds *)
}

let record_lat sh dt =
  Mutex.lock sh.lat_m;
  sh.lats <- dt :: sh.lats;
  Mutex.unlock sh.lat_m

(* Each worker owns one connection for its whole lifetime; [conn] is a
   cell so a transport error can swap in a fresh one. *)
let rec fresh_conn cfg =
  match Client.connect ~host:cfg.lg_host ~port:cfg.lg_port with
  | Ok c -> c
  | Error _ ->
      Thread.delay 0.05;
      fresh_conn cfg

let drive sh conn s =
  let cfg = sh.cfg in
  let req ?body meth path =
    let rec go tries =
      match
        Client.request !conn ~meth ~path ~tenant:cfg.lg_tenant ?body ()
      with
      | Ok ((503 | 429), _) when tries > 0 ->
          Thread.delay 0.05;
          go (tries - 1)
      | Error _ when tries > 0 ->
          Client.close !conn;
          conn := fresh_conn cfg;
          Thread.delay 0.05;
          go (tries - 1)
      | r -> r
    in
    go 100
  in
  let create () =
    req "POST" "/v1/sessions"
      ~body:
        (Json.Obj
           (("id", Json.Str s.id)
           :: (match Engines.json_of_spec s.spec with
              | Json.Obj fields -> fields
              | _ -> [])))
  in
  let refresh () = req "GET" ("/v1/sessions/" ^ s.id) in
  let rec step (done_, qid, question) =
    if done_ then true
    else
      match question with
      | None -> true
      | Some key -> (
          let t0 = now () in
          match
            req "POST"
              ("/v1/sessions/" ^ s.id ^ "/answers")
              ~body:
                (Json.Obj
                   [
                     ("qid", Json.of_int qid);
                     ("reply", json_of_reply (reply_for s key));
                   ])
          with
          | Ok (200, j) ->
              record_lat sh (now () -. t0);
              Atomic.incr sh.answers;
              step (wire_view j)
          | Ok (409, _) -> (
              match refresh () with
              | Ok (200, j) -> step (wire_view j)
              | _ -> false)
          | _ -> false)
  in
  let ok =
    match create () with Ok (200, j) -> step (wire_view j) | _ -> false
  in
  if ok then Atomic.incr sh.completed else Atomic.incr sh.failed

(* ------------------------------------------------------------------ *)
(* Open-loop arrival queue                                             *)
(* ------------------------------------------------------------------ *)

type 'a queue = {
  q : 'a Queue.t;
  m : Mutex.t;
  cv : Condition.t;
  mutable q_closed : bool;
}

let queue () =
  { q = Queue.create (); m = Mutex.create (); cv = Condition.create (); q_closed = false }

let push qu x =
  Mutex.lock qu.m;
  Queue.push x qu.q;
  Condition.signal qu.cv;
  Mutex.unlock qu.m

let close_queue qu =
  Mutex.lock qu.m;
  qu.q_closed <- true;
  Condition.broadcast qu.cv;
  Mutex.unlock qu.m

let pop qu =
  Mutex.lock qu.m;
  let rec go () =
    if not (Queue.is_empty qu.q) then Some (Queue.pop qu.q)
    else if qu.q_closed then None
    else begin
      Condition.wait qu.cv qu.m;
      go ()
    end
  in
  let r = go () in
  Mutex.unlock qu.m;
  r

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let window_ms cfg p =
  Core.Telemetry.Labeled.window_percentile "learnq_request_seconds"
    [ ("tenant", cfg.lg_tenant) ]
    p
  *. 1e3

let scrape_stats cfg stats_conn =
  let get () =
    match !stats_conn with
    | Some c -> (
        match Client.request c ~meth:"GET" ~path:"/stats" () with
        | Ok (200, j) -> Some j
        | _ ->
            Client.close c;
            stats_conn := None;
            None)
    | None -> (
        match Client.connect ~host:cfg.lg_host ~port:cfg.lg_port with
        | Ok c ->
            stats_conn := Some c;
            (match Client.request c ~meth:"GET" ~path:"/stats" () with
            | Ok (200, j) -> Some j
            | _ -> None)
        | Error _ -> None)
  in
  match get () with
  | None -> (0, 0, 0, 0)
  | Some j ->
      let f k = Option.value ~default:0 (Json.get_int k j) in
      (f "connections", f "parked", f "io_busy", f "threads")

(* ------------------------------------------------------------------ *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let run cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let sess = Array.of_list (sessions cfg) in
  let sh =
    {
      cfg;
      completed = Atomic.make 0;
      failed = Atomic.make 0;
      answers = Atomic.make 0;
      lat_m = Mutex.create ();
      lats = [];
    }
  in
  (* Fix the whole arrival schedule up front from the seed: cumulative
     exponential gaps at rate sessions/duration. *)
  let g = Prng.create cfg.lg_seed in
  let rate = float_of_int cfg.lg_sessions /. cfg.lg_duration in
  let arrivals =
    let t = ref 0.0 in
    Array.init cfg.lg_sessions (fun _ ->
        let u = min (Prng.float g 1.0) 0.999_999 in
        t := !t +. (-.log (1.0 -. u) /. rate);
        !t)
  in
  let qu = queue () in
  let lag_max = ref 0.0 in
  let lag_m = Mutex.create () in
  let t0 = now () in
  let scheduler =
    Thread.create
      (fun () ->
        Array.iteri
          (fun i at ->
            let d = at -. (now () -. t0) in
            if d > 0.0 then Thread.delay d;
            push qu (i, at))
          arrivals;
        close_queue qu)
      ()
  in
  let workers =
    List.init (max 1 cfg.lg_workers) (fun _ ->
        Thread.create
          (fun () ->
            let conn = ref (fresh_conn cfg) in
            let rec go () =
              match pop qu with
              | None -> Client.close !conn
              | Some (i, at) ->
                  let lag = now () -. t0 -. at in
                  Mutex.lock lag_m;
                  if lag > !lag_max then lag_max := lag;
                  Mutex.unlock lag_m;
                  drive sh conn sess.(i);
                  go ()
            in
            go ())
          ())
  in
  (* Time series: runs until every session is accounted for. *)
  let samples = ref [] in
  let stats_conn = ref None in
  let sampler =
    Thread.create
      (fun () ->
        let prev_done = ref 0 and prev_t = ref (now ()) in
        let rec tick () =
          let d = Atomic.get sh.completed + Atomic.get sh.failed in
          if d < cfg.lg_sessions then begin
            Thread.delay cfg.lg_sample_every;
            let t = now () in
            let d = Atomic.get sh.completed + Atomic.get sh.failed in
            let rate = float_of_int (d - !prev_done) /. (t -. !prev_t) in
            prev_done := d;
            prev_t := t;
            let conns, parked, io_busy, threads =
              scrape_stats cfg stats_conn
            in
            samples :=
              {
                sm_t = t -. t0;
                sm_done = d;
                sm_rate = rate;
                sm_p50_ms = window_ms cfg 0.50;
                sm_p99_ms = window_ms cfg 0.99;
                sm_conns = conns;
                sm_parked = parked;
                sm_io_busy = io_busy;
                sm_threads = threads;
              }
              :: !samples;
            tick ()
          end
        in
        tick ())
      ()
  in
  Thread.join scheduler;
  List.iter Thread.join workers;
  Thread.join sampler;
  (match !stats_conn with Some c -> Client.close c | None -> ());
  let elapsed = now () -. t0 in
  let lats =
    let a = Array.of_list (List.map (fun s -> s *. 1000.) sh.lats) in
    Array.sort compare a;
    a
  in
  {
    r_elapsed = elapsed;
    r_completed = Atomic.get sh.completed;
    r_failed = Atomic.get sh.failed;
    r_answers = Atomic.get sh.answers;
    r_p50_ms = percentile lats 0.50;
    r_p99_ms = percentile lats 0.99;
    r_lag_max_ms = !lag_max *. 1000.;
    r_samples = List.rev !samples;
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
