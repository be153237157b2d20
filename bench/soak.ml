(* Observability soak for `learnq serve` (PR 8).

   One in-process daemon, a fixed population of mixed twig/join/path
   sessions driven concurrently over HTTP by client threads with
   deterministic per-question faults.  A sampler thread emits a
   time-series of sessions/sec and the sliding-window p99 request latency
   (the same series /metrics exposes) while the soak runs.

   The workload is driven twice: once with observability fully on (flight
   recorder recording, traces minted, labeled metrics — the default), and
   once with the recorder and telemetry off.  Gates:

   - zero lost sessions: /stats still counts every session at the end;
   - the stall watchdog never trips;
   - the /debug introspection surface answers 200 mid-soak;
   - enabled observability costs at most 5% wall-clock vs disabled
     (best-of-N trials each, damping scheduler noise).

   Results land in BENCH_PR8.json; the flight-recorder dump of the final
   observed pass is saved to FLIGHT_PR8.json (the CI debug-smoke lane
   uploads it as an artifact). *)

module Engines = Server.Engines
module Client = Server.Client
module Json = Server.Json
module Daemon = Server.Daemon
module Prng = Core.Prng
module Telemetry = Core.Telemetry

let getenv_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> default

let sessions_n () = getenv_int "LEARNQ_SOAK8_SESSIONS" 40
let threads_n () = getenv_int "LEARNQ_SOAK8_THREADS" 8
let trials () = getenv_int "LEARNQ_SOAK8_TRIALS" 2
let sample_every = 0.25 (* seconds between time-series samples *)
let overhead_budget = 0.05

(* permille fault rates — enough to exercise refusal/timeout paths *)
let refusal = 80
let timeout = 40
let noise = 30

let now = Core.Monotonic.now

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

type sess = {
  id : string;
  spec : Engines.spec;
  truth : string -> bool;
}

let sessions () =
  List.init (sessions_n ()) (fun i ->
      let engine = [| "twig"; "join"; "path" |].(i mod 3) in
      let spec =
        { Engines.engine; seed = 3000 + i; scale = 0.03; rows = 5; cities = 6 }
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
        | Error e -> failwith ("soak: bad goal: " ^ Core.Error.to_string e)
      in
      { id = Printf.sprintf "k%03d" i; spec; truth })

(* Same question, same reply — the soak is deterministic up to thread
   interleaving, so the on/off passes do identical learning work. *)
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

let with_temp_dir prefix f =
  let path = Filename.temp_file prefix ".d" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun e ->
             try Sys.remove (Filename.concat path e) with Sys_error _ -> ())
           (Sys.readdir path)
       with Sys_error _ -> ());
      try Unix.rmdir path with Unix.Unix_error _ -> ())
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* One soak pass against an in-process daemon                          *)
(* ------------------------------------------------------------------ *)

type sample = {
  sm_t : float;  (** seconds since pass start *)
  sm_done : int;  (** sessions completed so far *)
  sm_rate : float;  (** completions/sec over the last interval *)
  sm_p99_ms : float;  (** sliding-window p99 request latency *)
}

type pass = {
  p_elapsed : float;
  p_samples : sample list;
  p_zero_lost : bool;
  p_stalled : int;
  p_debug_ok : bool;
  p_flight : string option;  (** /debug/flightrecorder body (observed pass) *)
}

let wire_view j =
  ( Option.value ~default:false (Json.get_bool "done" j),
    Option.value ~default:0 (Json.get_int "qid" j),
    Json.mem "question" j |> Fun.flip Option.bind Json.str )

let drive_http ~port ~completed s =
  let rec connect () =
    match Client.connect ~host:"127.0.0.1" ~port with
    | Ok c -> c
    | Error _ ->
        Thread.delay 0.05;
        connect ()
  in
  let c = connect () in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let rec create () =
        match
          Client.request c ~meth:"POST" ~path:"/v1/sessions" ~tenant:"soak"
            ~body:
              (Json.Obj
                 (("id", Json.Str s.id)
                 :: (match Engines.json_of_spec s.spec with
                    | Json.Obj fields -> fields
                    | _ -> [])))
            ()
        with
        | Ok (200, j) -> wire_view j
        | Ok ((503 | 429), _) ->
            Thread.delay 0.05;
            create ()
        | Ok (code, j) ->
            failwith
              (Printf.sprintf "soak: create %s -> %d %s" s.id code
                 (Json.to_string j))
        | Error e -> failwith ("soak: create: " ^ e)
      in
      let refresh () =
        match
          Client.request c ~meth:"GET" ~path:("/v1/sessions/" ^ s.id)
            ~tenant:"soak" ()
        with
        | Ok (200, j) -> wire_view j
        | Ok (code, j) ->
            failwith
              (Printf.sprintf "soak: view %s -> %d %s" s.id code
                 (Json.to_string j))
        | Error e -> failwith ("soak: view: " ^ e)
      in
      let rec step (done_, qid, question) =
        if done_ then ()
        else
          match question with
          | None -> ()
          | Some key -> (
              match
                Client.request c ~meth:"POST"
                  ~path:("/v1/sessions/" ^ s.id ^ "/answers")
                  ~tenant:"soak"
                  ~body:
                    (Json.Obj
                       [
                         ("qid", Json.of_int qid);
                         ("reply", json_of_reply (reply_for s key));
                       ])
                  ()
              with
              | Ok (200, j) -> step (wire_view j)
              | Ok (409, _) -> step (refresh ())
              | Ok ((503 | 429), _) ->
                  Thread.delay 0.05;
                  step (refresh ())
              | Ok (code, j) ->
                  failwith
                    (Printf.sprintf "soak: answer %s -> %d %s" s.id code
                       (Json.to_string j))
              | Error e -> failwith ("soak: answer: " ^ e))
      in
      step (create ());
      Atomic.incr completed)

(* The sampler reads the same labeled series /metrics serves; sampling
   in-process keeps the scrape itself out of the measured request path. *)
let p99_ms () =
  Telemetry.Labeled.window_percentile "learnq_request_seconds"
    [ ("tenant", "soak") ]
    0.99
  *. 1e3

let run_pass ~observe ~keep_flight sess =
  with_temp_dir "learnq-soak8" (fun dir ->
      Telemetry.reset ();
      Telemetry.set_mode (if observe then Telemetry.Full else Telemetry.Off);
      let port_box = ref 0 in
      let port_m = Mutex.create () in
      let port_cv = Condition.create () in
      let cfg =
        {
          Daemon.default_config with
          Daemon.state_dir = dir;
          port = 0;
          pool = 2;
          drain_grace = 3.0;
          sync = Core.Journal.Batch;
          slow_ms = 250.;
          on_listen =
            (fun p ->
              Mutex.lock port_m;
              port_box := p;
              Condition.broadcast port_cv;
              Mutex.unlock port_m);
        }
      in
      let daemon = Daemon.create cfg in
      let serve_result = ref (Ok ()) in
      let server_thread =
        Thread.create (fun () -> serve_result := Daemon.serve daemon) ()
      in
      Fun.protect
        ~finally:(fun () ->
          Daemon.drain daemon;
          Thread.join server_thread;
          Telemetry.set_mode Telemetry.Ring)
        (fun () ->
          Mutex.lock port_m;
          while !port_box = 0 do
            Condition.wait port_cv port_m
          done;
          let port = !port_box in
          Mutex.unlock port_m;
          let completed = Atomic.make 0 in
          let t0 = now () in
          let nthreads = threads_n () in
          let workers =
            List.init nthreads (fun w ->
                let mine = List.filteri (fun i _ -> i mod nthreads = w) sess in
                Thread.create
                  (fun () -> List.iter (drive_http ~port ~completed) mine)
                  ())
          in
          (* Time-series sampler: runs until every session completes. *)
          let total = List.length sess in
          let samples = ref [] in
          let sampler =
            Thread.create
              (fun () ->
                let prev_done = ref 0 and prev_t = ref (now ()) in
                let rec tick () =
                  let d = Atomic.get completed in
                  if d < total then begin
                    Thread.delay sample_every;
                    let t = now () in
                    let d = Atomic.get completed in
                    let rate =
                      float_of_int (d - !prev_done) /. (t -. !prev_t)
                    in
                    prev_done := d;
                    prev_t := t;
                    samples :=
                      {
                        sm_t = t -. t0;
                        sm_done = d;
                        sm_rate = rate;
                        sm_p99_ms = (if observe then p99_ms () else 0.);
                      }
                      :: !samples;
                    tick ()
                  end
                in
                tick ())
              ()
          in
          List.iter Thread.join workers;
          Thread.join sampler;
          let elapsed = now () -. t0 in
          (* Post-soak introspection over the same wire the operator uses. *)
          let c =
            match Client.connect ~host:"127.0.0.1" ~port with
            | Ok c -> c
            | Error e -> failwith ("soak: reconnect: " ^ e)
          in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let get path =
                match Client.request c ~meth:"GET" ~path () with
                | Ok (code, j) -> (code, j)
                | Error e -> failwith ("soak: GET " ^ path ^ ": " ^ e)
              in
              let _, stats = get "/stats" in
              let live = Option.value ~default:(-1) (Json.get_int "sessions" stats) in
              let stalled =
                Option.value ~default:(-1) (Json.get_int "stalled" stats)
              in
              let debug_ok =
                List.for_all
                  (fun p -> fst (get p) = 200)
                  [ "/debug/sessions"; "/debug/tenants"; "/debug/slow";
                    "/metrics"; "/healthz" ]
              in
              let flight =
                if keep_flight then
                  match get "/debug/flightrecorder" with
                  | 200, j -> Some (Json.to_string j)
                  | _ -> None
                else None
              in
              {
                p_elapsed = elapsed;
                p_samples = List.rev !samples;
                p_zero_lost = live = total;
                p_stalled = stalled;
                p_debug_ok = debug_ok;
                p_flight = flight;
              })))

(* ------------------------------------------------------------------ *)

let best_of n f =
  let rec go best k =
    if k = 0 then Option.get best
    else
      let p = f () in
      let best =
        match best with
        | Some b when b.p_elapsed <= p.p_elapsed -> Some b
        | _ -> Some p
      in
      go best (k - 1)
  in
  go None n

let run () =
  print_endline "== learnq serve: observability soak (PR 8) ==";
  let sess = sessions () in
  let total = List.length sess in
  let tr = trials () in
  (* Disabled baseline first, so the observed pass's flight recorder is
     the one that lands in the artifact. *)
  let off = best_of tr (fun () -> run_pass ~observe:false ~keep_flight:false sess) in
  Printf.printf "observability off: %.2f s (%.1f sessions/s)\n%!" off.p_elapsed
    (float_of_int total /. off.p_elapsed);
  let on = best_of tr (fun () -> run_pass ~observe:true ~keep_flight:true sess) in
  Printf.printf "observability on:  %.2f s (%.1f sessions/s)\n%!" on.p_elapsed
    (float_of_int total /. on.p_elapsed);
  let overhead = (on.p_elapsed -. off.p_elapsed) /. off.p_elapsed in
  Printf.printf
    "overhead %.1f%% (budget %.0f%%)  zero_lost=%b stalled=%d debug_ok=%b\n%!"
    (overhead *. 100.) (overhead_budget *. 100.) on.p_zero_lost on.p_stalled
    on.p_debug_ok;
  (match on.p_flight with
  | Some body ->
      let oc = open_out "FLIGHT_PR8.json" in
      output_string oc body;
      output_string oc "\n";
      close_out oc;
      print_endline "wrote FLIGHT_PR8.json (flight-recorder dump)"
  | None -> prerr_endline "soak: no flight-recorder dump captured");
  let samples_json =
    Json.Arr
      (List.map
         (fun s ->
           Json.Obj
             [
               ("t_s", Json.Num s.sm_t);
               ("done_sessions", Json.of_int s.sm_done);
               ("sessions_per_sec", Json.Num s.sm_rate);
               ("p99_ms", Json.Num s.sm_p99_ms);
             ])
         on.p_samples)
  in
  let overhead_ok = overhead <= overhead_budget in
  let watchdog_ok = on.p_stalled = 0 && off.p_stalled = 0 in
  let j =
    Json.Obj
      [
        ("bench", Json.Str "serve-soak");
        ("sessions", Json.of_int total);
        ("threads", Json.of_int (threads_n ()));
        ("trials", Json.of_int tr);
        ("elapsed_on_s", Json.Num on.p_elapsed);
        ("elapsed_off_s", Json.Num off.p_elapsed);
        ("sessions_per_sec", Json.Num (float_of_int total /. on.p_elapsed));
        ("observability_overhead_pct", Json.Num (overhead *. 100.));
        ("overhead_within_budget", Json.Bool overhead_ok);
        ("zero_lost_sessions", Json.Bool (on.p_zero_lost && off.p_zero_lost));
        ("watchdog_stalls", Json.of_int on.p_stalled);
        ("watchdog_clean", Json.Bool watchdog_ok);
        ("debug_endpoints_ok", Json.Bool on.p_debug_ok);
        ("timeseries", samples_json);
      ]
  in
  let oc = open_out "BENCH_PR8.json" in
  output_string oc (Json.to_string j);
  output_string oc "\n";
  close_out oc;
  let ok =
    overhead_ok && on.p_zero_lost && off.p_zero_lost && watchdog_ok
    && on.p_debug_ok
  in
  Printf.printf "wrote BENCH_PR8.json (all green: %b)\n%!" ok
