(* Observability soak for `learnq serve` (PR 8).

   One in-process daemon, a fixed population of mixed twig/join/path
   sessions driven concurrently over HTTP by the shared load driver
   ({!Loadgen}), whose simulated users have deterministic per-question
   faults.  Its sampler emits a time series of sessions/sec, the
   sliding-window p50/p99 request latency (the same series /metrics
   exposes) and the /stats gauges while the soak runs.

   The workload is driven twice: once with observability fully on (flight
   recorder recording, traces minted, labeled metrics — the default), and
   once with the recorder and telemetry off.  Gates:

   - zero lost sessions: every session finished, and /stats still counts
     it at the end;
   - the stall watchdog never trips;
   - the /debug introspection surface answers 200 mid-soak;
   - enabled observability costs at most 5% wall-clock vs disabled
     (best-of-N trials each, damping scheduler noise).

   Results land in BENCH_PR8.json; the flight-recorder dump of the final
   observed pass is saved to FLIGHT_PR8.json (the CI debug-smoke lane
   uploads it as an artifact). *)

module Client = Server.Client
module Json = Server.Json
module Daemon = Server.Daemon
module Telemetry = Core.Telemetry

let sessions_n = 40
let threads_n = 8
let trials = 2 (* best-of-N, damping scheduler noise *)
let sample_every = 0.25 (* seconds between time-series samples *)
let overhead_budget = 0.05

(* ------------------------------------------------------------------ *)
(* One soak pass against an in-process daemon                          *)
(* ------------------------------------------------------------------ *)

type pass = {
  p_elapsed : float;
  p_samples : Loadgen.sample list;
  p_zero_lost : bool;
  p_stalled : int;
  p_debug_ok : bool;
  p_flight : string option;  (** /debug/flightrecorder body (observed pass) *)
}

let run_pass ~observe ~keep_flight sess =
  Util.with_temp_dir "learnq-soak8" (fun dir ->
      Telemetry.reset ();
      Telemetry.set_mode (if observe then Telemetry.Full else Telemetry.Off);
      let cfg =
        {
          Daemon.default_config with
          Daemon.state_dir = dir;
          port = 0;
          pool = 2;
          drain_grace = 3.0;
          sync = Core.Journal.Batch;
          slow_ms = 250.;
        }
      in
      let pass _ port =
        let r =
          Loadgen.run
            {
              Loadgen.host = "127.0.0.1";
              port = (fun () -> port);
              workers = threads_n;
              sample_every;
            }
            (List.map (fun s -> (0.0, s)) sess)
        in
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
            let live =
              Option.value ~default:(-1) (Json.get_int "sessions" stats)
            in
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
              p_elapsed = r.Loadgen.r_elapsed;
              p_samples = r.Loadgen.r_samples;
              p_zero_lost =
                r.Loadgen.r_failed = 0 && live = List.length sess;
              p_stalled = stalled;
              p_debug_ok = debug_ok;
              p_flight = flight;
            })
      in
      Fun.protect
        ~finally:(fun () -> Telemetry.set_mode Telemetry.Ring)
        (fun () ->
          match Daemon.with_inprocess cfg pass with
          | Ok p -> p
          | Error e -> failwith ("soak: serve: " ^ e)))

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
  let sess =
    Loadgen.population ~n:sessions_n ~seed:3000 ~id:(Printf.sprintf "k%03d")
      ~tenant:(fun _ -> "soak") ~refusal:80 ~timeout:40 ~noise:30 ()
  in
  (* Disabled baseline first, so the observed pass's flight recorder is
     the one that lands in the artifact. *)
  let off = best_of trials (fun () -> run_pass ~observe:false ~keep_flight:false sess) in
  Printf.printf "observability off: %.2f s (%.1f sessions/s)\n%!" off.p_elapsed
    (float_of_int sessions_n /. off.p_elapsed);
  let on = best_of trials (fun () -> run_pass ~observe:true ~keep_flight:true sess) in
  Printf.printf "observability on:  %.2f s (%.1f sessions/s)\n%!" on.p_elapsed
    (float_of_int sessions_n /. on.p_elapsed);
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
  let overhead_ok = overhead <= overhead_budget in
  let watchdog_ok = on.p_stalled = 0 && off.p_stalled = 0 in
  let j =
    Json.Obj
      [
        ("bench", Json.Str "serve-soak");
        ("sessions", Json.of_int sessions_n);
        ("threads", Json.of_int threads_n);
        ("trials", Json.of_int trials);
        ("elapsed_on_s", Json.Num on.p_elapsed);
        ("elapsed_off_s", Json.Num off.p_elapsed);
        ("sessions_per_sec", Json.Num (float_of_int sessions_n /. on.p_elapsed));
        ("observability_overhead_pct", Json.Num (overhead *. 100.));
        ("overhead_within_budget", Json.Bool overhead_ok);
        ("zero_lost_sessions", Json.Bool (on.p_zero_lost && off.p_zero_lost));
        ("watchdog_stalls", Json.of_int on.p_stalled);
        ("watchdog_clean", Json.Bool watchdog_ok);
        ("debug_endpoints_ok", Json.Bool on.p_debug_ok);
        ("timeseries", Loadgen.samples_json on.p_samples);
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
