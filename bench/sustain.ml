(* Sustained-load soak for the connection multiplexer (PR 10).

   The mux under open-loop load with a parked herd.  One in-process
   daemon (mux + bounded worker pool); first a herd of keep-alive
   connections each completes one request and then sits idle, proving
   that parked connections cost zero threads; then the shared load driver
   ({!Loadgen}) releases the full session population on a seeded
   open-loop schedule through the same daemon while its sampler records
   sessions/sec, the sliding-window p50/p99, and the /stats
   connection/thread gauges.  Gates:

   - zero lost sessions: every arrival completes and /stats still counts
     each one at the end;
   - thread bound: with >= 500 connections parked, the HTTP thread
     budget stays at io_threads + 1 in every sample (parking is free);
   - p99 within a 500 ms budget — deliberately generous, catching
     order-of-magnitude regressions on any hardware; the CI lane
     additionally diffs p99 against the committed baseline for finer
     drift.

   Crash equivalence under SIGKILL is pr6's gate ({!Serve}), which CI runs
   on the same build.

   Results land in BENCH_PR10.json; the sustained-soak CI lane checks the
   gates and diffs p99 against the committed baseline. *)

module Client = Server.Client
module Json = Server.Json
module Daemon = Server.Daemon
module Tenant = Server.Tenant

let sessions_n = 1000
let duration_s = 60.0
let seed = 0x10ad
let herd_n = 600
let workers_n = 16
let io_threads_n = 4
let p99_budget_ms = 500.0
let herd_bound = 500 (* the invariant's floor, regardless of herd size *)

(* The seeded open-loop schedule: cumulative exponential gaps at rate
   sessions/duration, fixed up front. *)
let arrivals () =
  let g = Core.Prng.create seed in
  let rate = float_of_int sessions_n /. duration_s in
  let t = ref 0.0 in
  List.init sessions_n (fun _ ->
      let u = min (Core.Prng.float g 1.0) 0.999_999 in
      t := !t +. (-.log (1.0 -. u) /. rate);
      !t)

(* ------------------------------------------------------------------ *)
(* Load phase                                                          *)
(* ------------------------------------------------------------------ *)

type load = {
  a_result : Loadgen.result;
  a_live : int;  (** /stats sessions after the run *)
  a_herd_parked : int;  (** parked gauge once the herd settled *)
  a_parked_min : int;  (** min parked across load samples *)
  a_threads_max : int;  (** max /stats threads across load samples *)
  a_proc_threads : int option;
      (** OS threads in the whole process with the herd parked (daemon +
          bench harness together) — the thread-per-connection design this
          PR replaced would put this above the herd size *)
}

(* Linux-only corroboration of the mux's own gauge; [None] elsewhere. *)
let proc_threads () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | line ->
            if String.length line > 8 && String.sub line 0 8 = "Threads:" then
              int_of_string_opt
                (String.trim (String.sub line 8 (String.length line - 8)))
            else scan ()
        | exception End_of_file -> None
      in
      let r = scan () in
      close_in ic;
      r

let stats_int c key =
  match Client.request c ~meth:"GET" ~path:"/stats" () with
  | Ok (200, j) -> Option.value ~default:(-1) (Json.get_int key j)
  | _ -> -1

let rec connect_retry ~port =
  match Client.connect ~host:"127.0.0.1" ~port with
  | Ok c -> c
  | Error _ ->
      Thread.delay 0.05;
      connect_retry ~port

let run_load () =
  Util.with_temp_dir "learnq-sustain" (fun dir ->
      Core.Telemetry.reset ();
      let cfg =
        {
          Daemon.default_config with
          Daemon.state_dir = dir;
          port = 0;
          pool = 2;
          io_threads = io_threads_n;
          max_conns = herd_n + workers_n + 64;
          max_idle_conns = 0;
          drain_grace = 5.0;
          sync = Core.Journal.Batch;
          tenants =
            Tenant.make
              ~default:(Tenant.quota ~max_sessions:1_000_000 ())
              [];
        }
      in
      let phase _ port =
        (* The herd: each connection completes one real request and then
           parks.  They stay open for the whole load phase. *)
        let herd_conns =
          List.init herd_n (fun _ ->
              let c = connect_retry ~port in
              (match Client.request c ~meth:"GET" ~path:"/healthz" () with
              | Ok (200, _) -> ()
              | _ -> failwith "sustain: herd healthz failed");
              c)
        in
        Fun.protect
          ~finally:(fun () -> List.iter Client.close herd_conns)
          (fun () ->
            let sc = connect_retry ~port in
            Fun.protect
              ~finally:(fun () -> Client.close sc)
              (fun () ->
                (* Wait for every herd connection to park. *)
                let deadline = Core.Monotonic.now () +. 30.0 in
                let rec settle () =
                  let p = stats_int sc "parked" in
                  if p >= herd_n then p
                  else if Core.Monotonic.now () > deadline then p
                  else begin
                    Thread.delay 0.1;
                    settle ()
                  end
                in
                let herd_parked = settle () in
                let procs = proc_threads () in
                Printf.printf
                  "herd parked: %d connections, /stats threads = %d, process threads = %s\n%!"
                  herd_parked (stats_int sc "threads")
                  (match procs with
                  | Some n -> string_of_int n
                  | None -> "n/a");
                let sess =
                  Loadgen.population ~n:sessions_n ~seed
                    ~id:(Printf.sprintf "g%05d")
                    ~tenant:(fun _ -> "sustain")
                    ~refusal:30 ~timeout:15 ~noise:20 ()
                in
                let result =
                  Loadgen.run
                    {
                      Loadgen.host = "127.0.0.1";
                      port = (fun () -> port);
                      workers = workers_n;
                      sample_every = 0.5;
                    }
                    (List.combine (arrivals ()) sess)
                in
                let live = stats_int sc "sessions" in
                let parked_min, threads_max =
                  List.fold_left
                    (fun (pmin, tmax) s ->
                      ( min pmin s.Loadgen.sm_parked,
                        max tmax s.Loadgen.sm_threads ))
                    (max_int, 0) result.Loadgen.r_samples
                in
                let parked_min =
                  if parked_min = max_int then herd_parked else parked_min
                in
                {
                  a_result = result;
                  a_live = live;
                  a_herd_parked = herd_parked;
                  a_parked_min = parked_min;
                  a_threads_max = threads_max;
                  a_proc_threads = procs;
                }))
      in
      match Daemon.with_inprocess cfg phase with
      | Ok a -> a
      | Error e -> failwith ("sustain: serve: " ^ e))

(* ------------------------------------------------------------------ *)

let run () =
  print_endline "== learnq serve: sustained-load soak (PR 10) ==";
  Printf.printf
    "load: %d sessions over %.0f s (open-loop), %d workers, %d-conn idle herd, io-threads %d\n%!"
    sessions_n duration_s workers_n herd_n io_threads_n;
  let a = run_load () in
  let r = a.a_result in
  Printf.printf
    "load: %.1f s, %d/%d completed (%d failed), %d answers, p50 %.1f ms p99 %.1f ms\n%!"
    r.Loadgen.r_elapsed r.Loadgen.r_completed sessions_n r.Loadgen.r_failed
    r.Loadgen.r_answers r.Loadgen.r_p50_ms r.Loadgen.r_p99_ms;
  let thread_bound = io_threads_n + 1 in
  Printf.printf
    "load: parked >= %d throughout, /stats threads <= %d (budget %d), pickup lag max %.0f ms\n%!"
    a.a_parked_min a.a_threads_max thread_bound r.Loadgen.r_lag_max_ms;
  let zero_lost =
    r.Loadgen.r_completed = sessions_n && r.Loadgen.r_failed = 0
    && a.a_live = sessions_n
  in
  let idle_thread_ok =
    a.a_herd_parked >= herd_bound
    && a.a_parked_min >= herd_bound
    && a.a_threads_max <= thread_bound
    (* Corroborate with the OS where we can: the whole process (daemon
       plus harness) must hold far fewer threads than parked herd
       connections — thread-per-connection would need one each. *)
    && (match a.a_proc_threads with Some n -> n < herd_bound / 4 | None -> true)
  in
  let p99_ok = r.Loadgen.r_p99_ms <= p99_budget_ms in
  let all_green = zero_lost && idle_thread_ok && p99_ok in
  let j =
    Json.Obj
      [
        ("bench", Json.Str "serve-sustain");
        ("sessions", Json.of_int sessions_n);
        ("duration_s", Json.Num duration_s);
        ("workers", Json.of_int workers_n);
        ("herd_conns", Json.of_int herd_n);
        ("io_threads", Json.of_int io_threads_n);
        ("elapsed_s", Json.Num r.Loadgen.r_elapsed);
        ( "sessions_per_sec",
          Json.Num (float_of_int sessions_n /. r.Loadgen.r_elapsed) );
        ("completed", Json.of_int r.Loadgen.r_completed);
        ("failed", Json.of_int r.Loadgen.r_failed);
        ("answers", Json.of_int r.Loadgen.r_answers);
        ("p50_ms", Json.Num r.Loadgen.r_p50_ms);
        ("p99_ms", Json.Num r.Loadgen.r_p99_ms);
        ("p99_budget_ms", Json.Num p99_budget_ms);
        ("p99_within_budget", Json.Bool p99_ok);
        ("zero_lost_sessions", Json.Bool zero_lost);
        ("herd_parked", Json.of_int a.a_herd_parked);
        ("parked_min_under_load", Json.of_int a.a_parked_min);
        ("threads_max_under_load", Json.of_int a.a_threads_max);
        ("thread_bound", Json.of_int thread_bound);
        ( "process_threads_with_herd",
          match a.a_proc_threads with
          | Some n -> Json.of_int n
          | None -> Json.Null );
        ("idle_thread_bound_ok", Json.Bool idle_thread_ok);
        ("arrival_lag_max_ms", Json.Num r.Loadgen.r_lag_max_ms);
        ("timeseries", Loadgen.samples_json r.Loadgen.r_samples);
        ("all_green", Json.Bool all_green);
      ]
  in
  let oc = open_out "BENCH_PR10.json" in
  output_string oc (Json.to_string j);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote BENCH_PR10.json (all green: %b)\n%!" all_green
