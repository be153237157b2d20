(* Chaos + throughput bench for `learnq serve` (PR 6).

   Phase A — process-level chaos: spawn the real daemon, drive 50 mixed
   twig/join/path sessions over HTTP through the shared load driver
   ({!Loadgen}), whose simulated users' faults (refusals, timeouts, label
   noise) are a pure function of the question, SIGKILL the daemon at ~40%
   progress, restart it on the same state directory, and finish every
   session.  Gates: the daemon was killed mid-run, zero sessions lost,
   every session converges to the query an uninterrupted in-process run
   learns, and SIGTERM drains cleanly.  Sessions/sec and per-answer
   p50/p99 latency are recorded.

   Phase B — the multicore redemption gate: 24 fsync-heavy path sessions
   (sync=Always) driven in registry batches, pool=1 vs pool=2.  Even on
   one core pool=2 must win: a session blocked in fsync releases the
   runtime lock while another session's determined-scan computes.

   Results land in BENCH_PR6.json; the serve-smoke CI lane checks its
   gates. *)

module Engines = Server.Engines
module Registry = Server.Registry
module Stepper = Server.Stepper
module Client = Server.Client
module Json = Server.Json

let sessions_n = 50
let threads_n = 8
let kill_fraction = 0.4
let pool_sessions = 24
let pool_scale _ = 0.02
let pool_stride = 8 (* answers per session per pool round *)
let pool_trials = 3 (* best-of-N, damping disk-latency variance *)

let now = Core.Monotonic.now

(* ------------------------------------------------------------------ *)
(* In-process reference runs (and phase B)                             *)
(* ------------------------------------------------------------------ *)

(* Uninterrupted in-process runs: the ground truth for phase A's
   crash-equivalence gate, and the expected-answers count that places the
   kill point. *)
let reference_runs sess =
  Util.with_temp_dir "learnq-serve-ref" (fun dir ->
      let reg = Registry.create (Registry.default_config dir) in
      Fun.protect
        ~finally:(fun () -> Registry.drain reg)
        (fun () ->
          List.map
            (fun (s : Loadgen.sess) ->
              let st =
                Util.ok_or_fail "serve bench: create"
                  (Registry.create_session reg ~tenant:s.tenant ~id:s.id
                     s.spec)
              in
              let keys, final = Stepper.drive st s.reply in
              let v = Util.ok_or_fail "serve bench: stepper" final in
              (s, List.length keys, v.Stepper.query))
            sess))

(* ------------------------------------------------------------------ *)
(* Phase A: the real daemon under SIGKILL                              *)
(* ------------------------------------------------------------------ *)

let cli_bin () =
  match Sys.getenv_opt "LEARNQ_BIN" with
  | Some p -> p
  | None ->
      let d = Filename.dirname Sys.executable_name in
      let cand =
        Filename.concat
          (Filename.concat (Filename.dirname d) "bin")
          "learnq_cli.exe"
      in
      if Sys.file_exists cand then cand else "learnq_cli.exe"

(* Spawn the daemon and parse the "listening on HOST:PORT" announce. *)
let spawn_daemon ~bin ~dir =
  let r, w = Unix.pipe () in
  let pid =
    Unix.create_process bin
      [|
        bin; "serve"; "--state-dir"; dir; "--port"; "0"; "--pool"; "2";
        "--journal-sync"; "batch"; "--drain-grace"; "3";
      |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let port =
    match String.rindex_opt line ':' with
    | Some i -> (
        match
          int_of_string_opt
            (String.trim
               (String.sub line (i + 1) (String.length line - i - 1)))
        with
        | Some p -> p
        | None -> failwith ("serve bench: bad announce: " ^ line))
    | None -> failwith ("serve bench: no announce line: " ^ line)
  in
  (pid, port, ic)

type phase_a = {
  a_elapsed : float;
  a_sessions_per_sec : float;
  a_p50_ms : float;
  a_p99_ms : float;
  a_killed : bool;
  a_zero_lost : bool;
  a_match : bool;
  a_drain_clean : bool;
}

let run_phase_a sess refs state_dir =
  let bin = cli_bin () in
  let expected_answers =
    List.fold_left (fun n (_, a, _) -> n + a) 0 refs
  in
  let kill_at =
    max 1 (int_of_float (kill_fraction *. float_of_int expected_answers))
  in
  let port = Atomic.make 0 in
  let pid0, port0, ic0 = spawn_daemon ~bin ~dir:state_dir in
  Atomic.set port port0;
  let live = ref (Some (pid0, ic0)) in
  (* The assassin: SIGKILL at ~40% of expected progress, then restart on
     the same state directory.  Workers meeting the dead daemon reconnect
     to the new port once it is published; if the restart fails, their
     sessions fail and so do the gates. *)
  let killed = ref false in
  let on_answer n =
    if n = kill_at then begin
      killed := true;
      Atomic.set port 0;
      Option.iter
        (fun (pid, ic) ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          close_in_noerr ic)
        !live;
      live := None;
      let pid, p, ic = spawn_daemon ~bin ~dir:state_dir in
      live := Some (pid, ic);
      Atomic.set port p
    end
  in
  let r =
    Loadgen.run ~on_answer
      {
        Loadgen.host = "127.0.0.1";
        port = (fun () -> Atomic.get port);
        workers = threads_n;
        (* the run's elapsed time is read at a sample, so sample often *)
        sample_every = 0.05;
      }
      (List.map (fun s -> (0.0, s)) sess)
  in
  (* Zero-lost gate: the restarted daemon must still hold every session. *)
  let stats_sessions =
    match Client.connect ~host:"127.0.0.1" ~port:(Atomic.get port) with
    | Error _ -> -1
    | Ok c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            match Client.request c ~meth:"GET" ~path:"/stats" () with
            | Ok (200, j) -> Option.value ~default:(-1) (Json.get_int "sessions" j)
            | _ -> -1)
  in
  (* Graceful drain: SIGTERM must exit 0 with journals flushed. *)
  let drain_clean =
    match !live with
    | None -> false
    | Some (pid, ic) ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        let _, status = Unix.waitpid [] pid in
        close_in_noerr ic;
        status = Unix.WEXITED 0
  in
  let all_match =
    List.for_all
      (fun ((s : Loadgen.sess), _, ref_q) ->
        List.assoc_opt s.id r.Loadgen.r_queries = Some ref_q)
      refs
  in
  {
    a_elapsed = r.Loadgen.r_elapsed;
    a_sessions_per_sec = float_of_int sessions_n /. r.Loadgen.r_elapsed;
    a_p50_ms = r.Loadgen.r_p50_ms;
    a_p99_ms = r.Loadgen.r_p99_ms;
    a_killed = !killed;
    a_zero_lost = stats_sessions = sessions_n;
    a_match = all_match;
    a_drain_clean = drain_clean;
  }

(* ------------------------------------------------------------------ *)
(* Phase B: pool=1 vs pool=2 on the fsync-bound cross-session workload *)
(* ------------------------------------------------------------------ *)

(* One registry round: each live session answers one question, the whole
   key-disjoint batch on the pool — the dispatcher's execution model.
   Under sync=Always every answer costs two fsyncs; with pool=2 one
   session's fsync wait overlaps another's determined-scan, which is the
   whole multicore story on a single core. *)
let run_pool_phase ~pool_size =
  Util.with_temp_dir "learnq-serve-pool" (fun dir ->
      let reg =
        Registry.create
          { (Registry.default_config dir) with sync = Core.Journal.Always }
      in
      let steppers =
        List.init pool_sessions (fun i ->
            let spec =
              {
                Engines.engine = "path";
                seed = 2000 + i;
                scale = pool_scale i;
                rows = 5;
                cities = 7;
              }
            in
            let truth =
              Util.ok_or_fail "serve bench: goal"
                (Engines.oracle spec ~goal:"highway*")
            in
            let id = Printf.sprintf "p%02d" i in
            ( Util.ok_or_fail "serve bench: create"
                (Registry.create_session reg ~tenant:"bench" ~id spec),
              fun key -> Core.Flaky.Label (truth key) ))
      in
      let pool = Core.Pool.create pool_size in
      (* A stride of answers per round keeps the map_list barrier (and the
         cross-domain GC synchronisation it implies on one core) amortised
         over many fsyncs.  A session stays in the rounds while it has a
         question open. *)
      let one_stride (st, reply) =
        let _, final = Stepper.drive ~stop_after:pool_stride st reply in
        let v = Util.ok_or_fail "serve bench: stepper" final in
        (not v.Stepper.done_) && v.Stepper.question <> None
      in
      let t0 = now () in
      let rec rounds live =
        match live with
        | [] -> ()
        | live ->
            let still =
              Core.Pool.map_list pool one_stride live
            in
            rounds
              (List.map2 (fun s alive -> (s, alive)) live still
              |> List.filter_map (fun (s, alive) ->
                     if alive then Some s else None))
      in
      rounds steppers;
      let elapsed = now () -. t0 in
      Core.Pool.shutdown pool;
      Registry.drain reg;
      elapsed)

(* ------------------------------------------------------------------ *)

let run () =
  print_endline "== learnq serve: chaos + throughput (PR 6) ==";
  let sess =
    Loadgen.population ~n:sessions_n ~seed:1000 ~id:(Printf.sprintf "s%02d")
      ~tenant:(fun i -> Printf.sprintf "t%d" (i mod 4))
      ~refusal:120 ~timeout:60 ~noise:50 ()
  in
  let refs = reference_runs sess in
  let expected = List.fold_left (fun n (_, a, _) -> n + a) 0 refs in
  Printf.printf "reference: %d sessions, %d total answers\n%!" sessions_n
    expected;
  (* CI points this at a workspace path so the journals can be uploaded
     when a gate fails; locally a temp dir is used. *)
  let a =
    match Sys.getenv_opt "LEARNQ_SERVE_STATE" with
    | Some d ->
        (try Unix.mkdir d 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        run_phase_a sess refs d
    | None -> Util.with_temp_dir "learnq-serve-chaos" (run_phase_a sess refs)
  in
  Printf.printf
    "phase A: %.1f s, %.1f sessions/s, p50 %.2f ms, p99 %.2f ms\n\
    \         killed=%b zero_lost=%b match=%b drain_clean=%b\n%!"
    a.a_elapsed a.a_sessions_per_sec a.a_p50_ms a.a_p99_ms a.a_killed
    a.a_zero_lost a.a_match a.a_drain_clean;
  let best pool_size =
    List.init pool_trials (fun _ -> run_pool_phase ~pool_size)
    |> List.fold_left min infinity
  in
  let pool1 = best 1 in
  let pool2 = best 2 in
  Printf.printf "phase B: pool1 %.2f s, pool2 %.2f s (%.2fx)\n%!" pool1 pool2
    (pool1 /. pool2);
  let j =
    Json.Obj
      [
        ("bench", Json.Str "serve-chaos");
        ("sessions", Json.of_int sessions_n);
        ("expected_answers", Json.of_int expected);
        ("elapsed_s", Json.Num a.a_elapsed);
        ("sessions_per_sec", Json.Num a.a_sessions_per_sec);
        ("p50_ms", Json.Num a.a_p50_ms);
        ("p99_ms", Json.Num a.a_p99_ms);
        ("killed_mid_run", Json.Bool a.a_killed);
        ("zero_lost_sessions", Json.Bool a.a_zero_lost);
        ("queries_match_uninterrupted", Json.Bool a.a_match);
        ("drain_clean", Json.Bool a.a_drain_clean);
        ("pool_sessions", Json.of_int pool_sessions);
        ("pool1_s", Json.Num pool1);
        ("pool2_s", Json.Num pool2);
        ("pool2_beats_pool1", Json.Bool (pool2 < pool1));
      ]
  in
  let oc = open_out "BENCH_PR6.json" in
  output_string oc (Json.to_string j);
  output_string oc "\n";
  close_out oc;
  let ok =
    a.a_killed && a.a_zero_lost && a.a_match && a.a_drain_clean
    && pool2 < pool1
  in
  Printf.printf "wrote BENCH_PR6.json (all green: %b)\n%!" ok
