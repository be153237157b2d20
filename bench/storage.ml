(* Storage-robustness bench (PR 7): the disk-fault axis of the chaos
   harness, orthogonal to PR6's SIGKILL axis.

   Part A — checkpoint economics: a long path session (>= 1000 journal
   records) is resumed twice, once by full replay and once from a
   checkpointed + compacted journal.  Reports the compaction ratio and the
   resume speedup; the speedup gates at >= 5x (the path codec rebuilds the
   accumulator with one batch [Words.learn] instead of one per record).

   Part B — evicted-resume latency: sessions pushed out of a small
   [max_live] window by LRU eviction are resurrected on demand; per-resume
   latency is reported as p50/p99.

   Part C — disk-fault soak: many sessions driven through a small live
   window on a faulty Vfs (1% ENOSPC / EIO / short writes, torn tails at
   crash), with two in-process crash+recover cycles mid-run.  Gates: zero
   lost sessions (every query equals the uninterrupted reference) and zero
   quarantines, since none of the injected faults corrupts records in
   place.

   Results land in BENCH_PR7.json; the soak-smoke CI lane greps the
   gates. *)

module Engines = Server.Engines
module Registry = Server.Registry
module Stepper = Server.Stepper
module Json = Server.Json

let now = Core.Monotonic.now
let trials = 3 (* best-of-N for the resume timings *)
let long_min_answers = 500 (* the >= 1k-record floor of the speedup gate *)
let evict_sessions_n = 48
let evict_window = 4
let soak_window = 8
let soak_stride = 3 (* answers per session per soak round *)

let soak_sessions_n =
  match Sys.getenv_opt "LEARNQ_SOAK_SESSIONS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 60)
  | None -> 60

(* ------------------------------------------------------------------ *)
(* Plumbing                                                            *)
(* ------------------------------------------------------------------ *)

let truth_of spec goal =
  Util.ok_or_fail "storage bench: bad goal" (Engines.oracle spec ~goal)

(* Replies delivered by one drive; a stepper error fails the bench. *)
let drive ?stop_after st reply =
  let keys, final = Stepper.drive ?stop_after st reply in
  (List.length keys, Util.ok_or_fail "storage bench: answer" final)

(* [drive], retrying injected storage faults up to [fault_budget] times
   (counted in [faults]).  A retry drives again from a fresh view, so it
   answers the current question. *)
let drive_retrying ~stop_after ~fault_budget faults st reply =
  let rec go delivered budget =
    let keys, final =
      Stepper.drive ~stop_after:(stop_after - delivered) st reply
    in
    let delivered = delivered + List.length keys in
    match final with
    | Ok _ -> delivered
    | Error (Core.Error.Storage _) when budget > 0 ->
        incr faults;
        go delivered (budget - 1)
    | Error _ as e -> Util.ok_or_fail "storage bench: answer" e
  in
  go 0 fault_budget

let journal_path dir =
  match
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun e -> Filename.check_suffix e ".journal")
  with
  | [ name ] -> Filename.concat dir name
  | l ->
      failwith
        (Printf.sprintf "storage bench: expected one journal, found %d"
           (List.length l))

(* ------------------------------------------------------------------ *)
(* Part A: compaction ratio and resume-from-checkpoint speedup         *)
(* ------------------------------------------------------------------ *)

(* The determined-scan prunes so aggressively (the paper's efficiency
   claim) that no session reaches 1000 records in one sitting — long
   journals come from long {e horizons}: a crowd that mostly declines,
   with every evict/resume cycle re-pooling the refused items and
   journaling a fresh Asked/Answered pair per decline.  That unbounded
   growth is the exact pathology checkpoints exist to contain, so the
   bench builds its long journal the same way, through the real API. *)
let refusal_cycles = 400
let refusals_per_cycle = 20

let recover_one dir =
  let reg = Registry.create (Registry.default_config dir) in
  let recovered, errors = Registry.recover_all reg in
  (match errors with
  | [] -> ()
  | (f, e) :: _ ->
      failwith
        (Printf.sprintf "storage bench: recover %s: %s" f
           (Core.Error.to_string e)));
  if recovered <> 1 then failwith "storage bench: session lost";
  reg

let build_long_session dir spec truth =
  let reg = ref (Registry.create (Registry.default_config dir)) in
  ignore
    (Util.ok_or_fail "storage bench: create"
       (Registry.create_session !reg ~tenant:"bench" ~id:"long" spec));
  let delivered = ref 0 in
  for _ = 1 to refusal_cycles do
    let st = Option.get (Registry.find !reg ~tenant:"bench" ~id:"long") in
    let n, _ =
      drive ~stop_after:refusals_per_cycle st (fun _ -> Core.Flaky.Refused)
    in
    delivered := !delivered + n;
    Registry.drain !reg;
    reg := recover_one dir
  done;
  (* A patient labeler finally finishes the session. *)
  let st = Option.get (Registry.find !reg ~tenant:"bench" ~id:"long") in
  let n, _ = drive st (fun key -> Core.Flaky.Label (truth key)) in
  delivered := !delivered + n;
  Registry.drain !reg;
  !delivered

type part_a = {
  a_answers : int;
  a_records : int;
  a_bytes_before : int;
  a_bytes_after : int;
  a_ratio : float;
  a_full_ms : float;
  a_ck_ms : float;
  a_speedup : float;
}

(* Time the resume-on-demand path — a fresh registry resurrecting the
   session straight from its journal, exactly what a request hitting an
   evicted key pays.  Best of [trials]. *)
let time_resume dir =
  List.init trials (fun _ ->
      let reg = Registry.create (Registry.default_config dir) in
      let t0 = now () in
      (match Registry.find_or_resume reg ~tenant:"bench" ~id:"long" with
      | Ok (Some _) -> ()
      | Ok None -> failwith "storage bench: long session lost"
      | Error e -> failwith (Core.Error.to_string e));
      let dt = now () -. t0 in
      Registry.drain reg;
      dt)
  |> List.fold_left min infinity

let run_part_a () =
  (* A small instance keeps the engine-generation cost (paid by both
     resume paths) negligible next to the replay cost the checkpoint
     skips. *)
  let spec =
    { Engines.engine = "path"; seed = 9; scale = 0.1; rows = 5; cities = 16 }
  in
  let truth = truth_of spec "highway*" in
  Util.with_temp_dir "learnq-pr7-ck" (fun dir ->
      let answers = build_long_session dir spec truth in
      if answers < long_min_answers then
        failwith
          (Printf.sprintf
             "storage bench: long session delivered only %d replies" answers);
      let jp = journal_path dir in
      let bytes_before = (Unix.stat jp).Unix.st_size in
      let full_ms = 1000. *. time_resume dir in
      (* Checkpoint + compact through the stepper (the eviction path). *)
      let reg = Registry.create (Registry.default_config dir) in
      (match Registry.find_or_resume reg ~tenant:"bench" ~id:"long" with
      | Ok (Some st) -> (
          match st.Stepper.checkpoint () with
          | Ok () -> ()
          | Error e ->
              failwith
                ("storage bench: checkpoint: " ^ Core.Error.to_string e))
      | Ok None -> failwith "storage bench: long session lost"
      | Error e -> failwith (Core.Error.to_string e));
      Registry.drain reg;
      let bytes_after = (Unix.stat jp).Unix.st_size in
      let ck_ms = 1000. *. time_resume dir in
      {
        a_answers = answers;
        a_records = 2 * answers;
        a_bytes_before = bytes_before;
        a_bytes_after = bytes_after;
        a_ratio = float_of_int bytes_before /. float_of_int (max 1 bytes_after);
        a_full_ms = full_ms;
        a_ck_ms = ck_ms;
        a_speedup = full_ms /. ck_ms;
      })

(* ------------------------------------------------------------------ *)
(* Part B: evicted-session resume latency                              *)
(* ------------------------------------------------------------------ *)

(* The serve benches' mixed population, labeled by a user who never
   refuses, times out or errs. *)
let mixed_sessions n =
  Loadgen.population ~n ~seed:3000 ~id:(Printf.sprintf "s%03d")
    ~tenant:(fun _ -> "bench") ()

let run_part_b () =
  let sess = mixed_sessions evict_sessions_n in
  Util.with_temp_dir "learnq-pr7-evict" (fun dir ->
      let reg =
        Registry.create
          {
            (Registry.default_config dir) with
            sync = Core.Journal.Always;
            checkpoint_every = 4;
            max_live = evict_window;
          }
      in
      Fun.protect
        ~finally:(fun () -> Registry.drain reg)
        (fun () ->
          List.iter
            (fun (s : Loadgen.sess) ->
              let st =
                Util.ok_or_fail "storage bench: create"
                  (Registry.create_session reg ~tenant:s.tenant ~id:s.id
                     s.spec)
              in
              ignore (drive ~stop_after:4 st s.reply);
              ignore (Registry.evict_idle reg))
            sess;
          (* Everything beyond the window is now cold: resume each one. *)
          let lats =
            List.filter_map
              (fun (s : Loadgen.sess) ->
                let t0 = now () in
                match Registry.find_or_resume reg ~tenant:s.tenant ~id:s.id with
                | Ok (Some _) ->
                    let dt = 1000. *. (now () -. t0) in
                    ignore (Registry.evict_idle reg);
                    Some dt
                | Ok None -> failwith "storage bench: evicted session lost"
                | Error e -> failwith (Core.Error.to_string e))
              sess
            |> Array.of_list
          in
          Array.sort compare lats;
          let stats = Registry.stats reg in
          (stats.Registry.evicted, stats.Registry.resumed,
           Util.percentile lats 0.50, Util.percentile lats 0.99)))

(* ------------------------------------------------------------------ *)
(* Part C: disk-fault soak                                             *)
(* ------------------------------------------------------------------ *)

type soak = {
  s_sessions : int;
  s_answers : int;
  s_faults_injected : int;
  s_faults_retried : int;
  s_crashes : int;
  s_quarantined : int;
  s_lost : int;
  s_mismatched : int;
}

(* CI points this at a workspace path so quarantined journals survive the
   run as uploadable artifacts; locally a temp dir is used. *)
let soak_dir f =
  match Sys.getenv_opt "LEARNQ_SOAK_STATE" with
  | Some d ->
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      f d
  | None -> Util.with_temp_dir "learnq-pr7-soak" f

let run_soak () =
  let sess = mixed_sessions soak_sessions_n in
  (* The whole fleet lives under one tenant, and the reference (and each
     recovery) holds all of it live at once, so the quota must clear the
     fleet size. *)
  let tenants =
    Server.Tenant.make
      ~default:(Server.Tenant.quota ~max_sessions:10_000 ())
      []
  in
  (* Uninterrupted reference: the answers each session takes and the query
     every chaos run must converge to. *)
  let refs =
    Util.with_temp_dir "learnq-pr7-soak-ref" (fun dir ->
        let reg =
          Registry.create { (Registry.default_config dir) with tenants }
        in
        Fun.protect
          ~finally:(fun () -> Registry.drain reg)
          (fun () ->
            List.map
              (fun (s : Loadgen.sess) ->
                let st =
                  Util.ok_or_fail "storage bench: create"
                    (Registry.create_session reg ~tenant:s.tenant ~id:s.id
                       s.spec)
                in
                let n, v = drive st s.reply in
                (n, v.Stepper.query))
              sess))
  in
  let expected_answers = List.fold_left (fun t (n, _) -> t + n) 0 refs in
  soak_dir (fun dir ->
      let vfs =
        Core.Vfs.faulty ~seed:42
          (Core.Flaky.disk ~enospc:0.01 ~eio:0.01 ~short_write:0.01 ~torn:0.5
             ())
      in
      let fresh () =
        Registry.create
          {
            (Registry.default_config dir) with
            sync = Core.Journal.Always;
            tenants;
            vfs;
            checkpoint_every = 4;
            max_live = soak_window;
          }
      in
      let reg = ref (fresh ()) in
      let quarantined = ref 0 in
      let crashes = ref 0 in
      let retried = ref 0 in
      let answers = ref 0 in
      (* Crash the process and the disk together at ~1/3 and ~2/3 of the
         expected total progress, then recover on a fresh registry. *)
      let crash_points =
        ref [ expected_answers / 3; 2 * expected_answers / 3 ]
      in
      (* Per-registry counters are harvested just before the instance is
         discarded, and once more at the end. *)
      let note_quarantined () =
        quarantined := !quarantined + (Registry.stats !reg).Registry.quarantined
      in
      let crash_cycle () =
        incr crashes;
        note_quarantined ();
        Registry.crash !reg;
        Core.Vfs.crash vfs;
        reg := fresh ();
        let pool = Core.Pool.create 2 in
        let _, errors =
          Fun.protect
            ~finally:(fun () -> Core.Pool.shutdown pool)
            (fun () -> Registry.recover_all !reg ~pool)
        in
        (* recover_all reports quarantines as errors it survived; an
           injected ENOSPC/EIO just leaves that journal on disk for
           [find_or_resume] to pick up later.  Anything else is a bench
           failure. *)
        List.iter
          (fun (f, e) ->
            match e with
            | Core.Error.Corrupt_journal _ -> ()
            | Core.Error.Storage _ -> incr retried
            | e ->
                failwith
                  (Printf.sprintf "storage bench: recover %s: %s" f
                     (Core.Error.to_string e)))
          errors
      in
      let maybe_crash () =
        match !crash_points with
        | at :: rest when !answers >= at ->
            crash_points := rest;
            crash_cycle ()
        | _ -> ()
      in
      let retry_transient f =
        let rec go attempts =
          match f () with
          | Ok v -> v
          | Error (Core.Error.Storage _) when attempts < 100 ->
              incr retried;
              go (attempts + 1)
          | Error e -> failwith (Core.Error.to_string e)
        in
        go 0
      in
      (* Create everything, then drive in strides through the window. *)
      List.iter
        (fun (s : Loadgen.sess) ->
          ignore
            (retry_transient (fun () ->
                 Registry.create_session !reg ~tenant:s.tenant ~id:s.id s.spec));
          ignore (Registry.evict_idle !reg))
        sess;
      let rec rounds live =
        match live with
        | [] -> ()
        | live ->
            let still =
              List.filter
                (fun (s : Loadgen.sess) ->
                  let st =
                    retry_transient (fun () ->
                        match
                          Registry.find_or_resume !reg ~tenant:s.tenant ~id:s.id
                        with
                        | Ok (Some st) -> Ok st
                        | Ok None ->
                            failwith "storage bench: session lost mid-soak"
                        | Error e -> Error e)
                  in
                  let n =
                    drive_retrying ~stop_after:soak_stride ~fault_budget:100
                      retried st s.reply
                  in
                  answers := !answers + n;
                  ignore (Registry.evict_idle !reg);
                  maybe_crash ();
                  not (st.Stepper.view ()).Stepper.done_)
                live
            in
            rounds still
      in
      rounds sess;
      (* Verdict: every session alive, every query the reference one. *)
      let lost = ref 0 and mismatched = ref 0 in
      List.iter2
        (fun (s : Loadgen.sess) (_, ref_query) ->
          match
            retry_transient (fun () ->
                match Registry.find_or_resume !reg ~tenant:s.tenant ~id:s.id with
                | (Ok _ | Error _) as r -> r)
          with
          | None -> incr lost
          | Some st ->
              let v = st.Stepper.view () in
              if v.Stepper.query <> ref_query then incr mismatched;
              ignore (Registry.evict_idle !reg))
        sess refs;
      note_quarantined ();
      Registry.drain !reg;
      {
        s_sessions = soak_sessions_n;
        s_answers = !answers;
        s_faults_injected = Core.Vfs.fault_count vfs;
        s_faults_retried = !retried;
        s_crashes = !crashes;
        s_quarantined = !quarantined;
        s_lost = !lost;
        s_mismatched = !mismatched;
      })

(* ------------------------------------------------------------------ *)

let run () =
  print_endline "== storage robustness: checkpoints, eviction, disk faults (PR 7) ==";
  let a = run_part_a () in
  Printf.printf
    "part A: %d answers (%d records), %d -> %d bytes (%.1fx), resume full \
     %.1f ms vs checkpoint %.1f ms (%.1fx)\n%!"
    a.a_answers a.a_records a.a_bytes_before a.a_bytes_after a.a_ratio
    a.a_full_ms a.a_ck_ms a.a_speedup;
  let evicted, resumed, p50, p99 = run_part_b () in
  Printf.printf
    "part B: %d sessions through a %d-slot window: %d evictions, %d \
     resumes, resume p50 %.2f ms, p99 %.2f ms\n%!"
    evict_sessions_n evict_window evicted resumed p50 p99;
  let s = run_soak () in
  Printf.printf
    "part C: %d sessions, %d answers, %d faults injected (%d retried), %d \
     crashes, %d quarantined, %d lost, %d mismatched\n%!"
    s.s_sessions s.s_answers s.s_faults_injected s.s_faults_retried
    s.s_crashes s.s_quarantined s.s_lost s.s_mismatched;
  let speedup_ok = a.a_records >= 1000 && a.a_speedup >= 5.0 in
  let soak_ok =
    s.s_lost = 0 && s.s_mismatched = 0 && s.s_quarantined = 0
    && s.s_crashes = 2
    && s.s_faults_injected > 0
  in
  let j =
    Json.Obj
      [
        ("bench", Json.Str "storage-pr7");
        ("records", Json.of_int a.a_records);
        ("journal_bytes_before", Json.of_int a.a_bytes_before);
        ("journal_bytes_after", Json.of_int a.a_bytes_after);
        ("compaction_ratio", Json.Num a.a_ratio);
        ("resume_full_replay_ms", Json.Num a.a_full_ms);
        ("resume_from_checkpoint_ms", Json.Num a.a_ck_ms);
        ("resume_speedup", Json.Num a.a_speedup);
        ("resume_speedup_gate_5x", Json.Bool speedup_ok);
        ("evict_sessions", Json.of_int evict_sessions_n);
        ("evict_window", Json.of_int evict_window);
        ("evictions", Json.of_int evicted);
        ("resumes", Json.of_int resumed);
        ("evicted_resume_p50_ms", Json.Num p50);
        ("evicted_resume_p99_ms", Json.Num p99);
        ("soak_sessions", Json.of_int s.s_sessions);
        ("soak_answers", Json.of_int s.s_answers);
        ("soak_faults_injected", Json.of_int s.s_faults_injected);
        ("soak_faults_retried", Json.of_int s.s_faults_retried);
        ("soak_crashes", Json.of_int s.s_crashes);
        ("soak_quarantined", Json.of_int s.s_quarantined);
        ("soak_lost_sessions", Json.of_int s.s_lost);
        ("soak_mismatched_sessions", Json.of_int s.s_mismatched);
        ("soak_zero_lost", Json.Bool (s.s_lost = 0 && s.s_mismatched = 0));
        ("soak_quarantine_free", Json.Bool (s.s_quarantined = 0));
      ]
  in
  let oc = open_out "BENCH_PR7.json" in
  output_string oc (Json.to_string j);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote BENCH_PR7.json (all green: %b)\n%!"
    (speedup_ok && soak_ok)
