(* The cost of crash safety (PR-2): raw journal append (fsync'd and not)
   and replay over a 1k-answer session, then live vs journaled vs resumed
   wall-clock for each interactive engine.  Results go to BENCH_PR2.json —
   machine-readable, for the CI artifact. *)

let temp () = Filename.temp_file "learnq_bench" ".wal"

let with_temp f =
  let path = temp () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let recovered_exn = function
  | Ok (r : Core.Journal.recovered) -> r
  | Error e -> failwith (Core.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Raw journal: a 1k-answer session, recorded and replayed              *)
(* ------------------------------------------------------------------ *)

let answers = 1_000

let session_events =
  List.concat
    (List.init answers (fun i ->
         let item = Printf.sprintf "item-%04d" i in
         Core.Journal.
           [ Asked item; Answered (item, Core.Flaky.Label (i mod 3 = 0)) ]))

let record ~sync path =
  let j =
    Core.Journal.create ~sync ~path
      { Core.Journal.seed = 1; engine = "bench"; config = "pr2" }
  in
  List.iter (Core.Journal.append j) session_events;
  Core.Journal.append j Core.Journal.Completed;
  Core.Journal.close j

type journal_times = {
  record_sync : float;
  record_nosync : float;
  replay : float;
}

let journal_times () =
  with_temp (fun p_sync ->
      with_temp (fun p_nosync ->
          let (), record_sync =
            Util.time (fun () -> record ~sync:Core.Journal.Always p_sync)
          in
          let (), record_nosync =
            Util.time (fun () -> record ~sync:Core.Journal.Off p_nosync)
          in
          let r, replay =
            Util.time (fun () ->
                recovered_exn (Core.Journal.recover ~path:p_sync))
          in
          assert (List.length (Core.Journal.answered r) = answers);
          { record_sync; record_nosync; replay }))

(* ------------------------------------------------------------------ *)
(* Per-engine sessions: live, journaled (fsync'd), resumed from journal *)
(* ------------------------------------------------------------------ *)

type engine_times = {
  name : string;
  questions : int;
  live : float;
  journaled : float;
  resumed : float;
}

(* [run ?journal ?resume] must run one full session; the three timings use
   fresh deterministic rngs so the sessions are identical. *)
let measure_engine name encode decode decode_state run =
  with_temp (fun path ->
      let live_outcome, live = Util.time (fun () -> run None None) in
      let j =
        Core.Journal.create ~path
          { Core.Journal.seed = 1; engine = name; config = "bench" }
      in
      let journaled_outcome, journaled =
        Util.time (fun () -> run (Some (j, encode)) None)
      in
      Core.Journal.close j;
      let r = recovered_exn (Core.Journal.recover ~path) in
      let resumed_outcome, resumed =
        Util.time (fun () -> run None (Some (r.events, decode, decode_state)))
      in
      ignore journaled_outcome;
      if resumed_outcome <> live_outcome then
        failwith (name ^ ": replayed session diverged from the live one");
      {
        name;
        questions = live_outcome;
        live;
        journaled;
        resumed;
      })

let twig_engine () =
  let doc = Benchkit.Xmark.generate ~scale:1.0 ~seed:1 () in
  let goal = Twig.Parse.query "//person[profile/education]/name" in
  let items = Twiglearn.Interactive.items_of_doc doc in
  let oracle it = Core.Flaky.Label (Twig.Eval.selects_example goal it) in
  measure_engine "learn-twig" Twiglearn.Interactive.encode_item
    (Twiglearn.Interactive.decode_item ~doc)
    (Twiglearn.Interactive.decode_state ~doc)
    (fun journal resume ->
      let o =
        Twiglearn.Interactive.Loop.run_flaky ~rng:(Core.Prng.create 1)
          ?journal ?resume ~oracle ~items ()
      in
      o.questions + o.replayed)

let join_engine () =
  let rng = Core.Prng.create 1 in
  let inst =
    Relational.Generator.pair_instance ~rng ~left_rows:30 ~right_rows:30 ()
  in
  let space =
    Joinlearn.Signature.space
      ~left_arity:(Relational.Relation.arity inst.left)
      ~right_arity:(Relational.Relation.arity inst.right)
  in
  let items = Joinlearn.Interactive.items_of space inst.left inst.right in
  let goal = Joinlearn.Signature.of_predicate space inst.planted in
  let oracle (it : Joinlearn.Interactive.item) =
    Core.Flaky.Label (Joinlearn.Signature.subset goal it.mask)
  in
  measure_engine "learn-join"
    (Joinlearn.Interactive.encode_item ~left:inst.left ~right:inst.right)
    (Joinlearn.Interactive.decode_item ~left:inst.left ~right:inst.right)
    (Joinlearn.Interactive.decode_state ~left:inst.left ~right:inst.right)
    (fun journal resume ->
      let o =
        Joinlearn.Interactive.Loop.run_flaky ~rng:(Core.Prng.create 1)
          ~strategy:Joinlearn.Interactive.lattice_strategy ?journal ?resume
          ~oracle ~items ()
      in
      o.questions + o.replayed)

let path_engine () =
  let rng = Core.Prng.create 1 in
  let graph = Graphdb.Generators.geo ~rng ~cities:14 () in
  let goal = Automata.Dfa.of_regex (Automata.Regex.parse "highway highway*") in
  let items = Pathlearn.Interactive.items_of_graph ~max_len:3 ~rng graph in
  let oracle (it : Pathlearn.Interactive.item) =
    Core.Flaky.Label (Automata.Dfa.accepts goal it.word)
  in
  measure_engine "learn-path" Pathlearn.Interactive.encode_item
    Pathlearn.Interactive.decode_item Pathlearn.Interactive.decode_state
    (fun journal resume ->
      let o =
        Pathlearn.Interactive.Loop.run_flaky ~rng:(Core.Prng.create 1)
          ?journal ?resume ~oracle ~items ()
      in
      o.questions + o.replayed)

(* ------------------------------------------------------------------ *)
(* JSON emission                                                       *)
(* ------------------------------------------------------------------ *)

let output = "BENCH_PR2.json"

let engine_json e =
  let overhead = if e.live > 0. then (e.journaled -. e.live) /. e.live else 0. in
  Printf.sprintf
    {|    { "engine": %S, "questions": %d, "live_s": %.6f,
      "journaled_sync_s": %.6f, "journal_overhead": %.4f,
      "resume_replay_s": %.6f }|}
    e.name e.questions e.live e.journaled overhead e.resumed

let run () =
  let jt = journal_times () in
  let engines = [ twig_engine (); join_engine (); path_engine () ] in
  let ratio = if jt.record_sync > 0. then jt.replay /. jt.record_sync else 0. in
  let json =
    Printf.sprintf
      {|{
  "bench": "pr2_crash_recovery",
  "generated_by": "dune exec bench/main.exe -- pr2",
  "journal": {
    "answers": %d,
    "record_live_sync_s": %.6f,
    "record_live_nosync_s": %.6f,
    "replay_s": %.6f,
    "replay_over_live_recording": %.4f,
    "replay_overhead_under_10pct": %b
  },
  "engines": [
%s
  ]
}
|}
      answers jt.record_sync jt.record_nosync jt.replay ratio (ratio < 0.10)
      (String.concat ",\n" (List.map engine_json engines))
  in
  let oc = open_out output in
  output_string oc json;
  close_out oc;
  Printf.printf
    "pr2: 1k-answer journal — record %.1f ms fsync'd (%.1f ms buffered), \
     replay %.1f ms (%.1f%% of recording)\n"
    (jt.record_sync *. 1e3) (jt.record_nosync *. 1e3) (jt.replay *. 1e3)
    (ratio *. 100.);
  List.iter
    (fun e ->
      Printf.printf
        "pr2: %-10s %4d questions — live %.1f ms, journaled %.1f ms, resume \
         replay %.1f ms\n"
        e.name e.questions (e.live *. 1e3) (e.journaled *. 1e3)
        (e.resumed *. 1e3))
    engines;
  Printf.printf "pr2: wrote %s\n" output
