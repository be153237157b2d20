(* Golden journals and CLI resume regressions.

   The golden tests pin the exact journal bytes of one uninterrupted,
   journaled session per engine, driven two ways: through the batch loop
   ([Loop.run_flaky]: the CLI's keyed flaky user, a retry policy, periodic
   checkpoints) and through the server's [Stepper] (seeded replies,
   periodic checkpoints); and of five reliable twig sessions on the
   benchmark's learn-twig document.  The digests are constants: any change
   to the session protocol's question order, pruning, refusal handling, or
   checkpoint contents shows up here as a different hash.

   The CLI tests drive the real binary through a crash and one or two
   resumes and check the recovered journal record by record. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let with_temp_dir f =
  let dir = Filename.temp_file "learnq_golden" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let digest_of path = Digest.to_hex (Digest.string (read_file path))

(* A fresh [Off]-synced journal in [dir]; [f] runs the session, then the
   journal is closed and its final bytes hashed. *)
let journaled_digest ~engine f =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "golden.journal" in
      let j =
        Core.Journal.create ~sync:Core.Journal.Off ~path
          { Core.Journal.seed = 7; engine; config = "golden" }
      in
      Fun.protect ~finally:(fun () -> Core.Journal.close j) (fun () -> f j);
      digest_of path)

(* ------------------------------------------------------------------ *)
(* Batch loop: one flaky, retried, checkpointed session per engine      *)
(* ------------------------------------------------------------------ *)

(* The CLI's simulated user: keyed by the journal codec, each ask of a
   question one attempt on.  Seed 1 makes join's short session retry. *)
let user encode truth =
  let asks = Hashtbl.create 64 in
  fun it ->
    let key = encode it in
    let attempt = Option.value ~default:0 (Hashtbl.find_opt asks key) in
    Hashtbl.replace asks key (attempt + 1);
    Core.Flaky.user ~seed:1 ~truth:(fun _ -> truth it) ~refusal:250
      ~timeout:100 ~noise:0 ~attempt key

let retry =
  Core.Retry.policy ~max_attempts:2 ~base_delay:0. ~breaker_threshold:100
    ~sleep:Core.Retry.no_sleep ()

(* Each session must actually take the paths the digest is meant to pin. *)
let exercised what ~refused ~retried ~degraded =
  Alcotest.(check bool) (what ^ " session refused and retried") true
    (refused > 0 && retried > 0);
  Alcotest.(check bool) (what ^ " session completed") false degraded

let twig_doc = lazy (Benchkit.Xmark.generate ~scale:0.02 ~seed:7 ())

let loop_twig () =
  journaled_digest ~engine:"golden-twig" (fun j ->
      let doc = Lazy.force twig_doc in
      let goal = Twig.Parse.query "//person/name" in
      let rng = Core.Prng.create 7 in
      let o =
        Twiglearn.Interactive.Loop.run_flaky ~rng
          ~journal:(j, Twiglearn.Interactive.encode_item)
          ~checkpoint_every:3 ~snapshot:Twiglearn.Interactive.encode_state
          ~retry
          ~oracle:
            (user Twiglearn.Interactive.encode_item
               (Twig.Eval.selects_example goal))
          ~items:(Twiglearn.Interactive.items_of_doc doc)
          ()
      in
      exercised "twig" ~refused:o.refused ~retried:o.retried
        ~degraded:o.degraded)

let loop_join () =
  journaled_digest ~engine:"golden-join" (fun j ->
      let rng = Core.Prng.create 7 in
      let inst =
        Relational.Generator.pair_instance ~rng ~left_rows:6 ~right_rows:6 ()
      in
      let left = inst.Relational.Generator.left and right = inst.right in
      let space =
        Joinlearn.Signature.space
          ~left_arity:(Relational.Relation.arity left)
          ~right_arity:(Relational.Relation.arity right)
      in
      let goal = Joinlearn.Signature.of_predicate space inst.planted in
      let o =
        Joinlearn.Interactive.Loop.run_flaky ~rng
          ~strategy:Joinlearn.Interactive.lattice_strategy
          ~journal:(j, Joinlearn.Interactive.encode_item ~left ~right)
          ~checkpoint_every:3 ~snapshot:Joinlearn.Interactive.encode_state
          ~retry
          ~oracle:
            (user (Joinlearn.Interactive.encode_item ~left ~right) (fun it ->
                 Joinlearn.Signature.subset goal it.Joinlearn.Interactive.mask))
          ~items:(Joinlearn.Interactive.items_of space left right)
          ()
      in
      exercised "join" ~refused:o.refused ~retried:o.retried
        ~degraded:o.degraded)

let loop_path () =
  journaled_digest ~engine:"golden-path" (fun j ->
      let rng = Core.Prng.create 7 in
      let graph = Graphdb.Generators.geo ~rng ~cities:6 () in
      let goal =
        Automata.Dfa.of_regex (Automata.Regex.parse "highway highway*")
      in
      let o =
        Pathlearn.Interactive.Loop.run_flaky ~rng
          ~journal:(j, Pathlearn.Interactive.encode_item)
          ~checkpoint_every:3 ~snapshot:Pathlearn.Interactive.encode_state
          ~retry
          ~oracle:
            (user Pathlearn.Interactive.encode_item (fun it ->
                 Automata.Dfa.accepts goal it.Pathlearn.Interactive.word))
          ~items:(Pathlearn.Interactive.items_of_graph ~max_len:3 ~rng graph)
          ()
      in
      exercised "path" ~refused:o.refused ~retried:o.retried
        ~degraded:o.degraded)

(* ------------------------------------------------------------------ *)
(* Stepper: one session per engine, answered with seeded replies        *)
(* ------------------------------------------------------------------ *)

let stepper_digest spec goal =
  let truth =
    match Server.Engines.oracle spec ~goal with
    | Ok f -> f
    | Error e -> Alcotest.failf "oracle: %s" (Core.Error.to_string e)
  in
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "golden.journal" in
      let j =
        Core.Journal.create ~sync:Core.Journal.Off ~path
          (Server.Engines.header_of_spec spec)
      in
      let st =
        match Server.Engines.make ~journal:j ~checkpoint_every:3 spec with
        | Ok st -> st
        | Error e -> Alcotest.failf "engine: %s" (Core.Error.to_string e)
      in
      let g = Core.Prng.create 11 in
      let reply key =
        match Core.Prng.int g 100 with
        | r when r < 15 -> Core.Flaky.Refused
        | r when r < 25 -> Core.Flaky.Timed_out
        | _ -> Core.Flaky.Label (truth key)
      in
      let v =
        match Server.Stepper.drive st reply with
        | _, Ok v -> v
        | _, Error e -> Alcotest.failf "answer: %s" (Core.Error.to_string e)
      in
      st.Server.Stepper.close ();
      Alcotest.(check bool) "stepper session finished" true
        v.Server.Stepper.done_;
      Alcotest.(check bool) "stepper session refused some questions" true
        (v.Server.Stepper.refused > 0);
      digest_of path)

(* ------------------------------------------------------------------ *)
(* The benchmark document: reliable sessions on XMark scale 3, seed 7   *)
(* ------------------------------------------------------------------ *)

(* perfbench's learn-twig document (1,199 element nodes).  After its
   first positive a session probes every open item again on each round,
   so these pin the determined-scan's verdicts on hundreds of probes. *)
let xmark3 = lazy (Benchkit.Xmark.generate ~scale:3. ~seed:7 ())

let xmark3_session goal ~questions () =
  journaled_digest ~engine:"golden-xmark3" (fun j ->
      let goal = Twig.Parse.query goal in
      let o =
        Twiglearn.Interactive.Loop.run
          ~journal:(j, Twiglearn.Interactive.encode_item)
          ~oracle:(Twig.Eval.selects_example goal)
          ~items:(Twiglearn.Interactive.items_of_doc (Lazy.force xmark3))
          ()
      in
      Alcotest.(check int) "questions" questions o.questions)

let spec engine =
  { Server.Engines.engine; seed = 7; scale = 0.02; rows = 6; cities = 6 }

let golden name expected run () =
  Alcotest.(check string) (name ^ " journal digest") expected (run ())

let golden_cases =
  [
    ("loop twig", "c017a692897fc6a1bb77f74d976b567c", loop_twig);
    ("loop join", "033cf2d66c50bf75e109ffcc60acfde7", loop_join);
    ("loop path", "f113660215de5f58a90c06ab5814e828", loop_path);
    ( "stepper twig",
      "6def9965d2dd22ca692aeaecc639aa21",
      fun () -> stepper_digest (spec "twig") "//person/name" );
    ( "stepper join",
      "1212d5bc1de220c6815dd1792257851a",
      fun () -> stepper_digest (spec "join") "planted" );
    ( "stepper path",
      "0f764c263e5429b10a0a6e6940581767",
      fun () -> stepper_digest (spec "path") "highway highway*" );
    ( "xmark3 //person[profile/education]/name",
      "6433ae2b76145b2d4610e3c24e32122b",
      xmark3_session "//person[profile/education]/name" ~questions:612 );
    ( "xmark3 //person/name",
      "52146506bfdb3086a27dc7970dc07211",
      xmark3_session "//person/name" ~questions:554 );
    ( "xmark3 //open_auction[bidder]/current",
      "df8e804da8a834a3446e430f340a68b3",
      xmark3_session "//open_auction[bidder]/current" ~questions:795 );
    ( "xmark3 //closed_auction/annotation",
      "d653bdf3f0c6629070f7809bbf108ac9",
      xmark3_session "//closed_auction/annotation" ~questions:1106 );
    ( "xmark3 //item/location",
      "e4db314ba3e617fc03962638f08e205c",
      xmark3_session "//item/location" ~questions:9 );
  ]

(* ------------------------------------------------------------------ *)
(* CLI resume: a crashed session resumes without re-journaling          *)
(* ------------------------------------------------------------------ *)

(* The binary sits beside this test in the build tree; the dune stanza
   makes it a dependency. *)
let exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/learnq_cli.exe"

let learnq ?(stdout = "/dev/null") args =
  Sys.command (Filename.quote_command exe args ~stdout ~stderr:"/dev/null")

let goal = "//person[profile/education]/name"

let xmark dir ~scale =
  let doc = Filename.concat dir "doc.xml" in
  Alcotest.(check int) "xmark exit" 0
    (learnq ~stdout:doc [ "xmark"; "--scale"; scale; "--seed"; "3" ]);
  doc

let learn_twig ~doc ~journal args =
  learnq ([ "learn-twig"; doc; "--goal"; goal; "--journal"; journal ] @ args)

let events_of journal =
  match Core.Journal.recover ~path:journal with
  | Ok r -> r.Core.Journal.events
  | Error e -> Alcotest.failf "recover: %s" (Core.Error.to_string e)

let count p events = List.length (List.filter p events)

(* The question in flight at the crash was journaled before the oracle
   was called; resuming re-poses it without a second [Asked], and a
   finished journal resumes to its result without appending anything. *)
let test_resume_asks_once () =
  with_temp_dir (fun dir ->
      let doc = xmark dir ~scale:"2" in
      let journal = Filename.concat dir "session.journal" in
      Alcotest.(check int) "crash exit" 137
        (learn_twig ~doc ~journal [ "--seed"; "7"; "--crash-after"; "50" ]);
      Alcotest.(check int) "resume exit" 0
        (learn_twig ~doc ~journal [ "--resume" ]);
      let events = events_of journal in
      let asked =
        count (function Core.Journal.Asked _ -> true | _ -> false) events
      and answered =
        count (function Core.Journal.Answered _ -> true | _ -> false) events
      in
      Alcotest.(check int) "one Asked record per Answered" answered asked;
      Alcotest.(check int) "one Completed record" 1
        (count (( = ) Core.Journal.Completed) events);
      let finished = read_file journal in
      Alcotest.(check int) "second resume exit" 0
        (learn_twig ~doc ~journal [ "--resume" ]);
      Alcotest.(check bool) "a finished journal resumes unchanged" true
        (finished = read_file journal))

(* Question ids count [Asked] records, as the server's do, so a refused
   question and the re-posed open one both count. *)
let test_resume_qid_counts_asks () =
  with_temp_dir (fun dir ->
      let doc = xmark dir ~scale:"0.1" in
      let journal = Filename.concat dir "session.journal" in
      (* A CLI-written header, then three hand-written questions: one
         refused, one labeled, one still open at the crash. *)
      Alcotest.(check int) "crash exit" 137
        (learn_twig ~doc ~journal [ "--seed"; "7"; "--crash-after"; "0" ]);
      let header =
        match Core.Journal.recover ~path:journal with
        | Ok { Core.Journal.header = Some h; _ } -> h
        | _ -> Alcotest.fail "the crashed run left no journal header"
      in
      let tree = Xmltree.Parse.xml (read_file doc) in
      let truth = Twig.Eval.selects_example (Twig.Parse.query goal) in
      let a, b, c =
        match Twiglearn.Interactive.items_of_doc tree with
        | a :: b :: c :: _ -> (a, b, c)
        | _ -> Alcotest.fail "document too small"
      in
      let key = Twiglearn.Interactive.encode_item in
      Sys.remove journal;
      let j = Core.Journal.create ~path:journal header in
      List.iter (Core.Journal.append j)
        Core.Journal.
          [
            Asked (key a);
            Answered (key a, Core.Flaky.Refused);
            Asked (key b);
            Answered (key b, Core.Flaky.Label (truth b));
            Asked (key c);
          ];
      Core.Journal.close j;
      (* Answer the open question, checkpoint, then crash on the next. *)
      Alcotest.(check int) "resumed crash exit" 137
        (learn_twig ~doc ~journal
           [ "--resume"; "--checkpoint-every"; "1"; "--crash-after"; "1" ]);
      match events_of journal with
      | Core.Journal.Checkpoint ck :: _ ->
          Alcotest.(check int) "checkpoint qid counts Asked records" 3
            ck.Core.Journal.ck_qid;
          Alcotest.(check (list string)) "the open question was answered"
            [ key b; key c ] ck.Core.Journal.ck_answered
      | _ -> Alcotest.fail "the resumed run took no checkpoint")

(* A fault rate the CLI rejects exits 64 before any journal exists, so a
   corrected rerun is not refused as "recorded with different
   parameters". *)
let test_rejected_rate_leaves_no_journal () =
  with_temp_dir (fun dir ->
      let journal = Filename.concat dir "session.journal" in
      List.iter
        (fun args ->
          let what = String.concat " " args in
          Alcotest.(check int) (what ^ " exits 64") 64
            (learnq (args @ [ "--journal"; journal ]));
          Alcotest.(check int) (what ^ " leaves no file") 0
            (Array.length (Sys.readdir dir)))
        [
          [ "learn-join"; "--rows"; "5"; "--noise"; "1.5" ];
          [ "learn-path"; "--refusal"; "0.7"; "--timeout-rate"; "0.7" ];
        ])

let () =
  Alcotest.run "golden"
    [
      ( "journal",
        List.map
          (fun (name, expected, run) ->
            Alcotest.test_case name `Quick (golden name expected run))
          golden_cases );
      ( "cli resume",
        [
          Alcotest.test_case "crashed session asks each question once" `Quick
            test_resume_asks_once;
          Alcotest.test_case "qid counts asked records" `Quick
            test_resume_qid_counts_asks;
          Alcotest.test_case "a rejected rate leaves no journal" `Quick
            test_rejected_rate_leaves_no_journal;
        ] );
    ]
