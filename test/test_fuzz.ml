(* The fuzzing harness tested on itself: generator determinism, greedy
   shrinking, artifact round-trips, and — the acceptance demonstration — a
   deliberately injected engine bug (letting the twig probe's spine
   precheck open items it cannot prove open) being caught by the
   [interact-batch] oracle and minimized to a counterexample of at most
   five document nodes. *)

let find name =
  match Fuzz.Oracle.find name with
  | Some o -> o
  | None -> Alcotest.failf "oracle %s not registered" name

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_gen_deterministic () =
  let once () =
    let g = Core.Prng.create 12345 in
    let doc = Fuzz.Gen.xml_tree g ~size:12 in
    let q = Fuzz.Gen.twig g ~size:6 in
    Xmltree.Print.to_xml doc ^ "\n" ^ Twig.Query.to_string q
  in
  Alcotest.(check string) "same seed, same values" (once ()) (once ())

let test_gen_tree_size () =
  let g = Core.Prng.create 5 in
  for size = 1 to 30 do
    let t = Fuzz.Gen.tree g ~size in
    Alcotest.(check int) "exact node count" size (Xmltree.Tree.size t)
  done

let test_gen_twig_wellformed () =
  let g = Core.Prng.create 11 in
  for size = 1 to 20 do
    let q = Fuzz.Gen.anchored_twig g ~size in
    Alcotest.(check bool)
      "anchored generator stays in the fragment" true
      (Twig.Query.is_anchored q);
    (* and it survives its own concrete syntax *)
    match Twig.Parse.query_result (Twig.Query.to_string q) with
    | Ok q' ->
        Alcotest.(check bool) "parses back" true (Twig.Query.equal q q')
    | Error e -> Alcotest.failf "unparseable: %s" (Core.Error.to_string e)
  done

(* Every oracle's case stream, pinned: one generator per oracle from seed
   20, cases at sizes 1..10, each printed.  A refactor of a generator must
   keep its draw order, or every recorded seed and artifact would replay a
   different case. *)
let case_stream_digests =
  [
    ("eval-cache", "9c9f403866ecd8356ceeba5b91a58e95");
    ("xmlstore-eval", "9c9f403866ecd8356ceeba5b91a58e95");
    ("filter-contain-vs-eval", "1fdaf507fe3663b24afedadfb0bd0917");
    ("contain-vs-eval", "9125edeebd3a3448dec7e54bd5700892");
    ("lgg-incremental", "f66406951ff55fd0ef4fbcb67c5c9529");
    ("interact-batch", "d84823d110513d9dc699481866db6915");
    ("journal-resume", "64aa7bca11c27e821c99b3697a4cafcf");
    ("rpq-naive", "8840bd4516922e868b9c65efa300b777");
    ("roundtrip-twig", "605c9f385692ca45672b650a4178dff5");
    ("roundtrip-xml", "d8aa4ca9ee979926ee2914188461ea83");
    ("roundtrip-csv", "bdb11a4a89f243ccdd03d2465dd5b69c");
    ("roundtrip-dms", "223c7787259dbc6a2160e8afb57b5c44");
    ("docgen-infer", "1ef3aa0a9d3ab20518378b73d2938625");
    ("validate-agree", "07c4d2beb8b57fc89d256c3b3b778c94");
    ("parser-total", "9bc32095d1c665455283b1f2f325451f");
    ("http-incremental-parse", "463447d60006389806e72e1aa1d0f443");
    ("server-crash-resume", "56b687f1d5a1ae26cb0ca70708541434");
    ("journal-checkpoint-resume", "2f3a5e4d3c1f3ead41a906567fb7d5c1");
    ("vfs-torn-write", "2bfb8073f8a51d9f40eae5994f4d4ab6");
    ("telemetry-transparency", "2289d09ed2e7ffb169d45efd03265e66");
  ]

let test_case_streams_pinned () =
  List.iter
    (fun (Fuzz.Oracle.Spec o) ->
      let g = Core.Prng.create 20 in
      let cases =
        List.init 10 (fun i ->
            o.Fuzz.Oracle.print (o.Fuzz.Oracle.generate g ~size:(i + 1)))
      in
      match List.assoc_opt o.Fuzz.Oracle.name case_stream_digests with
      | None -> Alcotest.failf "no pinned case stream for %s" o.Fuzz.Oracle.name
      | Some expected ->
          Alcotest.(check string)
            (o.Fuzz.Oracle.name ^ " case stream")
            expected
            (Digest.to_hex (Digest.string (String.concat "\n--\n" cases))))
    Fuzz.Oracle.all

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let test_shrink_string () =
  let still_failing s = String.contains s 'x' in
  let shrunk, steps =
    Fuzz.Shrink.minimize ~candidates:Fuzz.Shrink.string_ ~still_failing
      "aaaaxbbbbccccdddd"
  in
  Alcotest.(check string) "minimal witness" "x" shrunk;
  Alcotest.(check bool) "took steps" true (steps > 0)

let test_shrink_tree_preserves_failure () =
  (* Failure: the document contains a [b] node.  The minimum is the
     one-node tree [b]. *)
  let still_failing t =
    Xmltree.Tree.all_paths t
    |> List.exists (fun p ->
           match Xmltree.Tree.node_at t p with
           | Some n -> n.Xmltree.Tree.label = "b"
           | None -> false)
  in
  let g = Core.Prng.create 3 in
  let rec doc_with_b () =
    let t = Fuzz.Gen.tree g ~size:20 in
    if still_failing t then t else doc_with_b ()
  in
  let shrunk, _ =
    Fuzz.Shrink.minimize ~candidates:Fuzz.Shrink.tree ~still_failing
      (doc_with_b ())
  in
  Alcotest.(check int) "single node" 1 (Xmltree.Tree.size shrunk);
  Alcotest.(check bool) "still fails" true (still_failing shrunk)

(* ------------------------------------------------------------------ *)
(* Artifacts                                                           *)
(* ------------------------------------------------------------------ *)

let test_artifact_roundtrip () =
  let a =
    {
      Fuzz.Artifact.oracle = "eval-cache";
      seed = 123456789;
      size = 7;
      steps = 3;
      shrunk_size = 2;
      reason = "it: broke";
      input = "doc: a(b)\ngoal: //b\n";
    }
  in
  match Fuzz.Artifact.of_string (Fuzz.Artifact.to_string a) with
  | Ok a' -> Alcotest.(check bool) "fields survive" true (a = a')
  | Error e -> Alcotest.failf "artifact did not parse back: %s" e

let test_oracle_registry () =
  let names = List.map Fuzz.Oracle.name Fuzz.Oracle.all in
  Alcotest.(check int)
    "names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool)
    "find hits" true
    (Option.is_some (Fuzz.Oracle.find "roundtrip-xml"));
  Alcotest.(check bool)
    "find misses" true
    (Option.is_none (Fuzz.Oracle.find "no-such-oracle"))

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let test_runner_green () =
  let report =
    Fuzz.Runner.run
      ~oracles:[ find "roundtrip-twig"; find "roundtrip-csv" ]
      ~iters:100 ~seed:7 ()
  in
  Alcotest.(check int) "no counterexamples" 0
    (List.length report.counterexamples);
  List.iter
    (fun (s : Fuzz.Runner.stats) ->
      Alcotest.(check int) (s.oracle ^ " ran all cases") 100 s.runs)
    report.stats

let test_runner_budget () =
  let budget = Core.Budget.create ~fuel:5 () in
  let report =
    Fuzz.Runner.run ~oracles:[ find "roundtrip-twig" ] ~budget ~iters:100
      ~seed:7 ()
  in
  Alcotest.(check bool) "interrupted" true report.interrupted;
  Alcotest.(check bool)
    "ran at most the budget" true
    ((List.hd report.stats).runs <= 5)

(* Parallel dispatch must not perturb the per-oracle PRNG streams: the
   report (stats in oracle order, counterexamples, interruption flag) is
   identical whatever [jobs] is. *)
let test_runner_jobs_deterministic () =
  let oracles =
    [ find "roundtrip-twig"; find "roundtrip-csv"; find "xmlstore-eval";
      find "interact-batch"; find "server-crash-resume" ]
  in
  let run jobs = Fuzz.Runner.run ~oracles ~jobs ~iters:25 ~seed:11 () in
  let r1 = run 1 in
  List.iter
    (fun jobs ->
      let r = run jobs in
      Alcotest.(check bool)
        (Printf.sprintf "report at jobs=%d equals jobs=1" jobs)
        true (r = r1))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Acceptance demo: an injected engine bug is caught and minimized      *)
(* ------------------------------------------------------------------ *)

(* Skip the full merge behind a passing spine precheck, so the probe
   takes every item the spines cannot close as open.  The [interact-batch]
   differential oracle — batch-refold sessions versus incremental sessions
   must ask byte-identical question sequences — catches the fault within a
   few dozen cases, and the counterexample minimizes to a document of at
   most five nodes. *)
let set_full_merge = Twiglearn.Positive.Incremental.set_full_merge

let test_injected_probe_bug_caught () =
  set_full_merge false;
  let report =
    Fun.protect
      ~finally:(fun () -> set_full_merge true)
      (fun () ->
        Fuzz.Runner.run
          ~oracles:[ find "interact-batch" ]
          ~iters:100 ~seed:7 ())
  in
  match report.counterexamples with
  | [ { artifact; _ } ] ->
      Alcotest.(check bool)
        "caught before exhausting the case budget" true
        ((List.hd report.stats).runs < 100);
      Alcotest.(check bool)
        (Printf.sprintf "minimized to <= 5 doc nodes (got %d)"
           artifact.shrunk_size)
        true
        (artifact.shrunk_size <= 5);
      (* With the fault still injected the artifact reproduces the bug ... *)
      set_full_merge false;
      (Fun.protect
         ~finally:(fun () -> set_full_merge true)
       @@ fun () ->
       match Fuzz.Runner.replay artifact with
       | `Failed _ -> ()
       | `Passed -> Alcotest.fail "artifact does not reproduce the fault"
       | `Unknown_oracle o -> Alcotest.failf "unknown oracle %s" o);
      (* ... and with the engine repaired it replays green. *)
      (match Fuzz.Runner.replay artifact with
      | `Passed -> ()
      | `Failed r -> Alcotest.failf "still failing after repair: %s" r
      | `Unknown_oracle o -> Alcotest.failf "unknown oracle %s" o)
  | [] -> Alcotest.fail "injected spine-precheck bug was not caught"
  | _ -> Alcotest.fail "expected exactly one counterexample"

(* A healthy engine passes the same oracle on the same seeds — the demo
   above fails because of the injected fault, not the harness. *)
let test_probe_oracle_green_when_healthy () =
  let report =
    Fuzz.Runner.run ~oracles:[ find "interact-batch" ] ~iters:40 ~seed:7 ()
  in
  Alcotest.(check int) "no counterexamples" 0
    (List.length report.counterexamples)

let () =
  Alcotest.run "fuzz"
    [
      ( "generators",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "tree size" `Quick test_gen_tree_size;
          Alcotest.test_case "anchored twig" `Quick test_gen_twig_wellformed;
          Alcotest.test_case "case streams pinned" `Quick
            test_case_streams_pinned;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "string minimal witness" `Quick
            test_shrink_string;
          Alcotest.test_case "tree minimal witness" `Quick
            test_shrink_tree_preserves_failure;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "roundtrip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "oracle registry" `Quick test_oracle_registry;
        ] );
      ( "runner",
        [
          Alcotest.test_case "green run" `Quick test_runner_green;
          Alcotest.test_case "budget interrupt" `Quick test_runner_budget;
          Alcotest.test_case "jobs determinism" `Quick
            test_runner_jobs_deterministic;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "injected probe bug caught and minimized" `Quick
            test_injected_probe_bug_caught;
          Alcotest.test_case "oracle green when healthy" `Quick
            test_probe_oracle_green_when_healthy;
        ] );
    ]
