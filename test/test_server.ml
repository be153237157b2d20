(* Tests for the serve stack: the JSON codec, HTTP framing, the
   answer-at-a-time session stepper, the session registry's
   idempotency / quota / crash-recovery contracts, admission control, and
   one in-process daemon+client end-to-end run. *)

module Json = Server.Json
module Http = Server.Http
module Engines = Server.Engines
module Stepper = Server.Stepper
module Registry = Server.Registry
module Admission = Server.Admission
module Tenant = Server.Tenant

let with_temp_dir f =
  let path = Filename.temp_file "learnq_server" ".d" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun e -> try Sys.remove (Filename.concat path e) with Sys_error _ -> ())
           (Sys.readdir path)
       with Sys_error _ -> ());
      try Unix.rmdir path with Unix.Unix_error _ -> ())
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Num x, Json.Num y -> x = y || (Float.is_nan x && Float.is_nan y)
  | Json.Str x, Json.Str y -> x = y
  | Json.Arr x, Json.Arr y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Json.Obj x, Json.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2)
           x y
  | _ -> false

let json_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let scalar =
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            (* ints: exact through the float representation *)
            map (fun i -> Json.Num (float_of_int i)) (int_range (-1000000) 1000000);
            map (fun s -> Json.Str s) (string_size ~gen:printable (int_bound 12));
            map (fun s -> Json.Str s) (string_size (int_bound 12));
          ]
      in
      if n <= 0 then scalar
      else
        frequency
          [
            (3, scalar);
            (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 2))));
            ( 1,
              map
                (fun l ->
                  (* object keys must be distinct for roundtrip equality *)
                  Json.Obj (List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) l))
                (list_size (int_bound 4) (self (n / 2))) );
          ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json print/parse roundtrip" ~count:300
    (QCheck.make ~print:(fun j -> Json.to_string j) json_gen)
    (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok j' -> json_equal j j'
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let test_json_unicode () =
  (match Json.parse {|"a\u00e9\u2603b"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "utf-8 decoded" "a\xc3\xa9\xe2\x98\x83b" s
  | _ -> Alcotest.fail "unicode escape rejected");
  match Json.parse {|"\ud83d\ude00"|} with
  | Ok (Json.Str s) ->
      Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair rejected"

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":1,}"; "1 2"; "\"\\x\""; "nul"; "{\"a\" 1}"; "" ]

(* ------------------------------------------------------------------ *)
(* HTTP framing                                                        *)
(* ------------------------------------------------------------------ *)

let test_http_parse_head () =
  match
    Http.parse_head
      "POST /v1/sessions HTTP/1.1\r\nHost: localhost\r\nX-Learnq-Tenant:  acme \r\nContent-Length: 2"
  with
  | Error e -> Alcotest.failf "parse_head: %s" e
  | Ok req ->
      Alcotest.(check string) "method" "POST" req.Http.meth;
      Alcotest.(check string) "path" "/v1/sessions" req.Http.path;
      Alcotest.(check (option string)) "header lookup is case-insensitive"
        (Some "acme")
        (Http.header "x-learnq-tenant" req);
      Alcotest.(check (option string)) "content-length" (Some "2")
        (Http.header "content-length" req)

let test_http_parse_head_rejects () =
  List.iter
    (fun s ->
      match Http.parse_head s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "GET"; "GET /x"; "GET /x HTTP/1.1\r\nNoColonHere" ]

let test_http_timeout_mid_body_resumes () =
  (* A client that pauses between the head and the body must not lose the
     request: the parser stays pending mid-request, and returns the request
     whole once the rest of the body arrives. *)
  let p = Http.incremental () in
  Http.feed p "POST /v1/x HTTP/1.1\r\nContent-Length: 4\r\n\r\n";
  Http.feed p "ab";
  (match Http.step p with
  | `More -> ()
  | `Request _ -> Alcotest.fail "request cannot be complete yet"
  | `Error e -> Alcotest.failf "wrong error: %s" e);
  Alcotest.(check bool) "partial request still pending" true
    (Http.mid_request p);
  Http.feed p "cd";
  match Http.step p with
  | `Request req ->
      Alcotest.(check string) "nothing lost: full body" "abcd" req.Http.body;
      Alcotest.(check string) "path intact" "/v1/x" req.Http.path
  | `More -> Alcotest.fail "complete request still pending"
  | `Error e -> Alcotest.failf "step: %s" e

let test_engines_spec_limits () =
  (* Unbounded instance knobs must be refused at both entry points: the
     wire (spec_of_json) and journal-header recovery (spec_of_config). *)
  let bad_json =
    [
      Json.Obj [ ("rows", Json.of_int 1000000000) ];
      Json.Obj [ ("rows", Json.of_int 0) ];
      Json.Obj [ ("cities", Json.of_int 1000000000) ];
      Json.Obj [ ("scale", Json.Num 1e9) ];
      Json.Obj [ ("scale", Json.Num (-1.0)) ];
      Json.Obj [ ("scale", Json.Num Float.nan) ];
    ]
  in
  List.iter
    (fun j ->
      match Engines.spec_of_json j with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" (Json.to_string j))
    bad_json;
  (match Engines.spec_of_json (Json.Obj [ ("rows", Json.of_int 64) ]) with
  | Ok s -> Alcotest.(check int) "in-range rows pass" 64 s.Engines.rows
  | Error e -> Alcotest.failf "in-range spec refused: %s" e);
  List.iter
    (fun line ->
      match Engines.spec_of_config line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "recovery accepted %S" line)
    [
      "engine=join seed=0 scale=0.1 rows=1000000000 cities=12";
      "engine=path seed=0 scale=0.1 rows=12 cities=1000000000";
      "engine=twig seed=0 scale=1e9 rows=12 cities=12";
    ];
  match
    Engines.spec_of_config (Engines.config_of_spec Engines.default_spec)
  with
  | Ok s -> Alcotest.(check bool) "roundtrip" true (s = Engines.default_spec)
  | Error e -> Alcotest.failf "default spec refused: %s" e

(* The simulated user of the serve benches and the server fuzz oracles:
   a reply is a pure function of (spec, question), so crash and re-ask in
   any order and the answers never change. *)
let test_engines_user_pure () =
  let spec = { Engines.default_spec with Engines.seed = 41 } in
  let truth key = String.length key mod 2 = 0 in
  let user () = Engines.user spec ~truth ~refusal:200 ~timeout:100 ~noise:100 in
  let keys = List.init 300 (Printf.sprintf "q%d") in
  let forward = List.map (user ()) keys in
  let backward = List.rev (List.map (user ()) (List.rev keys)) in
  Alcotest.(check bool) "same replies in any call order" true
    (forward = backward);
  Alcotest.(check bool) "refusals, timeouts and noise all drawn" true
    (List.mem Core.Flaky.Refused forward
    && List.mem Core.Flaky.Timed_out forward
    && List.exists2
         (fun k r -> r = Core.Flaky.Label (not (truth k)))
         keys forward);
  let exact = Engines.user spec ~truth ~refusal:0 ~timeout:0 ~noise:0 in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("zero rates label " ^ k) true
        (exact k = Core.Flaky.Label (truth k)))
    keys

(* ------------------------------------------------------------------ *)
(* Stepper: the server's side of the session core                     *)
(* ------------------------------------------------------------------ *)

let twig_spec = { Engines.default_spec with Engines.engine = "twig"; seed = 7; scale = 0.02 }

let truth_of spec goal =
  match Engines.oracle spec ~goal with
  | Ok f -> f
  | Error e -> Alcotest.failf "oracle: %s" (Core.Error.to_string e)

let make_stepper spec =
  match Engines.make spec with
  | Ok st -> st
  | Error e -> Alcotest.failf "engine: %s" (Core.Error.to_string e)

let label truth key = Core.Flaky.Label (truth key)

(* A finished [Stepper.drive]: answers delivered and the final view; a
   stepper error fails the test. *)
let driven (keys, final) =
  match final with
  | Ok v -> (List.length keys, v)
  | Error e -> Alcotest.failf "answer: %s" (Core.Error.to_string e)

let test_stepper_duplicate_qid_idempotent () =
  let st = make_stepper twig_spec in
  let truth = truth_of twig_spec "//person/name" in
  let v = st.Stepper.view () in
  let key = Option.get v.Stepper.question in
  (match st.Stepper.answer ~qid:v.Stepper.qid (Core.Flaky.Label (truth key)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first answer: %s" (Core.Error.to_string e));
  let v1 = st.Stepper.view () in
  (* the client retries its delivered reply: a no-op returning the live view *)
  (match st.Stepper.answer ~qid:v.Stepper.qid (Core.Flaky.Label (not (truth key))) with
  | Ok v2 ->
      Alcotest.(check int) "view unchanged" v1.Stepper.qid v2.Stepper.qid;
      Alcotest.(check int) "no answer folded twice" v1.Stepper.questions
        v2.Stepper.questions
  | Error e -> Alcotest.failf "duplicate must be a no-op: %s" (Core.Error.to_string e));
  st.Stepper.close ()

let test_stepper_future_qid_rejected () =
  let st = make_stepper twig_spec in
  (match st.Stepper.answer ~qid:9999 (Core.Flaky.Label true) with
  | Error (Core.Error.Invalid_input _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Core.Error.to_string e)
  | Ok _ -> Alcotest.fail "a qid from the future must be refused");
  st.Stepper.close ()

let test_stepper_matches_interact_loop () =
  (* Differential: the server's stepper must walk the same path as the
     batch loop over the same session core — same strategy (pool order),
     same determined-pruning, so same questions and same final query. *)
  let doc = Benchkit.Xmark.generate ~scale:0.02 ~seed:7 () in
  let goal =
    match Twig.Parse.query_result "//person/name" with
    | Ok q -> q
    | Error e -> Alcotest.failf "goal: %s" (Core.Error.to_string e)
  in
  let outcome = Twiglearn.Interactive.run_with_goal ~doc ~goal () in
  let st = make_stepper twig_spec in
  let truth = truth_of twig_spec "//person/name" in
  let questions, v = driven (Stepper.drive st (label truth)) in
  st.Stepper.close ();
  Alcotest.(check int) "same number of questions" outcome.Twiglearn.Interactive.Loop.questions
    questions;
  Alcotest.(check (option string)) "same final query"
    (Option.map
       (fun q -> Fmt.str "%a" Twig.Query.pp q)
       outcome.Twiglearn.Interactive.Loop.query)
    v.Stepper.query

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let create_ok reg ~tenant ~id spec =
  match Registry.create_session reg ~tenant ~id spec with
  | Ok st -> st
  | Error e -> Alcotest.failf "create: %s" (Core.Error.to_string e)

let journaled dir =
  { (Registry.default_config dir) with sync = Core.Journal.Always }

let test_registry_idempotent_create_and_conflict () =
  with_temp_dir (fun dir ->
      let reg = Registry.create (Registry.default_config dir) in
      Fun.protect
        ~finally:(fun () -> Registry.drain reg)
        (fun () ->
          let st = create_ok reg ~tenant:"t" ~id:"s1" twig_spec in
          (* same spec again: the live session, not an error *)
          (match Registry.create_session reg ~tenant:"t" ~id:"s1" twig_spec with
          | Ok st' -> Alcotest.(check bool) "the live stepper" true (st == st')
          | Error e -> Alcotest.failf "idempotent create: %s" (Core.Error.to_string e));
          Alcotest.(check int) "still one session" 1 (Registry.count reg);
          (* different spec: typed conflict *)
          (match
             Registry.create_session reg ~tenant:"t" ~id:"s1"
               { twig_spec with Engines.seed = 8 }
           with
          | Error (Core.Error.Invalid_input _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Core.Error.to_string e)
          | Ok _ -> Alcotest.fail "conflicting spec accepted");
          (* hostile names never reach the filesystem *)
          match Registry.create_session reg ~tenant:"t" ~id:"../evil" twig_spec with
          | Error (Core.Error.Invalid_input _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Core.Error.to_string e)
          | Ok _ -> Alcotest.fail "path-traversal id accepted"))

let test_registry_quota_refusal () =
  with_temp_dir (fun dir ->
      let tenants = Tenant.make [ ("small", Tenant.quota ~max_sessions:1 ()) ] in
      let reg =
        Registry.create { (Registry.default_config dir) with tenants }
      in
      Fun.protect
        ~finally:(fun () -> Registry.drain reg)
        (fun () ->
          ignore (create_ok reg ~tenant:"small" ~id:"a" twig_spec);
          (match Registry.create_session reg ~tenant:"small" ~id:"b" twig_spec with
          | Error (Core.Error.Over_quota _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Core.Error.to_string e)
          | Ok _ -> Alcotest.fail "quota not enforced");
          (* other tenants are unaffected *)
          (match Registry.create_session reg ~tenant:"other" ~id:"b" twig_spec with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "other tenant: %s" (Core.Error.to_string e));
          (* freeing the slot readmits *)
          Alcotest.(check bool) "delete" true (Registry.delete reg ~tenant:"small" ~id:"a");
          match Registry.create_session reg ~tenant:"small" ~id:"b2" twig_spec with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "readmit: %s" (Core.Error.to_string e)))

let test_registry_crash_recover_equality () =
  (* The server's whole fault-tolerance claim in one test: crash mid-session,
     recover from the journal, finish — and land on the same query as a run
     that was never interrupted. *)
  let spec = { twig_spec with Engines.seed = 11 } in
  let truth = truth_of spec "//person/name" in
  let uninterrupted =
    with_temp_dir (fun dir ->
        let reg = Registry.create (Registry.default_config dir) in
        Fun.protect
          ~finally:(fun () -> Registry.drain reg)
          (fun () ->
            let st = create_ok reg ~tenant:"t" ~id:"s" spec in
            let _, v = driven (Stepper.drive st (label truth)) in
            v.Stepper.query))
  in
  with_temp_dir (fun dir ->
      let reg = Registry.create (journaled dir) in
      let st = create_ok reg ~tenant:"t" ~id:"s" spec in
      (* half a session, then the plug is pulled *)
      ignore (driven (Stepper.drive ~stop_after:4 st (label truth)));
      Registry.crash reg;
      let reg2 = Registry.create (journaled dir) in
      Fun.protect
        ~finally:(fun () -> Registry.drain reg2)
        (fun () ->
          let recovered, errors = Registry.recover_all reg2 in
          List.iter
            (fun (f, e) ->
              Alcotest.failf "recovery error on %s: %s" f (Core.Error.to_string e))
            errors;
          Alcotest.(check int) "one session recovered" 1 recovered;
          let st2 = Option.get (Registry.find reg2 ~tenant:"t" ~id:"s") in
          Alcotest.(check bool) "answers replayed" true
            ((st2.Stepper.view ()).Stepper.replayed > 0);
          let _, v = driven (Stepper.drive st2 (label truth)) in
          Alcotest.(check (option string)) "same query as uninterrupted"
            uninterrupted v.Stepper.query))

let test_registry_drain_releases_locks () =
  with_temp_dir (fun dir ->
      let reg =
        Registry.create
          { (Registry.default_config dir) with sync = Core.Journal.Batch }
      in
      ignore (create_ok reg ~tenant:"t" ~id:"s" twig_spec);
      Registry.drain reg;
      let entries = Array.to_list (Sys.readdir dir) in
      Alcotest.(check bool) "journal kept" true
        (List.exists (fun e -> Filename.check_suffix e ".journal") entries);
      Alcotest.(check bool) "lock released" false
        (List.exists (fun e -> Filename.check_suffix e ".lock") entries))

let test_registry_names_injective_across_restart () =
  (* tenant "a_" / id "b" and tenant "a" / id "_b" must map to different
     journal files, and recovery must hand each session back to the tenant
     that owns it — not resurrect one as the other. *)
  with_temp_dir (fun dir ->
      let reg = Registry.create (journaled dir) in
      (match Registry.create_session reg ~tenant:"a_" ~id:"b" twig_spec with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "create a_/b: %s" (Core.Error.to_string e));
      (match Registry.create_session reg ~tenant:"a" ~id:"_b" twig_spec with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "a/_b collided with a_/b: %s" (Core.Error.to_string e));
      Alcotest.(check int) "two distinct sessions" 2 (Registry.count reg);
      Registry.drain reg;
      let reg2 = Registry.create (journaled dir) in
      Fun.protect
        ~finally:(fun () -> Registry.drain reg2)
        (fun () ->
          let recovered, errors = Registry.recover_all reg2 in
          List.iter
            (fun (f, e) ->
              Alcotest.failf "recovery error on %s: %s" f (Core.Error.to_string e))
            errors;
          Alcotest.(check int) "both recovered" 2 recovered;
          Alcotest.(check bool) "a_/b back under tenant a_" true
            (Registry.find reg2 ~tenant:"a_" ~id:"b" <> None);
          Alcotest.(check bool) "a/_b back under tenant a" true
            (Registry.find reg2 ~tenant:"a" ~id:"_b" <> None)))

(* ------------------------------------------------------------------ *)
(* Eviction, resume-on-demand, quarantine                              *)
(* ------------------------------------------------------------------ *)

(* One spec + goal per engine, small enough to drive to completion. *)
let evict_cases =
  [
    ("twig", { twig_spec with Engines.seed = 21 }, "//person/name");
    ( "join",
      { Engines.default_spec with Engines.engine = "join"; seed = 5; rows = 5 },
      "planted" );
    ( "path",
      {
        Engines.default_spec with
        Engines.engine = "path";
        seed = 5;
        cities = 6;
      },
      "highway*" );
  ]

let test_registry_evict_resume_roundtrip () =
  List.iter
    (fun (name, spec, goal) ->
      let truth = truth_of spec goal in
      (* Reference: never evicted, never checkpointed. *)
      let ref_questions, ref_query =
        with_temp_dir (fun dir ->
            let reg = Registry.create (Registry.default_config dir) in
            Fun.protect
              ~finally:(fun () -> Registry.drain reg)
              (fun () ->
                let st = create_ok reg ~tenant:"t" ~id:"s" spec in
                let n, v = driven (Stepper.drive st (label truth)) in
                (n, v.Stepper.query)))
      in
      if ref_questions < 3 then
        Alcotest.failf "%s: degenerate case (%d questions)" name ref_questions;
      with_temp_dir (fun dir ->
          let reg =
            Registry.create
              { (journaled dir) with checkpoint_every = 2; max_live = 1 }
          in
          Fun.protect
            ~finally:(fun () -> Registry.drain reg)
            (fun () ->
              let st = create_ok reg ~tenant:"t" ~id:"s" spec in
              let answered, _ =
                driven (Stepper.drive ~stop_after:2 st (label truth))
              in
              Alcotest.(check int)
                (name ^ ": drove two answers before eviction") 2 answered;
              (* A second session pushes the first over max_live = 1. *)
              ignore (create_ok reg ~tenant:"t" ~id:"other" spec);
              let evicted = Registry.evict_idle reg in
              Alcotest.(check int) (name ^ ": one session evicted") 1 evicted;
              Alcotest.(check bool) (name ^ ": the LRU victim is gone") true
                (Registry.find reg ~tenant:"t" ~id:"s" = None);
              Alcotest.(check bool) (name ^ ": the fresh session survives")
                true
                (Registry.find reg ~tenant:"t" ~id:"other" <> None);
              (* Resume on demand: the evicted session comes back with its
                 answers intact (restored from the checkpoint + replay). *)
              let st2 =
                match Registry.find_or_resume reg ~tenant:"t" ~id:"s" with
                | Ok (Some st) -> st
                | Ok None -> Alcotest.failf "%s: evicted session lost" name
                | Error e ->
                    Alcotest.failf "%s: resume: %s" name
                      (Core.Error.to_string e)
              in
              let v = st2.Stepper.view () in
              Alcotest.(check int) (name ^ ": answers restored, not re-asked")
                2 v.Stepper.replayed;
              Alcotest.(check int) (name ^ ": no live questions burned") 0
                v.Stepper.questions;
              (* Finishing converges to the uninterrupted session. *)
              let _, v_final = driven (Stepper.drive st2 (label truth)) in
              Alcotest.(check (option string))
                (name ^ ": same query as uninterrupted") ref_query
                v_final.Stepper.query;
              Alcotest.(check int)
                (name ^ ": same total interaction count") ref_questions
                (v_final.Stepper.questions + v_final.Stepper.replayed);
              let stats = Registry.stats reg in
              Alcotest.(check int) (name ^ ": evicted counted") 1
                stats.Registry.evicted;
              Alcotest.(check int) (name ^ ": resumed counted") 1
                stats.Registry.resumed)))
    evict_cases

let test_registry_evicted_burst_single_flight () =
  let _, spec, goal = List.hd evict_cases in
  let truth = truth_of spec goal in
  with_temp_dir (fun dir ->
      let reg =
        Registry.create
          { (journaled dir) with checkpoint_every = 2; max_live = 1 }
      in
      Fun.protect
        ~finally:(fun () -> Registry.drain reg)
        (fun () ->
          let st = create_ok reg ~tenant:"t" ~id:"s" spec in
          ignore (driven (Stepper.drive ~stop_after:2 st (label truth)));
          ignore (create_ok reg ~tenant:"t" ~id:"other" spec);
          Alcotest.(check int) "evicted" 1 (Registry.evict_idle reg);
          (* A burst of concurrent requests for the evicted key: every one
             must see the session, and the journal must be replayed exactly
             once (single-flight). *)
          let results = Array.make 8 false in
          let threads =
            List.init 8 (fun i ->
                Thread.create
                  (fun () ->
                    match Registry.find_or_resume reg ~tenant:"t" ~id:"s" with
                    | Ok (Some _) -> results.(i) <- true
                    | Ok None | Error _ -> ())
                  ())
          in
          List.iter Thread.join threads;
          Array.iteri
            (fun i ok ->
              Alcotest.(check bool)
                (Printf.sprintf "request %d saw the session" i)
                true ok)
            results;
          Alcotest.(check int) "journal replayed exactly once" 1
            (Registry.stats reg).Registry.resumed))

let corrupt_journal_in dir =
  match
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun e -> Filename.check_suffix e ".journal")
  with
  | [ name ] ->
      let path = Filename.concat dir name in
      let ic = open_in_bin path in
      let bytes =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let b = Bytes.of_string bytes in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_bytes oc b);
      path
  | l -> Alcotest.failf "expected exactly one journal, found %d" (List.length l)

let test_registry_quarantines_corrupt_journal () =
  let _, spec, goal = List.hd evict_cases in
  let truth = truth_of spec goal in
  with_temp_dir (fun dir ->
      (* Record a session, close cleanly, then corrupt a record in place. *)
      let reg = Registry.create (journaled dir) in
      let st = create_ok reg ~tenant:"t" ~id:"s" spec in
      ignore (driven (Stepper.drive ~stop_after:2 st (label truth)));
      Registry.drain reg;
      let path = corrupt_journal_in dir in
      (* Recovery quarantines it instead of failing every restart. *)
      let reg2 = Registry.create (journaled dir) in
      Fun.protect
        ~finally:(fun () -> Registry.drain reg2)
        (fun () ->
          let recovered, errors = Registry.recover_all reg2 in
          Alcotest.(check int) "nothing recovered" 0 recovered;
          (match errors with
          | [ (_, Core.Error.Corrupt_journal _) ] -> ()
          | [ (_, e) ] ->
              Alcotest.failf "wrong error class: %s" (Core.Error.to_string e)
          | l -> Alcotest.failf "expected one error, got %d" (List.length l));
          Alcotest.(check bool) "journal moved aside" false
            (Sys.file_exists path);
          Alcotest.(check bool) "quarantine file exists" true
            (Sys.file_exists (path ^ ".quarantine"));
          Alcotest.(check bool) "stale lock removed" false
            (Sys.file_exists (path ^ ".lock"));
          Alcotest.(check int) "quarantine counted" 1
            (Registry.stats reg2).Registry.quarantined;
          (* The quarantined session no longer exists anywhere. *)
          match Registry.find_or_resume reg2 ~tenant:"t" ~id:"s" with
          | Ok None -> ()
          | Ok (Some _) -> Alcotest.fail "resumed a quarantined session"
          | Error e ->
              Alcotest.failf "wrong error: %s" (Core.Error.to_string e)))

let test_registry_enospc_is_typed_storage_full () =
  let _, spec, _ = List.hd evict_cases in
  with_temp_dir (fun dir ->
      let vfs = Core.Vfs.faulty ~seed:1 Core.Flaky.no_disk_faults in
      let reg = Registry.create { (journaled dir) with vfs } in
      Fun.protect
        ~finally:(fun () -> Registry.drain reg)
        (fun () ->
          Core.Vfs.set_full vfs true;
          (match Registry.create_session reg ~tenant:"t" ~id:"s" spec with
          | Error (Core.Error.Storage { full; _ }) ->
              Alcotest.(check bool) "classified as disk-full" true full
          | Error e ->
              Alcotest.failf "wrong error: %s" (Core.Error.to_string e)
          | Ok _ -> Alcotest.fail "created a session on a full disk");
          (* The episode ends: the same create succeeds. *)
          Core.Vfs.set_full vfs false;
          ignore (create_ok reg ~tenant:"t" ~id:"s" spec)))

(* [Stepper.drive] hands a mid-session storage error back to its caller.
   Driving again re-reads the view, so the retry answers the question the
   failed answer left open, and the session ends where an uninterrupted
   one does. *)
let test_stepper_drive_returns_storage_error () =
  let truth = truth_of twig_spec "//person/name" in
  let ref_st = make_stepper twig_spec in
  let ref_n, ref_v = driven (Stepper.drive ref_st (label truth)) in
  ref_st.Stepper.close ();
  with_temp_dir (fun dir ->
      let vfs = Core.Vfs.faulty ~seed:1 Core.Flaky.no_disk_faults in
      let reg = Registry.create { (journaled dir) with vfs } in
      Fun.protect
        ~finally:(fun () -> Registry.drain reg)
        (fun () ->
          let st = create_ok reg ~tenant:"t" ~id:"s" twig_spec in
          let first, _ =
            driven (Stepper.drive ~stop_after:2 st (label truth))
          in
          Core.Vfs.set_full vfs true;
          (match Stepper.drive st (label truth) with
          | [], Error (Core.Error.Storage { full = true; _ }) -> ()
          | keys, Error e ->
              Alcotest.failf "after %d answers: %s" (List.length keys)
                (Core.Error.to_string e)
          | _, Ok _ -> Alcotest.fail "answered on a full disk");
          Core.Vfs.set_full vfs false;
          let rest, v = driven (Stepper.drive st (label truth)) in
          Alcotest.(check int) "no answer lost or doubled" ref_n
            (first + rest);
          Alcotest.(check (option string)) "same query as uninterrupted"
            ref_v.Stepper.query v.Stepper.query))

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let dummy_job () = { Http.status = 200; headers = []; body = "{}" }

(* The advertised Retry-After is load-derived + jittered, not a constant:
   at a full queue the depth term pins it to [1.5×, 2.0×) the configured
   base.  Repeated refusals must also not all say the same thing — the
   jitter exists so a herd of refused clients does not re-arrive in
   lockstep. *)
let test_admission_sheds_when_full () =
  let adm = Admission.create ~retry_after:2.5 ~max_queue:1 () in
  (match Admission.submit adm ~tenant:"a" ~key:"a/1" dummy_job with
  | Admission.Enqueued _ -> ()
  | _ -> Alcotest.fail "first job must enqueue");
  let refusals =
    List.init 16 (fun i ->
        match
          Admission.submit adm ~tenant:"b" ~key:(Printf.sprintf "b/%d" i)
            dummy_job
        with
        | Admission.Shed retry -> retry
        | _ -> Alcotest.fail "full queue must shed")
  in
  List.iter
    (fun retry ->
      Alcotest.(check bool)
        (Printf.sprintf "retry-after %.4f within [1.5x, 2.0x)" retry)
        true
        (retry >= 1.5 *. 2.5 && retry < 2.0 *. 2.5))
    refusals;
  let distinct = List.sort_uniq compare refusals in
  Alcotest.(check bool) "jitter varies across refusals" true
    (List.length distinct > 1)

let test_admission_breaker_trips () =
  let policy =
    Core.Retry.policy ~max_attempts:1 ~breaker_threshold:2 ~cooldown:60.
      ~sleep:Core.Retry.no_sleep ()
  in
  let adm = Admission.create ~policy ~max_queue:16 () in
  Admission.fault adm ~tenant:"rowdy";
  (match Admission.submit adm ~tenant:"rowdy" ~key:"r/1" dummy_job with
  | Admission.Enqueued _ -> ()
  | _ -> Alcotest.fail "below threshold must still admit");
  Admission.fault adm ~tenant:"rowdy";
  (match Admission.submit adm ~tenant:"rowdy" ~key:"r/2" dummy_job with
  | Admission.Tripped _ -> ()
  | _ -> Alcotest.fail "tenant at threshold must trip");
  (* the breaker is per tenant *)
  match Admission.submit adm ~tenant:"calm" ~key:"c/1" dummy_job with
  | Admission.Enqueued _ -> ()
  | _ -> Alcotest.fail "another tenant must not be tripped"

let test_admission_batches_key_disjoint () =
  let adm = Admission.create ~max_queue:16 () in
  let enq tenant key =
    match Admission.submit adm ~tenant ~key dummy_job with
    | Admission.Enqueued j -> j
    | _ -> Alcotest.fail "enqueue"
  in
  let _a1 = enq "a" "a/s" in
  let _a2 = enq "a" "a/s" in
  (* same session: must not share a batch *)
  let _b1 = enq "b" "b/s" in
  let batch1 = Admission.take_batch adm ~max:8 ~block:false in
  let keys = List.map (fun j -> j.Admission.key) batch1 in
  Alcotest.(check int) "two jobs in the first batch" 2 (List.length batch1);
  Alcotest.(check bool) "keys are disjoint" true
    (List.sort_uniq compare keys = List.sort compare keys);
  let batch2 = Admission.take_batch adm ~max:8 ~block:false in
  Alcotest.(check int) "held-back job comes later" 1 (List.length batch2);
  Alcotest.(check string) "and it is the duplicate key" "a/s"
    (List.hd batch2).Admission.key

let test_admission_drain_refuses_submits () =
  (* Once drain has returned, no submit may enqueue (it would strand its
     waiter after the dispatcher exits) — but jobs enqueued before the
     drain stay takeable, per "finish the backlog" semantics. *)
  let adm = Admission.create ~max_queue:16 () in
  (match Admission.submit adm ~tenant:"a" ~key:"a/1" dummy_job with
  | Admission.Enqueued _ -> ()
  | _ -> Alcotest.fail "pre-drain job must enqueue");
  Admission.drain adm;
  (match Admission.submit adm ~tenant:"a" ~key:"a/2" dummy_job with
  | Admission.Draining _ -> ()
  | Admission.Enqueued _ -> Alcotest.fail "post-drain submit must be refused"
  | _ -> Alcotest.fail "post-drain submit must report Draining");
  let batch = Admission.take_batch adm ~max:8 ~block:false in
  Alcotest.(check int) "backlog still drains" 1 (List.length batch);
  Alcotest.(check int) "queue empty afterwards" 0 (Admission.pending adm)

(* ------------------------------------------------------------------ *)
(* Daemon + client, in process                                         *)
(* ------------------------------------------------------------------ *)

(* Boot a daemon on a fresh state directory (pool 1, 2 s drain grace,
   then [cfg_mod]) for [f daemon port]. *)
let with_inprocess_daemon cfg_mod f =
  with_temp_dir (fun dir ->
      match
        Server.Daemon.with_inprocess
          (cfg_mod
             {
               Server.Daemon.default_config with
               Server.Daemon.state_dir = dir;
               port = 0;
               pool = 1;
               drain_grace = 2.0;
             })
          f
      with
      | Ok v -> v
      | Error e -> Alcotest.failf "serve: %s" e)

let test_daemon_end_to_end () =
  with_inprocess_daemon Fun.id (fun _ port ->
      let c =
        match Server.Client.connect ~host:"127.0.0.1" ~port with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect: %s" e
      in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let req ?body meth path =
            match Server.Client.request c ~meth ~path ?body () with
            | Ok r -> r
            | Error e -> Alcotest.failf "%s %s: %s" meth path e
          in
          let code, _ = req "GET" "/healthz" in
          Alcotest.(check int) "healthz" 200 code;
          let code, view =
            req "POST" "/v1/sessions"
              ~body:
                (Json.Obj
                   [
                     ("id", Json.Str "e2e");
                     ("engine", Json.Str "twig");
                     ("seed", Json.of_int 7);
                     ("scale", Json.Num 0.02);
                   ])
          in
          Alcotest.(check int) "create" 200 code;
          let qid = Option.get (Json.get_int "qid" view) in
          let truth = truth_of twig_spec "//person/name" in
          let key = Option.get (Json.get_str "question" view) in
          let code, view =
            req "POST" "/v1/sessions/e2e/answers"
              ~body:
                (Json.Obj
                   [
                     ("qid", Json.of_int qid);
                     ("reply", Json.Bool (truth key));
                   ])
          in
          Alcotest.(check int) "answer" 200 code;
          Alcotest.(check bool) "question advanced" true
            (Option.get (Json.get_int "qid" view) > qid);
          let code, view' = req "GET" "/v1/sessions/e2e" in
          Alcotest.(check int) "get view" 200 code;
          Alcotest.(check (option int)) "stable view"
            (Json.get_int "qid" view)
            (Json.get_int "qid" view');
          let code, _ = req "GET" "/v1/sessions/nosuch" in
          Alcotest.(check int) "unknown session" 404 code;
          let code, stats = req "GET" "/stats" in
          Alcotest.(check int) "stats" 200 code;
          Alcotest.(check (option int)) "one live session" (Some 1)
            (Json.get_int "sessions" stats)))

let test_daemon_degraded_mode_self_heals () =
  let vfs = Core.Vfs.faulty ~seed:2 Core.Flaky.no_disk_faults in
  with_inprocess_daemon
    (fun cfg -> { cfg with Server.Daemon.sync = Core.Journal.Always; vfs })
    (fun _ port ->
      let c =
        match Server.Client.connect ~host:"127.0.0.1" ~port with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect: %s" e
      in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let req ?body meth path =
            match Server.Client.request c ~meth ~path ?body () with
            | Ok r -> r
            | Error e -> Alcotest.failf "%s %s: %s" meth path e
          in
          let create_body id =
            Json.Obj
              [
                ("id", Json.Str id);
                ("engine", Json.Str "twig");
                ("seed", Json.of_int 7);
                ("scale", Json.Num 0.02);
              ]
          in
          (* Disk fills: creates are refused with 507 and the daemon
             flips into degraded read-only mode. *)
          Core.Vfs.set_full vfs true;
          let code, _ = req "POST" "/v1/sessions" ~body:(create_body "a") in
          Alcotest.(check int) "full disk refuses create" 507 code;
          let _, stats = req "GET" "/stats" in
          Alcotest.(check (option bool)) "stats report degraded"
            (Some true)
            (Json.get_bool "degraded" stats);
          let code, _ = req "POST" "/v1/sessions" ~body:(create_body "b") in
          Alcotest.(check int) "degraded mode short-circuits creates" 507
            code;
          (* Space returns: the ~1/s heal probe clears the flag. *)
          Core.Vfs.set_full vfs false;
          let deadline = Unix.gettimeofday () +. 10.0 in
          let rec await_heal () =
            let _, stats = req "GET" "/stats" in
            if Json.get_bool "degraded" stats = Some false then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail "daemon never healed after space returned"
            else (
              Thread.delay 0.2;
              await_heal ())
          in
          await_heal ();
          let code, _ = req "POST" "/v1/sessions" ~body:(create_body "c") in
          Alcotest.(check int) "healed daemon accepts creates" 200 code))

(* A request slowed by an injected fsync stall must be findable end to
   end: in /debug/slow under its client-chosen trace id, in the flight
   recorder with the http.request span linked to the journal/vfs events on
   the pool domain, and in the /debug/flightrecorder dump. *)
let test_daemon_slow_request_traceable () =
  Core.Telemetry.reset ();
  let vfs = Core.Vfs.faulty ~seed:3 Core.Flaky.no_disk_faults in
  with_inprocess_daemon
    (fun cfg ->
      { cfg with Server.Daemon.sync = Core.Journal.Always; vfs; slow_ms = 50. })
    (fun daemon port ->
      let c =
        match Server.Client.connect ~host:"127.0.0.1" ~port with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect: %s" e
      in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let req ?headers ?body meth path =
            match Server.Client.request c ~meth ~path ?headers ?body () with
            | Ok r -> r
            | Error e -> Alcotest.failf "%s %s: %s" meth path e
          in
          (* /healthz reports the liveness shape. *)
          let code, h = req "GET" "/healthz" in
          Alcotest.(check int) "healthz" 200 code;
          Alcotest.(check (option bool)) "healthy" (Some true)
            (Json.get_bool "ok" h);
          Alcotest.(check (option bool)) "not draining" (Some false)
            (Json.get_bool "draining" h);
          Alcotest.(check (option bool)) "not degraded" (Some false)
            (Json.get_bool "degraded" h);
          Alcotest.(check (option int)) "no sessions yet" (Some 0)
            (Json.get_int "sessions" h);
          Alcotest.(check (option int)) "no stalls" (Some 0)
            (Json.get_int "stalled" h);
          (* Stall every fsync: with sync = Always the session create
             crosses the slow threshold inside the journal. *)
          let trace = "e2e-stalled-create.1" in
          Core.Vfs.set_stall vfs 0.12;
          let code, _ =
            req "POST" "/v1/sessions"
              ~headers:[ ("X-Learnq-Trace", trace) ]
              ~body:
                (Json.Obj
                   [
                     ("id", Json.Str "slowone");
                     ("engine", Json.Str "twig");
                     ("seed", Json.of_int 7);
                     ("scale", Json.Num 0.02);
                   ])
          in
          Core.Vfs.set_stall vfs 0.;
          Alcotest.(check int) "stalled create still succeeds" 200 code;
          (* /debug/slow names the request by its client-chosen trace. *)
          let code, slow = req "GET" "/debug/slow" in
          Alcotest.(check int) "debug/slow" 200 code;
          let slow_traces =
            match Json.mem "requests" slow with
            | Some (Json.Arr l) ->
                List.filter_map (fun e -> Json.get_str "trace" e) l
            | _ -> Alcotest.fail "debug/slow has no requests array"
          in
          Alcotest.(check bool) "slow ring holds the stalled request"
            true
            (List.mem trace slow_traces);
          (* The flight recorder links the HTTP span to the journal
             fsync and the injected vfs stall across the domain hop. *)
          let names =
            List.map
              (fun e -> e.Core.Telemetry.Recorder.ev_name)
              (Core.Telemetry.Recorder.trace_events trace)
          in
          List.iter
            (fun expected ->
              Alcotest.(check bool)
                (Printf.sprintf "trace links %s" expected)
                true (List.mem expected names))
            [
              "http.request"; "serve.job"; "journal.fsync"; "vfs.stall";
              "http.slow";
            ];
          (* The dump endpoint serves the same events as Chrome-trace
             JSON, stall included. *)
          let code, dump = req "GET" "/debug/flightrecorder" in
          Alcotest.(check int) "flightrecorder" 200 code;
          let dump_names =
            match Json.mem "traceEvents" dump with
            | Some (Json.Arr l) ->
                List.filter_map (fun e -> Json.get_str "name" e) l
            | _ -> Alcotest.fail "dump has no traceEvents"
          in
          Alcotest.(check bool) "dump contains the vfs stall" true
            (List.mem "vfs.stall" dump_names);
          (* Error responses carry the trace id in the body. *)
          let code, err =
            req "GET" "/v1/sessions/nosuch"
              ~headers:[ ("X-Learnq-Trace", "e2e-err.7") ]
          in
          Alcotest.(check int) "unknown session" 404 code;
          Alcotest.(check (option string)) "error body carries the trace"
            (Some "e2e-err.7") (Json.get_str "trace" err);
          (* A malformed inbound trace is replaced, not echoed. *)
          let _, err2 =
            req "GET" "/v1/sessions/nosuch"
              ~headers:[ ("X-Learnq-Trace", "bad trace!") ]
          in
          (match Json.get_str "trace" err2 with
          | Some t when t <> "bad trace!" && t <> "" -> ()
          | other ->
              Alcotest.failf "invalid trace echoed: %s"
                (Option.value ~default:"<none>" other));
          (* /debug/sessions and /debug/tenants see the live session. *)
          let code, ds = req "GET" "/debug/sessions" in
          Alcotest.(check int) "debug/sessions" 200 code;
          (match Json.mem "sessions" ds with
          | Some (Json.Arr [ s ]) ->
              Alcotest.(check (option string)) "session id"
                (Some "slowone") (Json.get_str "id" s);
              Alcotest.(check (option string)) "session engine"
                (Some "twig") (Json.get_str "engine" s)
          | _ -> Alcotest.fail "expected exactly one debug session");
          let code, dt = req "GET" "/debug/tenants" in
          Alcotest.(check int) "debug/tenants" 200 code;
          (match Json.mem "tenants" dt with
          | Some (Json.Arr l) ->
              Alcotest.(check bool) "anon tenant listed" true
                (List.exists
                   (fun e -> Json.get_str "tenant" e = Some "anon")
                   l)
          | _ -> Alcotest.fail "debug/tenants has no tenants array");
          (* /metrics appends the labeled, windowed series. *)
          let code, m = req "GET" "/metrics" in
          Alcotest.(check int) "metrics" 200 code;
          let text = match m with Json.Str s -> s | _ -> "" in
          let has needle =
            let nn = String.length needle and hn = String.length text in
            let rec go i =
              i + nn <= hn
              && (String.sub text i nn = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "labeled request counter" true
            (has "learnq_requests_total{");
          Alcotest.(check bool) "windowed latency summary" true
            (has "learnq_request_seconds{");
          Alcotest.(check bool) "tenant label" true
            (has "tenant=\"anon\"");
          Alcotest.(check bool) "watchdog never tripped" true
            (Server.Daemon.stalled daemon = 0)));
  Core.Telemetry.reset ()

(* The /debug surface can be turned off wholesale. *)
let test_daemon_debug_endpoints_disableable () =
  with_inprocess_daemon
    (fun cfg -> { cfg with Server.Daemon.debug_endpoints = false })
    (fun _ port ->
      let c =
        match Server.Client.connect ~host:"127.0.0.1" ~port with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect: %s" e
      in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          List.iter
            (fun path ->
              match Server.Client.request c ~meth:"GET" ~path () with
              | Ok (code, _) ->
                  Alcotest.(check int) (path ^ " hidden") 404 code
              | Error e -> Alcotest.failf "GET %s: %s" path e)
            [
              "/debug/sessions"; "/debug/tenants"; "/debug/slow";
              "/debug/flightrecorder";
            ]))

(* A request whose reconnect fails (the daemon is gone) must leave the
   client owning its descriptor, so the caller's [close] cannot close a
   descriptor number that another file has taken since. *)
let test_client_close_after_failed_reconnect () =
  with_inprocess_daemon Fun.id (fun daemon port ->
      let c =
        match Server.Client.connect ~host:"127.0.0.1" ~port with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect: %s" e
      in
      (match Server.Client.request c ~meth:"GET" ~path:"/healthz" () with
      | Ok (200, _) -> ()
      | _ -> Alcotest.fail "healthz");
      Server.Daemon.drain daemon;
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec until_refused () =
        match Server.Client.connect ~host:"127.0.0.1" ~port with
        | Error _ -> ()
        | Ok probe when Unix.gettimeofday () < deadline ->
            Server.Client.close probe;
            Thread.delay 0.05;
            until_refused ()
        | Ok _ -> Alcotest.fail "daemon still listening after drain"
      in
      until_refused ();
      (match Server.Client.request c ~meth:"GET" ~path:"/healthz" () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a drained daemon answered");
      let pipes = List.init 32 (fun _ -> Unix.pipe ()) in
      Server.Client.close c;
      let open_fd fd =
        match Unix.fstat fd with
        | _ -> true
        | exception Unix.Unix_error _ -> false
      in
      let intact = List.for_all (fun (r, w) -> open_fd r && open_fd w) pipes in
      List.iter
        (fun (r, w) ->
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            [ r; w ])
        pipes;
      Alcotest.(check bool) "close leaves other descriptors open" true intact)

(* ------------------------------------------------------------------ *)
(* Adversarial clients against the multiplexer                         *)
(* ------------------------------------------------------------------ *)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let raw_recv_all ?(deadline = 10.0) fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let t0 = Unix.gettimeofday () in
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.5
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  let rec go () =
    if Unix.gettimeofday () -. t0 > deadline then ()
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> ()
  in
  go ();
  Buffer.contents buf

(* A slow-loris trickler — bytes arriving slower than the request
   deadline — must get its 408 and lose the connection, while concurrent
   well-behaved requests sail through: the trickler parks on the poll
   loop and never occupies a worker thread. *)
let test_daemon_slow_loris_gets_408 () =
  with_inprocess_daemon
    (fun cfg -> { cfg with Server.Daemon.request_deadline = 1.0 })
    (fun _daemon port ->
      let loris = raw_connect port in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close loris with Unix.Unix_error _ -> ())
        (fun () ->
          (* Start a request and then stall: enough bytes to be
             unmistakably mid-request, never the terminator. *)
          ignore
            (Unix.write_substring loris "GET /healthz HT" 0 15);
          (* While the trickler stalls, normal requests are unaffected. *)
          let c =
            match Server.Client.connect ~host:"127.0.0.1" ~port with
            | Ok c -> c
            | Error e -> Alcotest.failf "connect: %s" e
          in
          Fun.protect
            ~finally:(fun () -> Server.Client.close c)
            (fun () ->
              let t0 = Unix.gettimeofday () in
              for _ = 1 to 5 do
                match
                  Server.Client.request c ~meth:"GET" ~path:"/healthz" ()
                with
                | Ok (200, _) -> ()
                | Ok (code, _) -> Alcotest.failf "healthz: %d" code
                | Error e -> Alcotest.failf "healthz: %s" e
              done;
              Alcotest.(check bool)
                "trickler does not stall well-behaved clients" true
                (Unix.gettimeofday () -. t0 < 1.0);
              (* The trickler's deadline fires: 408, then EOF. *)
              let got = raw_recv_all ~deadline:5.0 loris in
              Alcotest.(check bool) "loris gets 408" true
                (String.length got > 12
                && String.sub got 0 12 = "HTTP/1.1 408");
              match
                Server.Client.request c ~meth:"GET" ~path:"/stats" ()
              with
              | Ok (200, stats) ->
                  Alcotest.(check bool) "timeout counted in /stats" true
                    (match Json.get_int "http_timeouts" stats with
                    | Some n -> n >= 1
                    | None -> false)
              | Ok (code, _) -> Alcotest.failf "stats: %d" code
              | Error e -> Alcotest.failf "stats: %s" e)))

let proc_threads () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | line ->
                if String.length line > 8 && String.sub line 0 8 = "Threads:"
                then
                  int_of_string_opt
                    (String.trim
                       (String.sub line 8 (String.length line - 8)))
                else go ()
            | exception End_of_file -> None
          in
          go ())

(* 200 idle keep-alive connections must cost zero threads: the process
   thread count stays flat while they park, /stats reports them parked,
   and the advertised I/O thread budget stays io_threads + 1. *)
let test_daemon_idle_herd_thread_bound () =
  with_inprocess_daemon
    (fun cfg ->
      { cfg with Server.Daemon.io_threads = 2; max_conns = 400 })
    (fun _daemon port ->
      let herd = ref [] in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            !herd)
        (fun () ->
          let before = proc_threads () in
          for _ = 1 to 200 do
            herd := raw_connect port :: !herd
          done;
          let c =
            match Server.Client.connect ~host:"127.0.0.1" ~port with
            | Ok c -> c
            | Error e -> Alcotest.failf "connect: %s" e
          in
          Fun.protect
            ~finally:(fun () -> Server.Client.close c)
            (fun () ->
              (* Wait until the mux has accepted the whole herd. *)
              let deadline = Unix.gettimeofday () +. 10.0 in
              let rec poll_stats () =
                match
                  Server.Client.request c ~meth:"GET" ~path:"/stats" ()
                with
                | Ok (200, stats)
                  when (match Json.get_int "parked" stats with
                       | Some n -> n >= 200
                       | None -> false) ->
                    stats
                | Ok (200, _) when Unix.gettimeofday () < deadline ->
                    Thread.delay 0.1;
                    poll_stats ()
                | Ok (code, _) ->
                    Alcotest.failf "stats while herding: %d" code
                | Error e -> Alcotest.failf "stats while herding: %s" e
              in
              let stats = poll_stats () in
              Alcotest.(check bool) "herd is parked" true
                (match Json.get_int "parked" stats with
                | Some n -> n >= 200
                | None -> false);
              Alcotest.(check (option int))
                "I/O thread budget is io_threads + 1" (Some 3)
                (Json.get_int "threads" stats);
              (match (before, proc_threads ()) with
              | Some b, Some a ->
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "thread count flat under the herd (%d -> %d)" b a)
                    true
                    (a - b <= 2)
              | _ -> () (* no procfs; the /stats assertions stand *));
              (* The herd does not crowd out request service. *)
              match
                Server.Client.request c ~meth:"GET" ~path:"/healthz" ()
              with
              | Ok (200, _) -> ()
              | Ok (code, _) -> Alcotest.failf "healthz under herd: %d" code
              | Error e -> Alcotest.failf "healthz under herd: %s" e)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
        ] );
      ( "http",
        [
          Alcotest.test_case "parse_head" `Quick test_http_parse_head;
          Alcotest.test_case "parse_head rejects" `Quick
            test_http_parse_head_rejects;
          Alcotest.test_case "timeout mid body resumes" `Quick
            test_http_timeout_mid_body_resumes;
        ] );
      ( "engines",
        [
          Alcotest.test_case "spec limits enforced" `Quick
            test_engines_spec_limits;
          Alcotest.test_case "simulated user is keyed by the question" `Quick
            test_engines_user_pure;
        ] );
      ( "stepper",
        [
          Alcotest.test_case "duplicate qid is idempotent" `Quick
            test_stepper_duplicate_qid_idempotent;
          Alcotest.test_case "future qid is refused" `Quick
            test_stepper_future_qid_rejected;
          Alcotest.test_case "matches the batch loop" `Quick
            test_stepper_matches_interact_loop;
        ] );
      ( "registry",
        [
          Alcotest.test_case "idempotent create, spec conflict" `Quick
            test_registry_idempotent_create_and_conflict;
          Alcotest.test_case "quota refusal" `Quick test_registry_quota_refusal;
          Alcotest.test_case "crash/recover equals uninterrupted" `Quick
            test_registry_crash_recover_equality;
          Alcotest.test_case "drain releases locks" `Quick
            test_registry_drain_releases_locks;
          Alcotest.test_case "names injective across restart" `Quick
            test_registry_names_injective_across_restart;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "evict/resume equals uninterrupted" `Quick
            test_registry_evict_resume_roundtrip;
          Alcotest.test_case "evicted burst resumes single-flight" `Quick
            test_registry_evicted_burst_single_flight;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "corrupt journal is quarantined" `Quick
            test_registry_quarantines_corrupt_journal;
          Alcotest.test_case "ENOSPC is typed Storage{full}" `Quick
            test_registry_enospc_is_typed_storage_full;
          Alcotest.test_case "drive hands back a storage error" `Quick
            test_stepper_drive_returns_storage_error;
        ] );
      ( "admission",
        [
          Alcotest.test_case "sheds when full" `Quick test_admission_sheds_when_full;
          Alcotest.test_case "breaker trips a tenant" `Quick
            test_admission_breaker_trips;
          Alcotest.test_case "batches are key-disjoint" `Quick
            test_admission_batches_key_disjoint;
          Alcotest.test_case "drain refuses submits" `Quick
            test_admission_drain_refuses_submits;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end to end" `Quick test_daemon_end_to_end;
          Alcotest.test_case "slow request traceable end to end" `Quick
            test_daemon_slow_request_traceable;
          Alcotest.test_case "debug endpoints disableable" `Quick
            test_daemon_debug_endpoints_disableable;
          Alcotest.test_case "degraded mode self-heals" `Quick
            test_daemon_degraded_mode_self_heals;
          Alcotest.test_case "slow-loris gets 408, others unaffected" `Quick
            test_daemon_slow_loris_gets_408;
          Alcotest.test_case "200 idle conns, flat thread count" `Quick
            test_daemon_idle_herd_thread_bound;
          Alcotest.test_case "client close after failed reconnect" `Quick
            test_client_close_after_failed_reconnect;
        ] );
    ]
