(* learnq — command-line front end to the query-learning library.

   Subcommands:
     xmark           generate an XMark-style document
     validate        validate documents against a DMS (default: XMark)
     schema-contain  decide containment between two DMS files
     gen-doc         generate a random document valid for a DMS
     infer-schema    infer a disjunctive multiplicity schema from documents
     learn-twig      learn a twig query from annotated nodes (or from a goal)
     learn-join      interactive join inference (CSV files or generated data)
     learn-path      learn a path query on a generated road network
     exchange        run a Figure-1 data-exchange scenario
     fuzz            differential fuzzing of the engines against oracles *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Structured failure: print the error, exit with its conventional code
   (64 bad input, 3 budget exhausted) — never a backtrace. *)
let or_die = function
  | Ok v -> v
  | Error err ->
      Printf.eprintf "learnq: %s\n" (Core.Error.to_string err);
      exit (Core.Error.exit_code err)

let load_doc path = or_die (Xmltree.Parse.xml_result ~source:path (read_file path))

(* ------------------------------------------------------------------ *)
(* Shared resource-budget flags                                        *)
(* ------------------------------------------------------------------ *)

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget in seconds.  When it runs out the learner \
           degrades to a polynomial approximation (exit code 2) or, with \
           nothing to show, exits 3.")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Step budget: the number of candidate/configuration expansions the \
           engines may spend before degrading.")

let budget_term =
  let make timeout fuel =
    (* Budget settings go into every telemetry export header (satellite of
       reproducibility: a trace file alone should identify the run). *)
    let ctx =
      (match fuel with Some f -> [ ("fuel", string_of_int f) ] | None -> [])
      @
      match timeout with
      | Some t -> [ ("timeout_s", Printf.sprintf "%g" t) ]
      | None -> []
    in
    if ctx <> [] then Core.Telemetry.set_context ctx;
    Core.Budget.create ?fuel ?timeout ()
  in
  Term.(const make $ timeout_arg $ fuel_arg)

(* ------------------------------------------------------------------ *)
(* Shared observability flags                                          *)
(* ------------------------------------------------------------------ *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON file of the run's nested spans to \
           $(docv); load it in chrome://tracing or Perfetto.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics (counters, gauges, latency histograms, \
           span rollup) as JSON to $(docv), plus Prometheus text exposition \
           to $(docv).prom.")

let log_level_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"LVL"
        ~doc:
          "Structured-log threshold: debug, info, warn (default), error, or \
           quiet.")

let summary_arg =
  Arg.(
    value & flag
    & info [ "summary" ]
        ~doc:
          "Print an end-of-run telemetry summary (question counts, span time \
           rollup, histogram quantiles) to stderr.")

let telemetry_term =
  let setup trace metrics log_level summary =
    let log_level =
      match log_level with
      | None -> None
      | Some s -> (
          match Core.Telemetry.level_of_string s with
          | Some lvl -> Some (Some lvl)
          | None ->
              if List.mem s [ "quiet"; "none"; "off" ] then Some None
              else
                or_die
                  (Error
                     (Core.Error.invalid_input ~what:"--log-level"
                        (s
                       ^ " is not a level (debug|info|warn|error|quiet)"))))
    in
    Core.Telemetry.configure ?trace ?metrics ?log_level ~summary ()
  in
  Term.(const setup $ trace_arg $ metrics_arg $ log_level_arg $ summary_arg)

(* ------------------------------------------------------------------ *)
(* Shared durability and supervision flags                             *)
(* ------------------------------------------------------------------ *)

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Write-ahead session journal: every question and answer is \
           appended (fsync'd) to $(docv), so a crashed session can be \
           continued with $(b,--resume) without re-asking anything already \
           answered.")

let journal_sync_arg =
  Arg.(
    value
    & opt
        (some
           (enum
              [
                ("always", Core.Journal.Always);
                ("batch", Core.Journal.Batch);
                ("off", Core.Journal.Off);
              ]))
        None
    & info [ "journal-sync" ] ~docv:"always|batch|off"
        ~doc:
          "Journal fsync policy: $(b,always) fsyncs every record (the \
           default — lose at most the in-flight answer), $(b,batch) \
           group-commits 8 records per fsync (one crash loses at most the \
           open group; ~8x less fsync overhead), $(b,off) never fsyncs.  On \
           $(b,--resume) the journal's recorded policy is kept unless this \
           flag overrides it.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume the session recorded in $(b,--journal): replay the \
           surviving answers (a torn tail from a crash is dropped), rebuild \
           the learner state, and continue asking.  The seed is taken from \
           the journal header; the other parameters must match the recording \
           run.")

let checkpoint_every_arg =
  Arg.(
    value & opt int 0
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "With $(b,--journal), snapshot the learner state and atomically \
           compact the journal down to header + checkpoint every $(docv) \
           labeled answers, so $(b,--resume) restores the snapshot instead \
           of replaying from record zero and the journal stays small over \
           arbitrarily long sessions.  0 (the default) never compacts.")

let crash_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "crash-after" ] ~docv:"K"
        ~doc:
          "Fault injection for testing crash recovery: exit abruptly (code \
           137, as if killed) once the oracle has replied $(docv) times.")

let retries_arg =
  Arg.(
    value & opt int 3
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Ask an unanswered (refused or timed-out) question up to $(docv) \
           times in total, with exponential backoff, before giving up on it.")

let breaker_arg =
  Arg.(
    value & opt int 5
    & info [ "breaker" ] ~docv:"N"
        ~doc:
          "Circuit breaker: after $(docv) consecutive given-up questions the \
           session stops asking and returns the current candidate (exit \
           code 2) instead of hammering a dead oracle.")

let noise_arg =
  Arg.(
    value & opt float 0.0
    & info [ "noise" ] ~docv:"P"
        ~doc:"Probability the simulated user answers wrong.")

let refusal_arg =
  Arg.(
    value & opt float 0.0
    & info [ "refusal" ] ~docv:"P"
        ~doc:"Probability the simulated user refuses a question.")

let timeout_rate_arg =
  Arg.(
    value & opt float 0.0
    & info [ "timeout-rate" ] ~docv:"P"
        ~doc:
          "Probability the simulated user's answer never arrives (distinct \
           from $(b,--timeout), the wall-clock budget).")

(* The simulated user's flags.  Evaluating the term checks them, so a bad
   rate exits 64 before the command runs, let alone writes a journal.
   Simulated users answer in microseconds, so the retry backoff is short:
   a flaky run does not spend its wall-clock sleeping. *)
type user = {
  faults : string;  (* the rate flags, as the journal config records them *)
  rates : Core.Flaky.profile;
  crash_after : int option;
  retry : Core.Retry.policy;
}

let user_term =
  let user crash_after noise refusal timeout_rate retries breaker =
    {
      faults =
        Printf.sprintf "noise=%g refusal=%g timeout-rate=%g" noise refusal
          timeout_rate;
      rates = Core.Flaky.profile ~noise ~refusal ~timeout:timeout_rate ();
      crash_after;
      retry =
        Core.Retry.policy ~max_attempts:retries ~base_delay:0.01
          ~max_delay:0.25 ~breaker_threshold:breaker ();
    }
  in
  Term.(
    const user $ crash_after_arg $ noise_arg $ refusal_arg $ timeout_rate_arg
    $ retries_arg $ breaker_arg)

(* The simulated user: [base] answers through [Core.Flaky.user], keyed by
   the item's journal codec [encode] under the session's [seed], so a reply
   depends on the question and never on how many came before it: a resumed
   session gets the replies of its uninterrupted run.  Asks of one question
   in this process number its attempts (a retry re-rolls only a refusal or
   a timeout), and the process dies on the ask after --crash-after, with
   128 + SIGKILL, the exit code of a real kill -9. *)
let simulated_user user ~seed ~encode base =
  let asks = Hashtbl.create 64 and n = ref 0 in
  fun it ->
    (match user.crash_after with
    | Some k when !n >= k ->
        Core.Telemetry.Log.warn
          ~kv:[ ("answers", string_of_int k) ]
          "injected crash (--crash-after)";
        exit 137
    | _ -> ());
    incr n;
    let key = encode it in
    let attempt = Option.value ~default:0 (Hashtbl.find_opt asks key) in
    Hashtbl.replace asks key (attempt + 1);
    let { Core.Flaky.refusal; timeout; noise } = user.rates in
    Core.Flaky.user ~seed ~truth:(fun _ -> base it) ~refusal ~timeout ~noise
      ~attempt key

(* A started (or resumed) journal session: [seed] is the effective seed —
   the journal header's on resume, the --seed flag's otherwise. *)
type journal_session = {
  log : Core.Journal.t option;
  seed : int;
  raw_events : Core.Journal.event list;
}

let start_journal ~path ~resuming ~engine ~config ~seed ~sync =
  Core.Telemetry.set_context
    [ ("engine", engine); ("seed", string_of_int seed) ];
  match path with
  | None ->
      if resuming then
        or_die
          (Error
             (Core.Error.invalid_input ~what:"--resume"
                "requires --journal FILE"));
      { log = None; seed; raw_events = [] }
  | Some path when resuming ->
      let log, (r : Core.Journal.recovered) =
        or_die (Core.Journal.resume ?sync ~path ())
      in
      let h = Option.get r.header in
      if h.engine <> engine then
        or_die
          (Error
             (Core.Error.invalid_input ~what:"--resume"
                (Printf.sprintf "%s records a %s session, not %s" path
                   h.engine engine)));
      if h.config <> config then
        or_die
          (Error
             (Core.Error.invalid_input ~what:"--resume"
                (Printf.sprintf
                   "%s was recorded with different parameters: %s" path
                   h.config)));
      if r.dropped_bytes > 0 then
        Core.Telemetry.Log.warn
          ~kv:[ ("bytes", string_of_int r.dropped_bytes) ]
          "dropped a torn record from the journal tail";
      (* The journal header's seed wins on resume; re-stamp it. *)
      Core.Telemetry.set_context [ ("seed", string_of_int h.seed) ];
      { log = Some log; seed = h.seed; raw_events = r.events }
  | Some path ->
      {
        log =
          Some
            (or_die
               (Core.Journal.create_result ?sync ~path { seed; engine; config }));
        seed;
        raw_events = [];
      }

(* Runs [session journal oracle] over the journal (if any), with [encode]
   as its item codec and the simulated user holding [base] as its oracle,
   and closes the journal after it.  Checkpoint compaction (and journal
   close) can hit the disk mid-session; the typed storage error exits
   with EX_IOERR, leaving the journal intact and resumable.  A journal
   that does not replay over this data (an undecodable item or
   checkpoint) is bad input. *)
let run_journaled js user encode base session =
  let oracle = simulated_user user ~seed:js.seed ~encode base in
  try
    let journal = Option.map (fun log -> (log, encode)) js.log in
    let outcome = session journal oracle in
    Option.iter Core.Journal.close js.log;
    outcome
  with Core.Journal.Io err | Core.Interact.Replay_failed err ->
    Printf.eprintf "learnq: %s\n" (Core.Error.to_string err);
    exit (Core.Error.exit_code err)

let report_session ?note ~questions ~replayed ~pruned ~refused ~retried () =
  Printf.printf "questions: %d, replayed: %d, pruned: %d, refused: %d%s\n"
    questions replayed pruned refused
    (if retried > 0 then Printf.sprintf ", retried: %d" retried else "");
  Option.iter print_endline note

(* Shared post-session policy: an open breaker or an exhausted budget both
   yield a usable-but-degraded candidate and exit code 2. *)
let exit_degraded_if ~breaker_open ~degraded what =
  if breaker_open then begin
    Core.Telemetry.Log.error
      (Printf.sprintf
         "the oracle circuit breaker opened (too many consecutive unanswered \
          questions); %s is the current candidate"
         what);
    exit Core.Error.exit_degraded
  end;
  if degraded then begin
    Core.Telemetry.Log.warn
      (Printf.sprintf
         "the budget ran out; %s is the current candidate, not necessarily \
          the goal"
         what);
    exit Core.Error.exit_degraded
  end

(* ------------------------------------------------------------------ *)
(* xmark                                                               *)
(* ------------------------------------------------------------------ *)

let scale_arg =
  Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Document scale factor.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Deterministic seed.")

(* Every command that takes a seed stamps it into the telemetry context, so
   trace and metrics exports identify the run they came from. *)
let seed_term =
  let stamp seed =
    Core.Telemetry.set_context [ ("seed", string_of_int seed) ];
    seed
  in
  Term.(const stamp $ seed_arg)

let xmark_cmd =
  let run () scale seed =
    print_string (Xmltree.Print.to_xml (Benchkit.Xmark.generate ~scale ~seed ()))
  in
  Cmd.v
    (Cmd.info "xmark" ~doc:"Generate an XMark-style auction document.")
    Term.(const run $ telemetry_term $ scale_arg $ seed_term)

(* ------------------------------------------------------------------ *)
(* validate                                                            *)
(* ------------------------------------------------------------------ *)

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"XML documents.")

let schema_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "schema" ] ~docv:"FILE"
        ~doc:
          "Schema file in the textual DMS format (root: line + one \
           'label -> DME' rule per line); defaults to the built-in XMark \
           schema.")

let load_schema = function
  | None -> Benchkit.Xmark.schema
  | Some path -> or_die (Uschema.Schema.parse_result ~source:path (read_file path))

let validate_cmd =
  let run () schema_file files =
    let schema = load_schema schema_file in
    let failures = ref 0 in
    List.iter
      (fun path ->
        match Uschema.Schema.validate schema (load_doc path) with
        | Ok () -> Printf.printf "%s: valid\n" path
        | Error vs ->
            incr failures;
            Printf.printf "%s: INVALID (%d violations)\n" path (List.length vs);
            List.iteri
              (fun i v ->
                if i < 5 then
                  Format.printf "  %a@." Uschema.Schema.pp_violation v)
              vs)
      files;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Validate documents against a DMS (default: XMark).")
    Term.(const run $ telemetry_term $ schema_arg $ files_arg)

let schema_contain_cmd =
  let s1_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCHEMA1")
  in
  let s2_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"SCHEMA2")
  in
  let run () p1 p2 =
    let s1 = or_die (Uschema.Schema.parse_result ~source:p1 (read_file p1)) in
    let s2 = or_die (Uschema.Schema.parse_result ~source:p2 (read_file p2)) in
    let leq12 = Uschema.Containment.schema_leq s1 s2 in
    let leq21 = Uschema.Containment.schema_leq s2 s1 in
    Printf.printf "%s <= %s: %b\n%s <= %s: %b\n" p1 p2 leq12 p2 p1 leq21;
    if leq12 && leq21 then print_endline "the schemas are equivalent"
  in
  Cmd.v
    (Cmd.info "schema-contain"
       ~doc:"Decide containment between two DMS files, both directions.")
    Term.(const run $ telemetry_term $ s1_arg $ s2_arg)

let gen_doc_cmd =
  let run () schema_file seed =
    let schema = load_schema schema_file in
    let rng = Core.Prng.create seed in
    match Uschema.Docgen.generate ~rng schema with
    | Some doc -> print_string (Xmltree.Print.to_xml doc)
    | None ->
        prerr_endline "the schema admits no finite document";
        exit 1
  in
  Cmd.v
    (Cmd.info "gen-doc"
       ~doc:"Generate a random document valid for a DMS (default: XMark).")
    Term.(const run $ telemetry_term $ schema_arg $ seed_term)

(* ------------------------------------------------------------------ *)
(* infer-schema                                                        *)
(* ------------------------------------------------------------------ *)

let infer_schema_cmd =
  let run () files =
    match Uschema.Infer.infer (List.map load_doc files) with
    | Some schema -> Format.printf "%a@." Uschema.Schema.pp schema
    | None ->
        prerr_endline "documents disagree on the root label";
        exit 1
  in
  Cmd.v
    (Cmd.info "infer-schema"
       ~doc:"Infer a disjunctive multiplicity schema from documents.")
    Term.(const run $ telemetry_term $ files_arg)

(* ------------------------------------------------------------------ *)
(* learn-twig                                                          *)
(* ------------------------------------------------------------------ *)

let parse_path s =
  (* "/0/2/1" or "0/2/1" *)
  String.split_on_char '/' s
  |> List.filter (fun t -> t <> "")
  |> List.map (fun t ->
         match int_of_string_opt t with
         | Some i -> i
         | None -> failwith ("bad node path: " ^ s))

let learn_twig_cmd =
  let doc_files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"XML documents.")
  in
  let selects =
    Arg.(
      value
      & opt_all string []
      & info [ "select" ] ~docv:"PATH"
          ~doc:
            "Annotated node as child-index path (e.g. /3/0/1), one per \
             --select, matched positionally with FILEs (repeat a file to \
             annotate several nodes).")
  in
  let goal =
    Arg.(
      value
      & opt (some string) None
      & info [ "goal" ] ~docv:"XPATH"
          ~doc:
            "Instead of --select, draw one example per document from this \
             goal query (simulated annotator).")
  in
  let with_schema =
    Arg.(
      value & flag
      & info [ "xmark-schema" ]
          ~doc:"Prune filters implied by the XMark schema from the result.")
  in
  let exact =
    Arg.(
      value
      & opt (some int) None
      & info [ "exact" ] ~docv:"SIZE"
          ~doc:
            "Run the exact bounded consistency search over twigs of at most \
             $(docv) pattern nodes (NP-complete; requires --goal, which also \
             provides negative examples).  Under --timeout/--fuel the search \
             degrades to the anchored, then the approximate learner.")
  in
  (* Positive and negative annotations drawn from the goal: selected nodes,
     and as negatives the hard look-alikes — nodes carrying the same label as
     a selected node without being selected (the sample an annotator marking
     near-misses would produce). *)
  let goal_examples ~per_doc q docs =
    List.concat_map
      (fun d ->
        let selected = Twig.Eval.select q d in
        let target_labels =
          List.filter_map
            (fun p ->
              Option.map
                (fun (n : Xmltree.Tree.t) -> n.label)
                (Xmltree.Tree.node_at d p))
            selected
          |> List.sort_uniq compare
        in
        let pos =
          List.filteri (fun i _ -> i < per_doc) selected
          |> List.map (fun p ->
                 Core.Example.positive (Xmltree.Annotated.make d p))
        in
        let pos_depths = List.map List.length selected in
        let neg =
          List.concat_map (Xmltree.Tree.paths_with_label d) target_labels
          |> List.filter (fun p -> not (List.mem p selected))
          (* Same-depth look-alikes first: they are the negatives a trivial
             depth-k query cannot shake off. *)
          |> List.stable_sort (fun a b ->
                 let hard p = List.mem (List.length p) pos_depths in
                 compare (not (hard a)) (not (hard b)))
          |> List.filteri (fun i _ -> i < per_doc)
          |> List.map (fun p ->
                 Core.Example.negative (Xmltree.Annotated.make d p))
        in
        pos @ neg)
      docs
  in
  let run_exact budget max_size goal docs =
    match goal with
    | None ->
        or_die
          (Error (Core.Error.invalid_input ~what:"--exact" "requires --goal"))
    | Some xpath ->
        let q = or_die (Twig.Parse.query_result ~source:"--goal" xpath) in
        let examples = goal_examples ~per_doc:2 q docs in
        if not (List.exists Core.Example.is_positive examples) then
          or_die
            (Error
               (Core.Error.invalid_input ~what:"--goal"
                  "selects no node in the given documents"));
        let outcome = Twiglearn.Fallback.learn ~budget ~max_size examples in
        let level =
          match outcome.level with
          | Twiglearn.Fallback.Exact -> "exact"
          | Anchored -> "anchored"
          | Approximate -> "approximate"
        in
        (match outcome.query with
        | None ->
            Printf.eprintf "learnq: %s\n"
              (Core.Error.to_string
                 (Core.Error.budget_exhausted ~engine:"twig" outcome.spent));
            exit Core.Error.exit_budget
        | Some learned ->
            Format.printf "learned (%s): %a@." level Twig.Query.pp learned;
            if outcome.degraded then begin
              Core.Telemetry.Log.warn
                ~kv:
                  [
                    ("level", level);
                    ("fuel", string_of_int outcome.spent.fuel_spent);
                    ("elapsed_s", Printf.sprintf "%.3f" outcome.spent.elapsed);
                    ("dropped", string_of_int outcome.dropped);
                    ("training_errors", string_of_int outcome.training_errors);
                  ]
                "degraded to a weaker learner";
              exit Core.Error.exit_degraded
            end)
  in
  (* A live journaled session: the user is simulated by the --goal query
     (optionally through a fault injector), questions and answers are
     write-ahead logged, and a crashed run picks up from its journal. *)
  let run_interactive files goal seed journal sync resume checkpoint_every
      user budget =
    let file = List.hd files in
    let doc = load_doc file in
    let xpath =
      match goal with
      | Some g -> g
      | None ->
          or_die
            (Error
               (Core.Error.invalid_input ~what:"--interactive"
                  "requires --goal (the simulated user)"))
    in
    let goal_q = or_die (Twig.Parse.query_result ~source:"--goal" xpath) in
    let config =
      Printf.sprintf "learn-twig file=%s goal=%s %s" (Filename.basename file)
        xpath user.faults
    in
    let js =
      start_journal ~path:journal ~resuming:resume ~engine:"learn-twig"
        ~config ~seed ~sync
    in
    let rng = Core.Prng.create js.seed in
    let items = Twiglearn.Interactive.items_of_doc doc in
    let outcome =
      run_journaled js user Twiglearn.Interactive.encode_item
        (Twig.Eval.selects_example goal_q) (fun journal oracle ->
          Twiglearn.Interactive.Loop.run_flaky ~rng ~budget ?journal
            ~resume:
              ( js.raw_events,
                Twiglearn.Interactive.decode_item ~doc,
                Twiglearn.Interactive.decode_state ~doc )
            ~checkpoint_every ~snapshot:Twiglearn.Interactive.encode_state
            ~retry:user.retry ~oracle ~items ())
    in
    report_session ~questions:outcome.questions ~replayed:outcome.replayed
      ~pruned:outcome.pruned ~refused:outcome.refused ~retried:outcome.retried
      ();
    (match outcome.query with
    | Some q -> Format.printf "learned: %a@." Twig.Query.pp q
    | None -> print_endline "no consistent query");
    exit_degraded_if ~breaker_open:outcome.breaker_open
      ~degraded:outcome.degraded "the learned twig"
  in
  let run () files selects goal with_schema exact budget interactive seed
      journal sync resume checkpoint_every user =
    if interactive || journal <> None then
      run_interactive files goal seed journal sync resume checkpoint_every user
        budget
    else
    let docs = List.map load_doc files in
    match exact with
    | Some max_size -> run_exact budget max_size goal docs
    | None -> (
        let examples =
          match goal with
          | Some xpath -> (
              match Twig.Parse.query_opt xpath with
              | None ->
                  prerr_endline ("not a twig query: " ^ xpath);
                  exit Core.Error.exit_bad_input
              | Some q ->
                  List.filter_map
                    (fun d ->
                      match Twig.Eval.select q d with
                      | p :: _ -> Some (Xmltree.Annotated.make d p)
                      | [] -> None)
                    docs)
          | None ->
              if List.length selects <> List.length docs then begin
                prerr_endline "need exactly one --select per FILE (or --goal)";
                exit Core.Error.exit_bad_input
              end;
              List.map2
                (fun d s -> Xmltree.Annotated.make d (parse_path s))
                docs selects
        in
        match Twiglearn.Positive.learn_positive examples with
        | None ->
            prerr_endline "no anchored twig is consistent with the annotations";
            exit 1
        | Some learned ->
            Format.printf "learned: %a@." Twig.Query.pp learned;
            if with_schema then
              Format.printf "pruned:  %a@." Twig.Query.pp
                (Twiglearn.Schema_aware.prune
                   (Uschema.Depgraph.of_schema Benchkit.Xmark.schema)
                   learned))
  in
  let interactive =
    Arg.(
      value & flag
      & info [ "interactive" ]
          ~doc:
            "Run the Section-3 interactive protocol on the first FILE, with \
             --goal as the simulated user; supports --journal/--resume crash \
             recovery and the flaky-oracle flags.")
  in
  Cmd.v
    (Cmd.info "learn-twig"
       ~doc:
         "Learn a twig query from annotated nodes; with --exact, run the \
          budgeted exact search with graceful degradation; with \
          --interactive, run a journaled question-answer session.")
    Term.(const run $ telemetry_term $ doc_files
          $ selects $ goal $ with_schema
          $ exact $ budget_term $ interactive $ seed_term $ journal_arg
          $ journal_sync_arg $ resume_arg $ checkpoint_every_arg $ user_term)

(* ------------------------------------------------------------------ *)
(* learn-join                                                          *)
(* ------------------------------------------------------------------ *)

let strategy_arg =
  let strategies =
    [ ("first", `First); ("random", `Random); ("lattice", `Lattice); ("split", `Split) ]
  in
  Arg.(
    value
    & opt (enum strategies) `Lattice
    & info [ "strategy" ] ~doc:"Question-selection strategy: $(docv)."
        ~docv:"first|random|lattice|split")

(* Human-in-the-loop labeling: print the tuple pair, read y/n. *)
let ask_human left_rel right_rel (it : Joinlearn.Interactive.item) =
  let render rel t =
    Array.to_list (Relational.Relation.attrs rel)
    |> List.mapi (fun i a ->
           Printf.sprintf "%s=%s" a (Relational.Value.to_string t.(i)))
    |> String.concat ", "
  in
  Printf.printf "Should these rows join?\n  left:  %s\n  right: %s\n"
    (render left_rel it.left) (render right_rel it.right);
  let rec prompt () =
    print_string "  [y/n] > ";
    match input_line stdin with
    | "y" | "Y" | "yes" -> true
    | "n" | "N" | "no" -> false
    | exception End_of_file ->
        prerr_endline "stdin closed; treating as 'no'";
        false
    | _ -> prompt ()
  in
  prompt ()

let print_learned_predicate left_rel right_rel space mask =
  let pairs = Joinlearn.Signature.to_predicate space mask in
  let named =
    List.map
      (fun (i, j) ->
        Printf.sprintf "%s.%s = %s.%s"
          (Relational.Relation.name left_rel)
          (Relational.Relation.attrs left_rel).(i)
          (Relational.Relation.name right_rel)
          (Relational.Relation.attrs right_rel).(j))
      pairs
  in
  Printf.printf "learned predicate: %s\n"
    (if named = [] then "(cartesian product)" else String.concat " AND " named)

let learn_join_csv left_path right_path strategy =
  let load name path =
    or_die (Relational.Csv.parse_result ~source:path ~name (read_file path))
  in
  let left = load "left" left_path and right = load "right" right_path in
  let space =
    Joinlearn.Signature.space
      ~left_arity:(Relational.Relation.arity left)
      ~right_arity:(Relational.Relation.arity right)
  in
  let items = Joinlearn.Interactive.items_of space left right in
  Printf.printf
    "%d candidate row pairs; answer the questions (uninformative pairs are \
     skipped automatically).\n\n"
    (List.length items);
  let outcome =
    Joinlearn.Interactive.Loop.run ~strategy ~oracle:(ask_human left right)
      ~items ()
  in
  Printf.printf "\n%d questions asked, %d pairs inferred automatically.\n"
    outcome.questions outcome.pruned;
  match outcome.query with
  | Some mask ->
      print_learned_predicate left right space mask;
      let joined =
        Relational.Algebra.equijoin left right
          (Joinlearn.Signature.to_predicate space mask)
      in
      Printf.printf "join result (%d rows):\n%s"
        (Relational.Relation.cardinal joined)
        (Relational.Csv.to_string joined)
  | None ->
      prerr_endline "the answers are inconsistent with every equi-join"

let learn_join_cmd =
  let rows_arg =
    Arg.(value & opt int 30 & info [ "rows" ] ~doc:"Rows per relation.")
  in
  let left_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "left" ] ~docv:"CSV"
          ~doc:"Left relation as CSV (headers = attributes); with --right, \
                runs a real interactive session on your data.")
  in
  let right_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "right" ] ~docv:"CSV" ~doc:"Right relation as CSV.")
  in
  let run_generated_join seed strategy_name strategy rows budget user journal
      sync resume checkpoint_every =
    let config =
      Printf.sprintf "learn-join rows=%d strategy=%s %s" rows strategy_name
        user.faults
    in
    let js =
      start_journal ~path:journal ~resuming:resume ~engine:"learn-join"
        ~config ~seed ~sync
    in
    let rng = Core.Prng.create js.seed in
    let inst =
      Relational.Generator.pair_instance ~rng ~left_rows:rows ~right_rows:rows ()
    in
    Printf.printf "hidden goal: %s\n"
      (String.concat ", "
         (List.map (fun (i, j) -> Printf.sprintf "a%d=b%d" i j) inst.planted));
    let space =
      Joinlearn.Signature.space
        ~left_arity:(Relational.Relation.arity inst.left)
        ~right_arity:(Relational.Relation.arity inst.right)
    in
    let items = Joinlearn.Interactive.items_of space inst.left inst.right in
    let goal_mask = Joinlearn.Signature.of_predicate space inst.planted in
    let left = inst.left and right = inst.right in
    let outcome =
      run_journaled js user
        (Joinlearn.Interactive.encode_item ~left ~right)
        (fun (it : Joinlearn.Interactive.item) ->
          Joinlearn.Signature.subset goal_mask it.mask)
        (fun journal oracle ->
          Joinlearn.Interactive.Loop.run_flaky ~rng ~strategy ~budget ?journal
            ~resume:
              ( js.raw_events,
                Joinlearn.Interactive.decode_item ~left ~right,
                Joinlearn.Interactive.decode_state ~left ~right )
            ~checkpoint_every ~snapshot:Joinlearn.Interactive.encode_state
            ~retry:user.retry ~oracle ~items ())
    in
    (match outcome.query with
    | Some learned ->
        Format.printf "learned:     %a@." (Joinlearn.Signature.pp space) learned
    | None -> print_endline "no consistent predicate");
    report_session
      ~note:(Printf.sprintf "pool: %d" (List.length items))
      ~questions:outcome.questions ~replayed:outcome.replayed
      ~pruned:outcome.pruned ~refused:outcome.refused ~retried:outcome.retried
      ();
    exit_degraded_if ~breaker_open:outcome.breaker_open
      ~degraded:outcome.degraded "the predicate"
  in
  let run () seed strategy rows left right budget user journal sync resume
      checkpoint_every =
    let strategy_name =
      match strategy with
      | `First -> "first"
      | `Random -> "random"
      | `Lattice -> "lattice"
      | `Split -> "split"
    in
    let strategy_fn =
      match strategy with
      | `First -> Core.Interact.first_strategy
      | `Random -> Core.Interact.random_strategy
      | `Lattice -> Joinlearn.Interactive.lattice_strategy
      | `Split -> Joinlearn.Interactive.split_strategy ()
    in
    match (left, right) with
    | Some l, Some r -> learn_join_csv l r strategy_fn
    | Some _, None | None, Some _ ->
        prerr_endline "need both --left and --right";
        exit Core.Error.exit_bad_input
    | None, None ->
        run_generated_join seed strategy_name strategy_fn rows budget user
          journal sync resume checkpoint_every
  in
  Cmd.v
    (Cmd.info "learn-join"
       ~doc:
         "Interactively infer a join predicate — on your CSV data with \
          --left/--right (you answer the questions), or on a generated \
          instance with a simulated (possibly flaky) user, journaled and \
          resumable with --journal/--resume.")
    Term.(const run $ telemetry_term $ seed_term $ strategy_arg
          $ rows_arg $ left_arg $ right_arg $ budget_term $ user_term
          $ journal_arg $ journal_sync_arg $ resume_arg $ checkpoint_every_arg)

(* ------------------------------------------------------------------ *)
(* learn-path                                                          *)
(* ------------------------------------------------------------------ *)

let learn_path_cmd =
  let cities_arg =
    Arg.(value & opt int 14 & info [ "cities" ] ~doc:"Number of cities.")
  in
  let goal_arg =
    Arg.(
      value
      & opt string "highway highway*"
      & info [ "goal" ] ~docv:"REGEX" ~doc:"Hidden goal path query.")
  in
  let run () seed cities goal budget journal sync resume checkpoint_every
      user =
    let config =
      Printf.sprintf "learn-path cities=%d goal=%s %s" cities goal user.faults
    in
    let js =
      start_journal ~path:journal ~resuming:resume ~engine:"learn-path"
        ~config ~seed ~sync
    in
    let rng = Core.Prng.create js.seed in
    let graph = Graphdb.Generators.geo ~rng ~cities () in
    let goal_dfa = Automata.Dfa.of_regex (Automata.Regex.parse goal) in
    let items = Pathlearn.Interactive.items_of_graph ~max_len:3 ~rng graph in
    let outcome =
      run_journaled js user Pathlearn.Interactive.encode_item
        (fun (it : Pathlearn.Interactive.item) ->
          Automata.Dfa.accepts goal_dfa it.word)
        (fun journal oracle ->
          Pathlearn.Interactive.Loop.run_flaky ~rng ~budget ?journal
            ~resume:
              ( js.raw_events,
                Pathlearn.Interactive.decode_item,
                Pathlearn.Interactive.decode_state )
            ~checkpoint_every ~snapshot:Pathlearn.Interactive.encode_state
            ~retry:user.retry ~oracle ~items ())
    in
    report_session ~questions:outcome.questions ~replayed:outcome.replayed
      ~pruned:outcome.pruned ~refused:outcome.refused ~retried:outcome.retried
      ();
    (match outcome.query with
    | Some h -> Format.printf "learned: %a@." Pathlearn.Words.pp h
    | None -> print_endline "no consistent query");
    exit_degraded_if ~breaker_open:outcome.breaker_open
      ~degraded:outcome.degraded "the hypothesis"
  in
  Cmd.v
    (Cmd.info "learn-path"
       ~doc:
         "Interactively learn a path query on a generated road network, \
          journaled and resumable with --journal/--resume.")
    Term.(const run $ telemetry_term $ seed_term $ cities_arg
          $ goal_arg $ budget_term $ journal_arg $ journal_sync_arg
          $ resume_arg $ checkpoint_every_arg $ user_term)

(* ------------------------------------------------------------------ *)
(* exchange                                                            *)
(* ------------------------------------------------------------------ *)

let exchange_cmd =
  let scenario_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("1", 1); ("2", 2); ("3", 3); ("4", 4) ])) None
      & info [] ~docv:"SCENARIO" ~doc:"Figure-1 scenario number (1-4).")
  in
  let run () scenario seed =
    match scenario with
    | 1 ->
        let rng = Core.Prng.create seed in
        let inst =
          Relational.Generator.pair_instance ~rng ~left_rows:6 ~right_rows:6 ()
        in
        let space =
          Joinlearn.Signature.space
            ~left_arity:(Relational.Relation.arity inst.left)
            ~right_arity:(Relational.Relation.arity inst.right)
        in
        let goal = Joinlearn.Signature.of_predicate space inst.planted in
        let examples =
          Joinlearn.Interactive.items_of space inst.left inst.right
          |> List.map (fun (it : Joinlearn.Interactive.item) ->
                 ((it.left, it.right), Joinlearn.Signature.subset goal it.mask))
        in
        (match
           Exchange.Mapping.Rel_to_xml.run ~left:inst.left ~right:inst.right
             ~examples
         with
        | Some result -> print_string (Xmltree.Print.to_xml result.published)
        | None -> prerr_endline "learning failed")
    | 2 ->
        let doc = Benchkit.Xmark.generate ~scale:1.5 ~seed () in
        let annotations = Twig.Eval.select (Twig.Parse.query "//person") doc in
        (match
           Exchange.Mapping.Xml_to_rel.run ~doc ~annotations ~name:"person"
             ~columns:[ ("name", "name"); ("email", "emailaddress") ]
         with
        | Some result ->
            Format.printf "%a@." Relational.Relation.pp result.shredded
        | None -> prerr_endline "learning failed")
    | 3 ->
        let doc = Benchkit.Xmark.generate ~scale:1.0 ~seed () in
        let annotations =
          Twig.Eval.select (Twig.Parse.query "//person/address") doc
        in
        (match Exchange.Mapping.Xml_to_rdf.run ~doc ~annotations with
        | Some result -> Format.printf "%a@." Exchange.Rdf.pp result.triples
        | None -> prerr_endline "learning failed")
    | 4 ->
        let rng = Core.Prng.create seed in
        let graph = Graphdb.Generators.geo ~rng ~cities:8 () in
        let goal =
          Automata.Dfa.of_regex (Automata.Regex.parse "highway highway*")
        in
        let answers = Graphdb.Rpq.eval goal graph in
        let non_answer =
          List.concat_map
            (fun u -> List.init 8 (fun v -> (u, v)))
            (List.init 8 Fun.id)
          |> List.find (fun p -> not (List.mem p answers))
        in
        let examples =
          List.map (fun p -> (p, true)) (List.filteri (fun i _ -> i < 3) answers)
          @ [ (non_answer, false) ]
        in
        (match Exchange.Mapping.Graph_to_xml.run ~graph ~examples with
        | Some result -> print_string (Xmltree.Print.to_xml result.published)
        | None -> prerr_endline "learning failed")
    | _ -> assert false
  in
  Cmd.v
    (Cmd.info "exchange" ~doc:"Run a Figure-1 data-exchange scenario.")
    Term.(const run $ telemetry_term $ scenario_arg $ seed_term)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let iters_arg =
    Arg.(
      value & opt int 200
      & info [ "iters" ] ~docv:"N" ~doc:"Cases to run per oracle.")
  in
  let oracle_arg =
    Arg.(
      value & opt_all string []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:
            "Run only the named oracle (repeatable; default all — see \
             $(b,--list)).")
  in
  let max_size_arg =
    Arg.(
      value & opt int 10
      & info [ "max-size" ] ~docv:"K"
          ~doc:"Generator size parameter cycles through 1..$(docv).")
  in
  let dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Write minimized counterexample artifacts into $(docv).")
  in
  let replay_arg =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a counterexample artifact: regenerate its input from the \
             recorded seed and re-run its oracle, then exit (0 when the bug \
             no longer reproduces, 1 when it still does).")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List the oracles and exit.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Run the oracles on a pool of $(docv) domains (0 = one per \
             core).  Per-oracle PRNG streams are unchanged, so every oracle \
             sees the same cases at any job count; oracles that flip \
             process-global switches stay on the calling domain.")
  in
  let replay_artifact path =
    let art =
      match Fuzz.Artifact.load path with
      | Ok a -> a
      | Error msg ->
          or_die (Error (Core.Error.invalid_input ~what:"--replay" msg))
    in
    match Fuzz.Runner.replay art with
    | `Unknown_oracle n ->
        or_die
          (Error
             (Core.Error.invalid_input ~what:"--replay"
                (Printf.sprintf "artifact names unknown oracle %S" n)))
    | `Passed ->
        Printf.printf
          "replay %s (oracle %s, seed %d, size %d): PASSED — the recorded \
           bug no longer reproduces\n"
          path art.Fuzz.Artifact.oracle art.Fuzz.Artifact.seed
          art.Fuzz.Artifact.size;
        exit 0
    | `Failed reason ->
        Printf.printf
          "replay %s (oracle %s, seed %d, size %d): STILL FAILING\n  %s\n" path
          art.Fuzz.Artifact.oracle art.Fuzz.Artifact.seed
          art.Fuzz.Artifact.size reason;
        exit 1
  in
  let run () budget seed iters oracle_names max_size dir replay list_ jobs =
    if list_ then begin
      List.iter
        (fun o ->
          Printf.printf "%-18s %s\n" (Fuzz.Oracle.name o) (Fuzz.Oracle.about o))
        Fuzz.Oracle.all;
      exit 0
    end;
    match replay with
    | Some path -> replay_artifact path
    | None ->
        let oracles =
          match oracle_names with
          | [] -> Fuzz.Oracle.all
          | names ->
              List.map
                (fun n ->
                  match Fuzz.Oracle.find n with
                  | Some o -> o
                  | None ->
                      or_die
                        (Error
                           (Core.Error.invalid_input ~what:"--oracle"
                              (Printf.sprintf
                                 "%S is not an oracle (try --list)" n))))
                names
        in
        let jobs =
          if jobs = 0 then Core.Pool.recommended_size () else max 1 jobs
        in
        let report =
          Fuzz.Runner.run ~oracles ~budget ?dir ~max_size ~jobs ~iters ~seed ()
        in
        List.iter
          (fun (s : Fuzz.Runner.stats) ->
            Printf.printf "%-18s %6d runs  %s\n" s.oracle s.runs
              (if s.failures = 0 then "ok" else "FAILED"))
          report.stats;
        List.iter
          (fun (c : Fuzz.Runner.counterexample) ->
            let a = c.artifact in
            Printf.printf
              "\ncounterexample: %s (seed %d, size %d; shrunk to %d nodes in \
               %d steps)\n  %s\n%s"
              a.Fuzz.Artifact.oracle a.Fuzz.Artifact.seed a.Fuzz.Artifact.size
              a.Fuzz.Artifact.shrunk_size a.Fuzz.Artifact.steps
              a.Fuzz.Artifact.reason
              (match c.path with
              | Some p -> Printf.sprintf "  saved: %s (replay with --replay)\n" p
              | None ->
                  Printf.sprintf "  input:\n    %s\n"
                    (String.concat "\n    "
                       (String.split_on_char '\n' a.Fuzz.Artifact.input))))
          report.counterexamples;
        if report.interrupted then begin
          prerr_endline "learnq: fuzzing budget exhausted before completion";
          exit Core.Error.exit_budget
        end;
        if report.counterexamples <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random structured inputs checked against \
          cross-engine oracles, with greedy shrinking and replayable \
          counterexample artifacts.")
    Term.(
      const run $ telemetry_term $ budget_term $ seed_term $ iters_arg
      $ oracle_arg $ max_size_arg $ dir_arg $ replay_arg $ list_arg
      $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")
  in
  let port_arg =
    Arg.(
      value & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "TCP port (0 picks an ephemeral port).  The bound port is \
             announced on stdout as $(b,listening on ADDR:PORT).")
  in
  let state_dir_arg =
    Arg.(
      value & opt string "./learnq-state"
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Session journals live here, one file per session.  On startup \
             every journal in $(docv) is resumed — a killed daemon restarted \
             on the same directory carries on where it died.")
  in
  let serve_pool_arg =
    Arg.(
      value & opt int 2
      & info [ "pool" ] ~docv:"N"
          ~doc:
            "Domains executing session batches (and recovering journals).  \
             Even on one core >1 pays: a session blocked in fsync overlaps \
             with another session's compute.")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 256
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission-queue bound; beyond it requests are shed with 503 + \
             Retry-After.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 128
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Concurrent connections; excess are refused with 503.")
  in
  let io_threads_arg =
    Arg.(
      value & opt int 4
      & info [ "io-threads" ] ~docv:"N"
          ~doc:
            "Worker threads executing request handlers.  The connection \
             multiplexer parks idle keep-alive connections on a poll loop \
             at zero thread cost, so the server's whole I/O thread budget \
             is $(docv)+1 regardless of how many clients stay connected.")
  in
  let max_idle_conns_arg =
    Arg.(
      value & opt int 0
      & info [ "max-idle-conns" ] ~docv:"N"
          ~doc:
            "Cap on parked idle keep-alive connections (0 = unlimited); \
             beyond it the longest-idle are closed first.")
  in
  let request_deadline_arg =
    Arg.(
      value & opt float 30.
      & info [ "request-deadline" ] ~docv:"SECS"
          ~doc:
            "Slow-request deadline: a request whose bytes are still \
             trickling in $(docv) seconds after its first byte gets a 408 \
             and the connection is closed — without ever costing a \
             thread.")
  in
  let tenants_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tenants" ] ~docv:"FILE"
          ~doc:
            "Tenant quota file: one $(b,name max_sessions=N fuel=N \
             timeout=SECS) line per tenant ($(b,#) comments); the \
             $(b,default) line covers unlisted tenants.")
  in
  let step_fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "step-fuel" ] ~docv:"N"
          ~doc:
            "Server-wide fuel budget per learning step (tenant quotas \
             override).  An exhausted step degrades the session — current \
             candidate stands, journal stays resumable.")
  in
  let step_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "step-timeout" ] ~docv:"SECS"
          ~doc:"Server-wide wall-clock budget per learning step.")
  in
  let drain_grace_arg =
    Arg.(
      value & opt float 5.0
      & info [ "drain-grace" ] ~docv:"SECS"
          ~doc:
            "How long a SIGTERM-triggered drain waits for in-flight \
             connections before syncing journals and exiting.")
  in
  let serve_checkpoint_arg =
    Arg.(
      value & opt int 0
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Checkpoint each session's accumulator and compact its journal \
             down to header + snapshot every $(docv) answers (0 = never).  \
             Bounds journal growth and makes resume O(tail) instead of \
             O(history).")
  in
  let max_live_sessions_arg =
    Arg.(
      value & opt int 0
      & info [ "max-live-sessions" ] ~docv:"N"
          ~doc:
            "Keep at most $(docv) sessions live in memory (0 = unlimited); \
             beyond it the least-recently-used are checkpointed, compacted, \
             and closed.  Requests touching an evicted session transparently \
             resume it from its journal.")
  in
  let idle_evict_arg =
    Arg.(
      value & opt float 0.
      & info [ "idle-evict-after" ] ~docv:"SECS"
          ~doc:
            "Evict sessions untouched for $(docv) seconds (0 = never), \
             same checkpoint-then-resume-on-demand lifecycle as \
             $(b,--max-live-sessions).")
  in
  let slow_ms_arg =
    Arg.(
      value & opt float 250.
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Requests taking at least $(docv) milliseconds land in the \
             $(b,/debug/slow) ring (the last 64, with trace ids).")
  in
  let stall_after_arg =
    Arg.(
      value & opt float 30.
      & info [ "stall-after" ] ~docv:"SECS"
          ~doc:
            "Watchdog deadline: a request in flight longer than $(docv) \
             seconds is flagged as stalled (counted in /stats and \
             /metrics, flight recorder dumped) but never killed.")
  in
  let flight_recorder_size_arg =
    Arg.(
      value & opt int 0
      & info [ "flight-recorder-size" ] ~docv:"N"
          ~doc:
            "Total flight-recorder capacity in events (0 keeps the \
             default of 4096).  The recorder is a fixed-size in-memory \
             ring of recent server events, dumped as Chrome-trace JSON \
             on quarantine or watchdog stall and served at \
             $(b,/debug/flightrecorder).")
  in
  let debug_endpoints_arg =
    Arg.(
      value & opt bool true
      & info [ "debug-endpoints" ] ~docv:"BOOL"
          ~doc:
            "Serve the $(b,/debug/*) introspection routes (sessions, \
             tenants, slow, flightrecorder).  Disable on exposed \
             deployments.")
  in
  let run () host port state_dir pool max_queue max_conns io_threads
      max_idle_conns request_deadline tenants_file step_fuel step_timeout
      sync drain_grace checkpoint_every max_live_sessions idle_evict_after
      slow_ms stall_after flight_recorder_size debug_endpoints =
    let tenants =
      match tenants_file with
      | None -> Server.Tenant.make []
      | Some path -> (
          match Server.Tenant.load path with
          | Ok t -> t
          | Error msg ->
              or_die
                (Error (Core.Error.invalid_input ~what:"--tenants" msg)))
    in
    let cfg =
      {
        Server.Daemon.host;
        port;
        state_dir;
        pool;
        max_queue;
        max_conns;
        io_threads;
        max_idle_conns;
        request_deadline;
        sync = Option.value ~default:Core.Journal.Batch sync;
        tenants;
        step_fuel;
        step_timeout;
        drain_grace;
        on_listen =
          (fun p -> Printf.printf "listening on %s:%d\n%!" host p);
        vfs = Core.Vfs.real;
        checkpoint_every;
        max_live_sessions;
        idle_evict_after;
        slow_ms;
        stall_after;
        flight_recorder_size;
        debug_endpoints;
      }
    in
    let daemon = Server.Daemon.create cfg in
    (* SIGTERM/SIGINT start the drain: stop admitting, finish the backlog,
       sync every journal, exit 0.  The handler only flips a flag. *)
    let stop _ = Server.Daemon.drain daemon in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    match Server.Daemon.serve daemon with
    | Ok () -> ()
    | Error msg ->
        or_die (Error (Core.Error.invalid_input ~what:"serve" msg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the multi-tenant session server: thousands of concurrent \
          interactive learning sessions over line-delimited HTTP/JSON, \
          journal-backed so a crash loses nothing, with per-tenant quotas, \
          admission control, and graceful drain on SIGTERM.")
    Term.(
      const run $ telemetry_term $ host_arg $ port_arg $ state_dir_arg
      $ serve_pool_arg $ max_queue_arg $ max_conns_arg $ io_threads_arg
      $ max_idle_conns_arg $ request_deadline_arg $ tenants_arg
      $ step_fuel_arg $ step_timeout_arg $ journal_sync_arg $ drain_grace_arg
      $ serve_checkpoint_arg $ max_live_sessions_arg $ idle_evict_arg
      $ slow_ms_arg $ stall_after_arg $ flight_recorder_size_arg
      $ debug_endpoints_arg)

let () =
  let info =
    Cmd.info "learnq" ~version:"1.0.0"
      ~doc:"Learning queries for relational, semi-structured, and graph databases."
  in
  let group =
    Cmd.group info
      [
        xmark_cmd;
        validate_cmd;
        schema_contain_cmd;
        gen_doc_cmd;
        infer_schema_cmd;
        learn_twig_cmd;
        learn_join_cmd;
        learn_path_cmd;
        exchange_cmd;
        serve_cmd;
        fuzz_cmd;
      ]
  in
  (* ~catch:false: structured failures only, never a raw backtrace. *)
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception Core.Budget.Out_of_budget -> exit Core.Error.exit_budget
  | exception Sys_error msg ->
      Printf.eprintf "learnq: %s\n" msg;
      exit Core.Error.exit_bad_input
  | exception (Xmltree.Parse.Syntax_error msg
              | Twig.Parse.Syntax_error msg
              | Relational.Csv.Syntax_error msg) ->
      Printf.eprintf "learnq: %s\n" msg;
      exit Core.Error.exit_bad_input
  | exception (Failure msg | Invalid_argument msg) ->
      Printf.eprintf "learnq: %s\n" msg;
      exit Core.Error.exit_bad_input
