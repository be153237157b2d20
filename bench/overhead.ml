(* The cost of observability (PR-3): what the telemetry layer adds to each
   interactive engine, measured two ways.

   - Disabled path: the default mode, which a CLI run without --trace,
     --metrics or --summary pays.  Engine metrics are off, so a counter is
     one mode load and branch; spans still write their begin/end events to
     the flight ring.  We measure both per-call residues directly in a
     tight loop, then scale them by the number of instrumentation events
     each engine actually fires (read back from the enabled run's own
     counters) to estimate the disabled overhead as a fraction of the
     engine's runtime.
   - Enabled path: median wall-clock of the full session with spans + metrics
     recording ([Full] mode), against the disabled median.

   Results go to BENCH_PR3.json — machine-readable, for the CI artifact and
   the <5% disabled-overhead gate. *)

module T = Core.Telemetry

let reps = 5

(* Untimed runs before each timed block.  One warm run proved not to be
   enough: BENCH_PR3 occasionally reported *negative* enabled overheads
   because the disabled block, measured first, was still paying allocator
   and minor-heap warmup that the enabled block then inherited for free. *)
let warmup = 2

(* ------------------------------------------------------------------ *)
(* The disabled fast path, in isolation                                *)
(* ------------------------------------------------------------------ *)

let disabled_incr_ns () =
  T.set_mode T.Ring;
  let c = T.Metrics.counter "bench.overhead.disabled" in
  let n = 20_000_000 in
  let (), dt =
    Util.time (fun () ->
        for _ = 1 to n do
          T.Metrics.incr c
        done)
  in
  dt /. float_of_int n *. 1e9

let disabled_span_ns () =
  T.set_mode T.Ring;
  let n = 5_000_000 in
  let (), dt =
    Util.time (fun () ->
        for _ = 1 to n do
          T.with_span "bench.overhead.span" ignore
        done)
  in
  dt /. float_of_int n *. 1e9

(* The shadow-counter technique (a plain int incremented in the hot path,
   flushed into the registry at question boundaries — see
   Joinlearn.Join.Version_space): its per-event cost is a local load/add/store. *)
let shadow_ns () =
  let r = ref 0 in
  let n = 50_000_000 in
  let (), dt =
    Util.time (fun () ->
        for _ = 1 to n do
          incr r
        done)
  in
  ignore (Sys.opaque_identity !r);
  dt /. float_of_int n *. 1e9

(* ------------------------------------------------------------------ *)
(* Per-engine sessions                                                 *)
(* ------------------------------------------------------------------ *)

(* The same three E-workload sessions BENCH_PR2 times, minus the journal:
   each [run] plays one full deterministic interactive session. *)

let twig_engine () =
  let doc = Benchkit.Xmark.generate ~scale:1.0 ~seed:1 () in
  let goal = Twig.Parse.query "//person[profile/education]/name" in
  let items = Twiglearn.Interactive.items_of_doc doc in
  let oracle it = Core.Flaky.Label (Twig.Eval.selects_example goal it) in
  ( "learn-twig",
    fun () ->
      let o =
        Twiglearn.Interactive.Loop.run_flaky ~rng:(Core.Prng.create 1) ~oracle
          ~items ()
      in
      o.questions )

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
  ( "learn-join",
    fun () ->
      let o =
        Joinlearn.Interactive.Loop.run_flaky ~rng:(Core.Prng.create 1)
          ~strategy:Joinlearn.Interactive.lattice_strategy ~oracle ~items ()
      in
      o.questions )

let path_engine () =
  let rng = Core.Prng.create 1 in
  let graph = Graphdb.Generators.geo ~rng ~cities:14 () in
  let goal = Automata.Dfa.of_regex (Automata.Regex.parse "highway highway*") in
  let items = Pathlearn.Interactive.items_of_graph ~max_len:3 ~rng graph in
  let oracle (it : Pathlearn.Interactive.item) =
    Core.Flaky.Label (Automata.Dfa.accepts goal it.word)
  in
  ( "learn-path",
    fun () ->
      let o =
        Pathlearn.Interactive.Loop.run_flaky ~rng:(Core.Prng.create 1) ~oracle
          ~items ()
      in
      o.questions )

type span_line = { s_name : string; s_count : int; s_total : float; s_self : float }

type engine_result = {
  name : string;
  questions : int;
  disabled_s : float;
  enabled_s : float;
  enabled_overhead : float;
  counter_events : int;
  shadow_events : int;
  span_events : int;
  disabled_overhead_est : float;
  top_spans : span_line list;
}

(* Counters whose call sites pay the disabled-check branch per event.  The
   join signature-test counter is shadow-counted instead (plain int in the
   hot path, flushed per question), so it is costed separately. *)
let branch_counters =
  [
    "learnq.interact.questions";
    "learnq.interact.replayed";
    "learnq.interact.retried";
    "learnq.twig.contain_calls";
    "learnq.twig.filter_contain_calls";
    "learnq.twig.semantic_contain_calls";
    "learnq.twiglearn.lgg_calls";
    "learnq.twiglearn.candidates";
    "learnq.twiglearn.consistency_checks";
    "learnq.twiglearn.items";
    "learnq.join.rows_labeled";
    "learnq.join.signatures";
    "learnq.semijoin.rows_labeled";
    "learnq.semijoin.signature_tests";
    "learnq.path.words_labeled";
    "learnq.path.walks";
  ]

let shadow_counters = [ "learnq.join.signature_tests" ]

let measure ~incr_ns ~span_ns ~sh_ns (name, run) =
  (* Warm caches and allocators outside the timed region — separately for
     each mode, so neither block pays the other's warmup.  [reset] leaves
     the default mode, which the disabled block measures. *)
  T.reset ();
  for _ = 1 to warmup do
    ignore (run ())
  done;
  let disabled_s =
    Util.median
      (List.init reps (fun _ ->
           let _, dt = Util.time run in
           dt))
  in
  (* Enabled: reset between reps so each run records the same session; the
     last rep's registry is the one we read back. *)
  let questions = ref 0 in
  for _ = 1 to warmup do
    T.reset ();
    T.set_mode T.Full;
    ignore (run ())
  done;
  let enabled_s =
    Util.median
      (List.init reps (fun _ ->
           T.reset ();
           T.set_mode T.Full;
           let q, dt = Util.time run in
           questions := q;
           dt))
  in
  (* Instrumentation event counts from the run's own registry (the registry
     has no fold; missing names register fresh zero counters — harmless).
     Bulk [incr ~by] counts once per unit here, so the estimate errs high. *)
  let sum names =
    List.fold_left
      (fun acc n -> acc + T.Metrics.counter_value (T.Metrics.counter n))
      0 names
  in
  let counter_events = sum branch_counters in
  let shadow_events = sum shadow_counters in
  let aggregates = T.span_aggregates () in
  let span_events = List.fold_left (fun acc (_, n, _, _) -> acc + n) 0 aggregates in
  let top_spans =
    List.filteri (fun i _ -> i < 5)
      (List.map
         (fun (s_name, s_count, s_total, s_self) ->
           { s_name; s_count; s_total; s_self })
         aggregates)
  in
  T.reset ();
  let disabled_cost_s =
    (float_of_int counter_events *. incr_ns
    +. float_of_int shadow_events *. sh_ns
    +. float_of_int span_events *. span_ns)
    /. 1e9
  in
  {
    name;
    questions = !questions;
    disabled_s;
    enabled_s;
    enabled_overhead =
      (if disabled_s > 0. then (enabled_s -. disabled_s) /. disabled_s else 0.);
    counter_events;
    shadow_events;
    span_events;
    disabled_overhead_est =
      (if disabled_s > 0. then disabled_cost_s /. disabled_s else 0.);
    top_spans;
  }

(* ------------------------------------------------------------------ *)
(* JSON emission                                                       *)
(* ------------------------------------------------------------------ *)

let output = "BENCH_PR3.json"

let span_json s =
  Printf.sprintf
    {|        { "name": %S, "count": %d, "total_s": %.6f, "self_s": %.6f }|}
    s.s_name s.s_count s.s_total s.s_self

let engine_json e =
  Printf.sprintf
    {|    { "engine": %S, "questions": %d,
      "disabled_s": %.6f, "enabled_s": %.6f, "enabled_overhead": %.4f,
      "counter_events": %d, "shadow_events": %d, "span_events": %d,
      "disabled_overhead_est": %.6f,
      "top_spans": [
%s
      ] }|}
    e.name e.questions e.disabled_s e.enabled_s e.enabled_overhead
    e.counter_events e.shadow_events e.span_events e.disabled_overhead_est
    (String.concat ",\n" (List.map span_json e.top_spans))

let run () =
  let incr_ns = disabled_incr_ns () in
  let span_ns = disabled_span_ns () in
  let sh_ns = shadow_ns () in
  let engines =
    List.map
      (fun mk -> measure ~incr_ns ~span_ns ~sh_ns (mk ()))
      [ twig_engine; join_engine; path_engine ]
  in
  let worst f = List.fold_left (fun acc e -> Float.max acc (f e)) 0. engines in
  let disabled_max = worst (fun e -> e.disabled_overhead_est) in
  let enabled_max = worst (fun e -> e.enabled_overhead) in
  let json =
    Printf.sprintf
      {|{
  "bench": "pr3_telemetry_overhead",
  "generated_by": "dune exec bench/main.exe -- pr3",
  "reps_per_point": %d,
  "warmup_per_point": %d,
  "disabled_path": {
    "incr_ns_per_call": %.2f,
    "span_ns_per_call": %.2f,
    "shadow_ns_per_event": %.2f
  },
  "engines": [
%s
  ],
  "disabled_overhead_est_max": %.6f,
  "disabled_overhead_under_5pct": %b,
  "enabled_overhead_max": %.4f,
  "enabled_overhead_under_10pct": %b
}
|}
      reps warmup incr_ns span_ns sh_ns
      (String.concat ",\n" (List.map engine_json engines))
      disabled_max
      (disabled_max < 0.05)
      enabled_max
      (enabled_max < 0.10)
  in
  let oc = open_out output in
  output_string oc json;
  close_out oc;
  Printf.printf
    "pr3: disabled fast path — incr %.1f ns/call, span %.1f ns/call, shadow \
     %.1f ns/event\n"
    incr_ns span_ns sh_ns;
  List.iter
    (fun e ->
      Printf.printf
        "pr3: %-10s %4d questions — disabled %.1f ms, enabled %.1f ms \
         (%+.1f%%); %d counter + %d shadow + %d span events, disabled \
         overhead est %.3f%%\n"
        e.name e.questions (e.disabled_s *. 1e3) (e.enabled_s *. 1e3)
        (e.enabled_overhead *. 100.)
        e.counter_events e.shadow_events e.span_events
        (e.disabled_overhead_est *. 100.))
    engines;
  Printf.printf "pr3: wrote %s\n" output
