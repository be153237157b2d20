(* The hot-path performance pass (PR 4): incremental LGG, memoized
   characteristics, the hash-consed containment cache, and the multicore
   determined-scan, measured end-to-end on the interactive learn-twig
   session that BENCH_PR3 profiled ([twig.lgg] was 62% of wall time there).

   Every configuration plays the *same* deterministic session — the
   ablation switches and the pool size change how fast the answers are
   computed, never which questions are asked; [questions_agree] in the
   output asserts it.  The baseline configuration restores the PR 3 code
   paths exactly: batch refold per answer and per probe, no characteristic
   memo, no containment cache, sequential scan.

   Results go to BENCH_PR4.json — machine-readable, for the CI artifact and
   the >= 2x learn-twig speedup gate (target 3x). *)

module T = Core.Telemetry

let time f =
  let t0 = Core.Monotonic.now () in
  let x = f () in
  (x, Core.Monotonic.now () -. t0)

let reps = 5
let warmup = 2

let median xs =
  let a = List.sort compare xs in
  List.nth a (List.length a / 2)

(* ------------------------------------------------------------------ *)
(* Workload: the BENCH_PR3 learn-twig session                          *)
(* ------------------------------------------------------------------ *)

let twig_workload () =
  let doc = Benchkit.Xmark.generate ~scale:1.0 ~seed:1 () in
  let goal = Twig.Parse.query "//person[profile/education]/name" in
  let items = Twiglearn.Interactive.items_of_doc doc in
  let oracle it = Core.Flaky.Label (Twig.Eval.selects_example goal it) in
  fun () ->
    let o =
      Twiglearn.Interactive.Loop.run_flaky ~rng:(Core.Prng.create 1) ~oracle
        ~items ()
    in
    o.Twiglearn.Interactive.Loop.questions

(* ------------------------------------------------------------------ *)
(* Configurations                                                      *)
(* ------------------------------------------------------------------ *)

type config = {
  c_name : string;
  c_batch : bool;  (* refold the positives per answer/probe (PR 3 path) *)
  c_caches : bool;  (* characteristic memo + containment cache *)
  c_pool : int;  (* determined-scan lanes *)
  c_xmlstore : bool;  (* index-backed evaluator (PR 9) vs tree walk *)
}

(* The PR 4 rows keep the tree-walk evaluator — "baseline" restores the
   PR 3 code paths exactly, and the speedup gate compares against the same
   ladder it always has.  The xmlstore row stacks the PR 9 index-backed
   evaluator on top of the best PR 4 configuration; at this document scale
   the session is learner-bound (see bench pr9), so its contribution here
   is visibility, not the gate. *)
let configs =
  [
    { c_name = "baseline"; c_batch = true; c_caches = false; c_pool = 1;
      c_xmlstore = false };
    { c_name = "incremental"; c_batch = false; c_caches = true; c_pool = 1;
      c_xmlstore = false };
    { c_name = "incremental+pool2"; c_batch = false; c_caches = true;
      c_pool = 2; c_xmlstore = false };
    { c_name = "incremental+pool4"; c_batch = false; c_caches = true;
      c_pool = 4; c_xmlstore = false };
    { c_name = "incremental+xmlstore"; c_batch = false; c_caches = true;
      c_pool = 1; c_xmlstore = true };
  ]

let apply c =
  Twiglearn.Interactive.set_batch_lgg c.c_batch;
  Twiglearn.Positive.set_char_cache c.c_caches;
  Twig.Contain.set_filter_cache ~enabled:c.c_caches ();
  Twig.Eval.set_xmlstore c.c_xmlstore;
  Core.Pool.set_default_size c.c_pool

let restore_defaults () =
  Twiglearn.Interactive.set_batch_lgg false;
  Twiglearn.Positive.set_char_cache true;
  Twig.Contain.set_filter_cache ~enabled:true ();
  Twig.Eval.set_xmlstore true;
  Core.Pool.set_default_size 1

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type span_line = { s_name : string; s_count : int; s_total : float; s_self : float }

type result = {
  r_config : config;
  r_questions : int;
  r_median_s : float;
  r_lgg_spans : span_line list;  (* twig.lgg / twig.lgg.inc aggregates *)
  r_lgg_calls : int;  (* batch refolds *)
  r_inc_calls : int;  (* incremental merges *)
  r_char_hits : int;
  r_char_misses : int;
  r_contain_hits : int;
  r_contain_misses : int;
}

let counter_value name = T.Metrics.counter_value (T.Metrics.counter name)

let measure run c =
  apply c;
  (* Timed reps run in the default mode (flight ring only) — we are
     measuring the engine, not the instrumentation (BENCH_PR3's subject). *)
  T.set_mode T.Ring;
  let questions = ref 0 in
  for _ = 1 to warmup do
    questions := run ()
  done;
  let median_s =
    median
      (List.init reps (fun _ ->
           let q, dt = time run in
           questions := q;
           dt))
  in
  (* One instrumented run for the span/counter evidence: where did the
     [twig.lgg] self-time go? *)
  T.reset ();
  T.set_mode T.Full;
  ignore (run ());
  if Sys.getenv_opt "LEARNQ_PR4_SPANS" <> None then begin
    Printf.printf "pr4: spans for %s:\n" c.c_name;
    List.iteri
      (fun i (name, count, total, self) ->
        if i < 12 then
          Printf.printf "pr4:   %-28s n=%-6d total %7.1f ms, self %7.1f ms\n"
            name count (total *. 1e3) (self *. 1e3))
      (T.span_aggregates ())
  end;
  let lgg_spans =
    T.span_aggregates ()
    |> List.filter_map (fun (s_name, s_count, s_total, s_self) ->
           if s_name = "twig.lgg" || s_name = "twig.lgg.inc" then
             Some { s_name; s_count; s_total; s_self }
           else None)
  in
  let r =
    {
      r_config = c;
      r_questions = !questions;
      r_median_s = median_s;
      r_lgg_spans = lgg_spans;
      r_lgg_calls = counter_value "learnq.twiglearn.lgg_calls";
      r_inc_calls = counter_value "learnq.twiglearn.lgg_inc_calls";
      r_char_hits = counter_value "learnq.twiglearn.char_cache_hits";
      r_char_misses = counter_value "learnq.twiglearn.char_cache_misses";
      r_contain_hits = counter_value "learnq.twig.contain_cache_hits";
      r_contain_misses = counter_value "learnq.twig.contain_cache_misses";
    }
  in
  T.reset ();
  restore_defaults ();
  r

(* ------------------------------------------------------------------ *)
(* JSON emission                                                       *)
(* ------------------------------------------------------------------ *)

let output = "BENCH_PR4.json"

let span_json s =
  Printf.sprintf
    {|        { "name": %S, "count": %d, "total_s": %.6f, "self_s": %.6f }|}
    s.s_name s.s_count s.s_total s.s_self

let result_json ~baseline_s r =
  Printf.sprintf
    {|    { "config": %S, "batch_lgg": %b, "caches": %b, "pool": %d,
      "xmlstore": %b,
      "questions": %d, "median_s": %.6f, "speedup": %.2f,
      "lgg_refolds": %d, "lgg_incremental_merges": %d,
      "char_cache": { "hits": %d, "misses": %d },
      "contain_cache": { "hits": %d, "misses": %d },
      "lgg_spans": [
%s
      ] }|}
    r.r_config.c_name r.r_config.c_batch r.r_config.c_caches r.r_config.c_pool
    r.r_config.c_xmlstore r.r_questions r.r_median_s
    (if r.r_median_s > 0. then baseline_s /. r.r_median_s else 0.)
    r.r_lgg_calls r.r_inc_calls r.r_char_hits r.r_char_misses r.r_contain_hits
    r.r_contain_misses
    (String.concat ",\n" (List.map span_json r.r_lgg_spans))

let run () =
  let run_session = twig_workload () in
  let results = List.map (measure run_session) configs in
  let baseline =
    match results with r :: _ -> r | [] -> assert false
  in
  let baseline_s = baseline.r_median_s in
  let best =
    List.fold_left
      (fun acc r -> if r.r_median_s < acc.r_median_s then r else acc)
      baseline results
  in
  let speedup_best =
    if best.r_median_s > 0. then baseline_s /. best.r_median_s else 0.
  in
  let questions_agree =
    List.for_all (fun r -> r.r_questions = baseline.r_questions) results
  in
  let span_self name r =
    List.fold_left
      (fun acc s -> if s.s_name = name then acc +. s.s_self else acc)
      0. r.r_lgg_spans
  in
  let json =
    Printf.sprintf
      {|{
  "bench": "pr4_hot_path",
  "generated_by": "dune exec bench/main.exe -- pr4",
  "workload": "learn-twig, xmark scale 1.0 seed 1, //person[profile/education]/name",
  "reps_per_point": %d,
  "warmup_per_point": %d,
  "configs": [
%s
  ],
  "questions": %d,
  "questions_agree": %b,
  "baseline_s": %.6f,
  "best_config": %S,
  "speedup_twig": %.2f,
  "speedup_twig_ok": %b,
  "speedup_twig_target_3x": %b,
  "lgg_self_s_baseline": %.6f,
  "lgg_self_s_optimized": %.6f
}
|}
      reps warmup
      (String.concat ",\n" (List.map (result_json ~baseline_s) results))
      baseline.r_questions questions_agree baseline_s best.r_config.c_name
      speedup_best
      (questions_agree && speedup_best >= 2.0)
      (speedup_best >= 3.0)
      (span_self "twig.lgg" baseline)
      (span_self "twig.lgg.inc" best +. span_self "twig.lgg" best)
  in
  let oc = open_out output in
  output_string oc json;
  close_out oc;
  List.iter
    (fun r ->
      Printf.printf
        "pr4: %-18s %4d questions — %7.1f ms (%.2fx); %d refolds, %d merges\n"
        r.r_config.c_name r.r_questions (r.r_median_s *. 1e3)
        (if r.r_median_s > 0. then baseline_s /. r.r_median_s else 0.)
        r.r_lgg_calls r.r_inc_calls)
    results;
  Printf.printf "pr4: best %s at %.2fx (gate >= 2x: %b); wrote %s\n"
    best.r_config.c_name speedup_best
    (questions_agree && speedup_best >= 2.0)
    output
