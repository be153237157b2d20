(* The hot path of interactive twig learning: incremental LGG and the spine
   precheck of each determined-probe, measured end-to-end on the
   interactive learn-twig session that BENCH_PR3 profiled ([twig.lgg] was
   62% of wall time there).

   Both rows play the *same* deterministic session — the session module
   changes how fast the answers are computed, never which questions are
   asked; [questions_agree] in the output asserts it.  The baseline row is
   the reference session, [Interactive.Batch], which refolds the positives
   per answer and per probe.  Both rows run on the index-backed evaluator.

   Each row times repeats of one session in one process.  No learner memo
   carries over between reps; only the [Twig.Eval] probe cache does, so a
   later rep can reuse the evaluation masks an earlier rep computed.

   Results go to BENCH_PR4.json — machine-readable, for the CI artifact and
   the >= 2x learn-twig speedup gate (target 3x). *)

module T = Core.Telemetry
module TI = Twiglearn.Interactive

let reps = 5
let warmup = 2

(* ------------------------------------------------------------------ *)
(* Workload: the BENCH_PR3 learn-twig session                          *)
(* ------------------------------------------------------------------ *)

type config = {
  c_name : string;
  c_batch : bool;  (* the reference session, [Interactive.Batch] *)
}

let configs =
  [
    { c_name = "baseline"; c_batch = true };
    { c_name = "incremental"; c_batch = false };
  ]

(* [twig_workload () c ()] plays one session under [c] and returns the
   number of questions asked. *)
let twig_workload () =
  let doc = Benchkit.Xmark.generate ~scale:1.0 ~seed:1 () in
  let goal = Twig.Parse.query "//person[profile/education]/name" in
  let items = TI.items_of_doc doc in
  let oracle it = Core.Flaky.Label (Twig.Eval.selects_example goal it) in
  fun c () ->
    let rng = Core.Prng.create 1 in
    if c.c_batch then (TI.Batch.Loop.run_flaky ~rng ~oracle ~items ()).questions
    else (TI.Loop.run_flaky ~rng ~oracle ~items ()).questions

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
}

let counter_value name = T.Metrics.counter_value (T.Metrics.counter name)

let measure workload c =
  let run = workload c in
  (* Timed reps run in the default mode (flight ring only) — we are
     measuring the engine, not the instrumentation (BENCH_PR3's subject). *)
  T.set_mode T.Ring;
  let questions = ref 0 in
  for _ = 1 to warmup do
    questions := run ()
  done;
  let median_s =
    Util.median
      (List.init reps (fun _ ->
           let q, dt = Util.time run in
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
    }
  in
  T.reset ();
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
    {|    { "config": %S, "batch_lgg": %b,
      "questions": %d, "median_s": %.6f, "speedup": %.2f,
      "lgg_refolds": %d, "lgg_incremental_merges": %d,
      "lgg_spans": [
%s
      ] }|}
    r.r_config.c_name r.r_config.c_batch r.r_questions r.r_median_s
    (if r.r_median_s > 0. then baseline_s /. r.r_median_s else 0.)
    r.r_lgg_calls r.r_inc_calls
    (String.concat ",\n" (List.map span_json r.r_lgg_spans))

let run () =
  let workload = twig_workload () in
  let results = List.map (measure workload) configs in
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
