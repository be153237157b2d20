(* The xmlstore performance pass (PR 9), two claims, both CI-gated:

   Phase A — indexing beats walking.  Learn-twig's query trajectory
   (XMark scale 10, the BENCH_PR3/PR4 goal query) runs through the
   index-backed evaluator (containment labels + inverted name lists +
   structural joins) and through the bottom-up tree walk, [select_walk].
   Gate: indexed >= 5x, with identical answers, and a full indexed session
   whose question transcript matches the tree-walk reference — the
   evaluator must be invisible to the learner.

   Phase B — parallelism at the right granularity.  BENCH_PR4 is honest
   that pool > 1 *loses* on the probe loop once probes are O(1); the shard
   is the granularity that pays.  A corpus of XMark documents runs the
   whole per-shard pipeline — label, persist with fsync, validate against
   the XMark schema, evaluate the query set — on 1 lane and on 2, chunked
   dispatch, one shard per claim.  Lanes own whole shards, so compute on
   one shard overlaps both the fsync and the compute of another, and the
   merged verdict vector is byte-equal at every pool size.  Gate:
   pool=2 wall-clock < pool=1, verdicts identical.

   Results go to BENCH_PR9.json for the CI artifact. *)

module TI = Twiglearn.Interactive
module Store = Xmlstore.Store
module Twigjoin = Xmlstore.Twigjoin

let env_float name default =
  match Option.bind (Sys.getenv_opt name) float_of_string_opt with
  | Some v when v > 0. -> v
  | _ -> default

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some v when v > 0 -> v
  | _ -> default

let output = "BENCH_PR9.json"

(* ------------------------------------------------------------------ *)
(* Phase A: indexed vs tree-walk on learn-twig's evaluation workload   *)
(* ------------------------------------------------------------------ *)

(* The interactive session clock cannot see the evaluator: profiling
   (LEARNQ_PR9_PROFILE=1) shows that at scale 10 all but a few dozen of
   the ~115k probe evaluations hit the per-session mask cache, and the
   remaining wall time is learner machinery (consistency probes, the LGG
   memo).  What the evaluator does carry is learn-twig's *query
   trajectory*: the goal query (answer extraction, candidate checks) and
   the LGG candidates the learner emits as its positive-example prefix
   grows.  Phase A reconstructs that trajectory, runs it through the
   index-backed evaluator and through the reference tree walk, and gates
   on indexed >= 5x with identical answers per query.

   That the evaluator is invisible to the learner itself is checked with
   a full indexed session at a smaller scale (XMark scale 4, seed 1), where
   session wall time is dominated by the learner either way.  Its
   transcript and final query must equal those of a tree-walk session run
   alone in its process, recorded below when the walk was still a session
   mode: 713 questions. *)

let session_scale = 4.0
let walk_transcript_digest = "469cd2fa29411fe2c51c17ac530365f4"

let walk_final_query =
  "/site[categories/category[@id][description//text]/name][catgraph]\
   [closed_auctions/closed_auction[buyer/@person][date][itemref/@item]\
   [price][quantity][seller/@person]/type][open_auctions/open_auction[@id]\
   [current][initial][interval[end]/start][itemref/@item][quantity]\
   [seller/@person]/type][regions[africa/item[@id][description//text]\
   [location][name][payment][quantity]/shipping][asia/item[@id]\
   [description//text][location][name][payment][quantity]/shipping]\
   [australia/item[@id][description//text][location][name][payment]\
   [quantity]/shipping][europe/item[@id][description//text][location]\
   [name][payment][quantity]/shipping][namerica/item[@id]\
   [description//text][location][name][payment][quantity]/shipping]\
   /samerica/item[@id][description//text][location][name][payment]\
   [quantity]/shipping]/people/person[@id][emailaddress]\
   [profile[@income][business]/education]/name"

type session_result = {
  s_questions : int;
  s_digest : string;  (* MD5 of the "<path> +|-" lines of the transcript *)
  s_query : string;
}

let run_session ~doc ~goal () =
  let o = TI.run_with_goal ~rng:(Core.Prng.create 1) ~doc ~goal () in
  {
    s_questions = o.TI.Loop.questions;
    s_digest =
      o.TI.Loop.asked
      |> List.map (fun (it, ans) ->
             TI.encode_item it ^ if ans then " +" else " -")
      |> String.concat "\n" |> Digest.string |> Digest.to_hex;
    s_query =
      (match o.TI.Loop.query with
      | Some q -> Twig.Query.to_string q
      | None -> "<none>");
  }

(* The queries learn-twig evaluates on [doc] while learning [goal]: the
   goal itself plus the LGG candidate after every positive-example
   prefix, deduplicated (consecutive prefixes often generalize to the
   same query). *)
let trajectory ~doc ~goal =
  let answers = Twig.Eval.select_walk goal doc in
  let positives = List.map (fun p -> Xmltree.Annotated.make doc p) answers in
  let seen = Hashtbl.create 16 in
  let keep q =
    let s = Twig.Query.to_string q in
    if Hashtbl.mem seen s then false
    else begin
      Hashtbl.add seen s ();
      true
    end
  in
  let cands = ref [] in
  let prefix = ref [] in
  List.iter
    (fun ex ->
      prefix := ex :: !prefix;
      match Twiglearn.Positive.learn_positive (List.rev !prefix) with
      | Some q when keep q -> cands := q :: !cands
      | _ -> ())
    positives;
  ignore (keep goal);
  goal :: List.rev !cands

let phase_a () =
  let scale = env_float "LEARNQ_PR9_SCALE" 10.0 in
  let doc = Benchkit.Xmark.generate ~scale ~seed:1 () in
  let goal = Twig.Parse.query "//person[profile/education]/name" in
  let reps = env_int "LEARNQ_PR9_REPS" 5 in
  let passes = env_int "LEARNQ_PR9_PASSES" 10 in
  let queries = trajectory ~doc ~goal in
  let d = Twig.Eval.index doc in
  let run_indexed () =
    for _ = 1 to passes do
      List.iter (fun q -> ignore (Twig.Eval.select_doc d q)) queries
    done
  in
  let run_walk () =
    for _ = 1 to passes do
      List.iter (fun q -> ignore (Twig.Eval.select_walk q doc)) queries
    done
  in
  (* Answers must agree query by query before any timing matters. *)
  let answers_agree =
    List.for_all
      (fun q -> Twig.Eval.select_doc d q = Twig.Eval.select_walk q doc)
      queries
  in
  (* Warm both paths (builds and caches the labeled store), then time. *)
  run_indexed ();
  run_walk ();
  let idx_s =
    Util.median (List.init reps (fun _ -> snd (Util.time run_indexed)))
  in
  let walk_s =
    Util.median (List.init reps (fun _ -> snd (Util.time run_walk)))
  in
  (* Transcript equality against the recorded tree-walk session. *)
  let sdoc = Benchkit.Xmark.generate ~scale:session_scale ~seed:1 () in
  let r_idx = run_session ~doc:sdoc ~goal () in
  let transcripts_agree =
    r_idx.s_digest = walk_transcript_digest
    && r_idx.s_query = walk_final_query
  in
  ( Xmltree.Tree.size doc,
    scale,
    List.length queries,
    passes,
    idx_s,
    walk_s,
    answers_agree,
    r_idx,
    transcripts_agree )

(* ------------------------------------------------------------------ *)
(* Phase B: the sharded-corpus pipeline, pool 1 vs pool 2              *)
(* ------------------------------------------------------------------ *)

let query_texts =
  [
    "//person[profile/education]/name";
    "//people/person[address]/name";
    "//item[payment]/name";
    "//closed_auction[annotation]/price";
    "//category/name";
  ]

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* One lane's work for one shard: label, persist (fsync), validate,
   evaluate.  Returns the shard verdict. *)
let shard_job ~state_dir ~patterns ~eval_rounds tag i tree =
  let store = Store.of_tree tree in
  let path =
    Filename.concat state_dir (Printf.sprintf "%s-shard%02d.lqx" tag i)
  in
  Store.save ~fsync:true store path;
  let valid = Uschema.Schema.valid Benchkit.Xmark.schema tree in
  let counts =
    List.map
      (fun pat ->
        let c = ref 0 in
        for _ = 1 to eval_rounds do
          c := Array.length (Twigjoin.select_array store pat)
        done;
        !c)
      patterns
  in
  (i, valid, counts)

(* Minor collections are stop-the-world across domains in OCaml 5: with
   the default ~256k-word nursery, an allocation-heavy pipeline on two
   domains synchronizes every fraction of a millisecond, which on few
   cores costs more than the parallelism wins.  The nursery can only be
   sized at startup (runtime [Gc.set] does not resize it in 5.1), so when
   the harness was launched without an [s=] component in OCAMLRUNPARAM we
   re-exec ourselves once with a roomy one — the same setting for pool=1
   and pool=2, so the comparison stays fair.  Only done when pr9 was
   requested explicitly, to avoid restarting a full-suite run. *)
let ensure_nursery () =
  let param = Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"" in
  let has_s =
    String.split_on_char ',' param
    |> List.exists (fun kv ->
           String.length kv >= 2 && kv.[0] = 's' && kv.[1] = '=')
  in
  if (not has_s) && Array.exists (String.equal "pr9") Sys.argv then begin
    Unix.putenv "OCAMLRUNPARAM"
      (if param = "" then "s=8M" else param ^ ",s=8M");
    try Unix.execv Sys.executable_name Sys.argv
    with Unix.Unix_error _ -> ()
  end

let profile_b () =
  let cscale = env_float "LEARNQ_PR9_CORPUS_SCALE" 8.0 in
  let tree = Benchkit.Xmark.generate ~scale:cscale ~seed:100 () in
  let patterns =
    List.map (fun s -> Twig.Eval.to_pattern (Twig.Parse.query s)) query_texts
  in
  let dir = "pr9-profile-b" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  for rep = 1 to 3 do
    let store, t_label = Util.time (fun () -> Store.of_tree tree) in
    let path = Filename.concat dir (Printf.sprintf "r%d.lqx" rep) in
    let (), t_save = Util.time (fun () -> Store.save ~fsync:true store path) in
    let _, t_valid =
      Util.time (fun () -> Uschema.Schema.valid Benchkit.Xmark.schema tree)
    in
    let _, t_eval =
      Util.time (fun () ->
          for _ = 1 to 10 do
            List.iter
              (fun pat -> ignore (Twigjoin.select_array store pat))
              patterns
          done)
    in
    Printf.printf
      "pr9-profile-b: label %5.2f ms  save+fsync %5.2f ms  validate %5.2f ms  \
       eval(10 rounds) %5.2f ms  (file %d bytes)\n"
      (t_label *. 1e3) (t_save *. 1e3) (t_valid *. 1e3) (t_eval *. 1e3)
      (Unix.stat path).Unix.st_size
  done;
  rm_rf dir

let phase_b () =
  (* Phase isolation: phase A leaves a large, mostly dead major heap (the
     scale-10 document, eval structures, session state).  Its concurrent
     marking runs on into phase B, and the mark-slice barriers synchronize
     every domain — which on few cores reliably erases pool=2's overlap
     win.  Collect and compact before the pools exist so both pool sizes
     start from the same small heap. *)
  Gc.compact ();
  let shards = env_int "LEARNQ_PR9_SHARDS" 16 in
  let cscale = env_float "LEARNQ_PR9_CORPUS_SCALE" 8.0 in
  let eval_rounds = env_int "LEARNQ_PR9_EVAL_ROUNDS" 10 in
  let reps = env_int "LEARNQ_PR9_REPS" 7 in
  let state_dir =
    Option.value (Sys.getenv_opt "LEARNQ_PR9_STATE") ~default:"pr9-state"
  in
  (try Unix.mkdir state_dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let trees =
    Array.init shards (fun i ->
        Benchkit.Xmark.generate ~scale:cscale ~seed:(100 + i) ())
  in
  let patterns =
    List.map (fun s -> Twig.Eval.to_pattern (Twig.Parse.query s)) query_texts
  in
  let idx = Array.init shards Fun.id in
  let pool1 = Core.Pool.create 1 in
  let pool2 = Core.Pool.create 2 in
  let go pool tag () =
    Core.Pool.map_array_chunked pool ~chunk:1
      (fun i -> shard_job ~state_dir ~patterns ~eval_rounds tag i trees.(i))
      idx
  in
  let go1 = go pool1 "pool1" and go2 = go pool2 "pool2" in
  (* Warm both (page cache, shard files, domain spin-up), then interleave
     the timed reps so drift (CPU frequency, dirty-page writeback) hits
     both pool sizes alike. *)
  let v1 = go1 () in
  let v2 = go2 () in
  let times1 = ref [] and times2 = ref [] in
  for _ = 1 to reps do
    times1 := snd (Util.time go1) :: !times1;
    times2 := snd (Util.time go2) :: !times2
  done;
  Core.Pool.shutdown pool1;
  Core.Pool.shutdown pool2;
  let t1 = Util.median !times1 and t2 = Util.median !times2 in
  (* Persistence really round-trips: reload shard 0 from disk and re-run
     the query set on the reloaded store. *)
  let reload_matches =
    let path = Filename.concat state_dir "pool1-shard00.lqx" in
    match Store.load path with
    | Error _ -> false
    | Ok store ->
        let counts =
          List.map
            (fun pat -> Array.length (Twigjoin.select_array store pat))
            patterns
        in
        (match v1.(0) with (_, _, c0) -> c0 = counts)
  in
  rm_rf state_dir;
  let nodes = Array.fold_left (fun a t -> a + Xmltree.Tree.size t) 0 trees in
  (shards, cscale, eval_rounds, nodes, v1, t1, v2, t2, reload_matches)

(* ------------------------------------------------------------------ *)

let verdict_json (i, valid, counts) =
  Printf.sprintf {|    { "shard": %d, "valid": %b, "matches": [%s] }|} i valid
    (String.concat ", " (List.map string_of_int counts))

(* Diagnostic mode (LEARNQ_PR9_PROFILE=1): span and counter breakdown of
   one instrumented session, plus a select-only microbench of the joins
   against the tree walk. *)
let profile () =
  let module T = Core.Telemetry in
  let scale = env_float "LEARNQ_PR9_SCALE" 10.0 in
  let doc = Benchkit.Xmark.generate ~scale ~seed:1 () in
  let goal = Twig.Parse.query "//person[profile/education]/name" in
  T.reset ();
  T.set_mode T.Full;
  let _, dt = Util.time (run_session ~doc ~goal) in
  T.set_mode T.Ring;
  Printf.printf "pr9-profile: session %.1f ms\n" (dt *. 1e3);
  List.iteri
    (fun i (name, count, total, self) ->
      if i < 10 then
        Printf.printf
          "pr9-profile:   %-28s n=%-7d total %8.1f ms self %8.1f ms\n" name
          count (total *. 1e3) (self *. 1e3))
    (T.span_aggregates ());
  List.iter
    (fun c ->
      Printf.printf "pr9-profile:   %-40s %d\n" c
        (T.Metrics.counter_value (T.Metrics.counter c)))
    [ "learnq.twig.eval_cache_hits"; "learnq.twig.eval_cache_misses";
      "learnq.twig.join_evals" ];
  T.reset ();
  let sel q tag =
    let query = Twig.Parse.query q in
    let d = Twig.Eval.index doc in
    List.iter
      (fun (mode, select) ->
        ignore (select ());
        let _, dt =
          Util.time (fun () ->
              for _ = 1 to 100 do
                ignore (select ())
              done)
        in
        Printf.printf "pr9-profile: select %s %-10s 100x = %7.1f ms\n" tag mode
          (dt *. 1e3))
      [ ("indexed", fun () -> Twig.Eval.select_doc d query);
        ("walk", fun () -> Twig.Eval.select_walk query doc) ]
  in
  sel "//person[profile/education]/name" "goal  ";
  sel "//*[*/*]/*" "wild  "

let run () =
  ensure_nursery ();
  if Sys.getenv_opt "LEARNQ_PR9_PROFILE" <> None then profile ();
  if Sys.getenv_opt "LEARNQ_PR9_PROFILE_B" <> None then profile_b ();
  let ( doc_nodes,
        scale,
        n_queries,
        passes,
        idx_s,
        walk_s,
        answers_agree,
        r_idx,
        transcripts_agree ) =
    phase_a ()
  in
  let speedup = if idx_s > 0. then walk_s /. idx_s else 0. in
  let indexed_ok = answers_agree && transcripts_agree && speedup >= 5.0 in
  Printf.printf
    "pr9: learn-twig eval workload, xmark scale %g (%d nodes, %d queries x %d \
     passes): indexed %7.1f ms, tree-walk %7.1f ms — %.1fx (gate >= 5x: %b, \
     answers agree: %b, session transcripts agree at scale %g: %b)\n"
    scale doc_nodes n_queries passes (idx_s *. 1e3) (walk_s *. 1e3) speedup
    indexed_ok answers_agree session_scale transcripts_agree;
  let shards, cscale, eval_rounds, corpus_nodes, v1, t1, v2, t2, reload_matches
      =
    phase_b ()
  in
  let verdicts_agree = v1 = v2 in
  let pool_ok = verdicts_agree && t2 < t1 in
  Printf.printf
    "pr9: corpus %d shards, scale %g (%d nodes), %d eval rounds: pool1 %7.1f \
     ms, pool2 %7.1f ms — %.2fx (gate pool2 < pool1: %b, verdicts agree: %b, \
     reload matches: %b)\n"
    shards cscale corpus_nodes eval_rounds (t1 *. 1e3) (t2 *. 1e3)
    (if t2 > 0. then t1 /. t2 else 0.)
    pool_ok verdicts_agree reload_matches;
  let json =
    Printf.sprintf
      {|{
  "bench": "pr9_xmlstore",
  "generated_by": "dune exec bench/main.exe -- pr9",
  "phase_a": {
    "workload": "learn-twig query trajectory (goal + LGG candidates per positive-example prefix), xmark scale %g seed 1, //person[profile/education]/name",
    "doc_nodes": %d,
    "trajectory_queries": %d,
    "passes": %d,
    "indexed_s": %.6f,
    "tree_walk_s": %.6f,
    "indexed_speedup": %.2f,
    "answers_agree": %b,
    "session_scale": %g,
    "session_questions": %d,
    "session_final_query": %S,
    "transcripts_agree": %b
  },
  "phase_b": {
    "shards": %d,
    "shard_scale": %g,
    "corpus_nodes": %d,
    "eval_rounds": %d,
    "queries": [%s],
    "pool1_s": %.6f,
    "pool2_s": %.6f,
    "pool_speedup": %.2f,
    "verdicts_agree": %b,
    "reload_matches": %b,
    "verdicts": [
%s
    ]
  },
  "indexed_speedup_5x_ok": %b,
  "pool2_beats_pool1": %b
}
|}
      scale doc_nodes n_queries passes idx_s walk_s speedup answers_agree
      session_scale r_idx.s_questions r_idx.s_query transcripts_agree shards
      cscale
      corpus_nodes eval_rounds
      (String.concat ", " (List.map (Printf.sprintf "%S") query_texts))
      t1 t2
      (if t2 > 0. then t1 /. t2 else 0.)
      verdicts_agree reload_matches
      (String.concat ",\n" (List.map verdict_json (Array.to_list v1)))
      indexed_ok pool_ok
  in
  let oc = open_out output in
  output_string oc json;
  close_out oc;
  Printf.printf "pr9: wrote %s\n" output
