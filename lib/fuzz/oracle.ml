module Prng = Core.Prng
module Tree = Xmltree.Tree
module Query = Twig.Query
module TI = Twiglearn.Interactive

type 'a spec = {
  name : string;
  about : string;
  generate : Prng.t -> size:int -> 'a;
  check : 'a -> (unit, string) result;
  candidates : 'a -> 'a list;
  print : 'a -> string;
  size_of : 'a -> int;
}

type t = Spec : 'a spec -> t

let name (Spec s) = s.name
let about (Spec s) = s.about

let failf fmt = Format.kasprintf (fun s -> Error s) fmt
let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let rec check_all f = function
  | [] -> Ok ()
  | x :: rest -> (
      match f x with Ok () -> check_all f rest | Error _ as e -> e)

let subset l1 l2 = List.for_all (fun x -> List.mem x l2) l1
let pstr pp v = Format.asprintf "%a" pp v

let pp_edge ppf ((a, f) : Query.axis * Query.filter) =
  Format.fprintf ppf "%s%a"
    (match a with Query.Child -> "/" | Query.Descendant -> "//")
    Query.pp_filter f

(* ------------------------------------------------------------------ *)
(* eval-cache: selects (memoized membership) ≡ select (fresh scan),    *)
(* under the query itself and a physically distinct copy of it         *)
(* ------------------------------------------------------------------ *)

let rec copy_filter (f : Query.filter) =
  { Query.ftest = f.ftest;
    fsubs = List.map (fun (a, s) -> (a, copy_filter s)) f.fsubs }

let copy_query (q : Query.t) =
  List.map
    (fun (s : Query.step) ->
      { Query.axis = s.axis;
        test = s.test;
        filters = List.map (fun (a, f) -> (a, copy_filter f)) s.filters })
    q

let check_eval_cache (t, qs) =
  let paths = Tree.all_paths t in
  check_all
    (fun q ->
      let reference = Twig.Eval.select q t in
      check_all
        (fun (variant, q') ->
          check_all
            (fun p ->
              let cached = Twig.Eval.selects q' t p in
              let fresh = List.mem p reference in
              if cached = fresh then Ok ()
              else
                failf "selects(%s) = %b but select = %b at node %s for %s"
                  variant cached fresh (pstr Tree.pp_path p)
                  (Query.to_string q))
            paths)
        [ ("same", q); ("copy", copy_query q) ])
    qs

let eval_cache =
  Spec
    { name = "eval-cache";
      about = "Eval.selects probe cache ≡ fresh Eval.select, incl. copied queries";
      generate =
        (fun g ~size ->
          let t = Gen.tree g ~size:(max 2 size) in
          let qs =
            List.init 3 (fun _ ->
                if Prng.bool g then Gen.twig g ~size:(max 2 (size / 2))
                else Gen.anchored_twig g ~size:(max 2 (size / 2)))
          in
          (t, qs));
      check = check_eval_cache;
      candidates =
        (fun (t, qs) ->
          List.map (fun t' -> (t', qs)) (Shrink.tree t)
          @ List.map (fun qs' -> (t, qs')) (Shrink.list_ Shrink.twig qs));
      print =
        (fun (t, qs) ->
          Tree.to_string t ^ "\n"
          ^ String.concat "\n" (List.map Query.to_string qs));
      size_of =
        (fun (t, qs) ->
          Tree.size t + List.fold_left (fun n q -> n + Query.size q) 0 qs);
    }

(* ------------------------------------------------------------------ *)
(* filter-contain-vs-eval: filter implication ≡ containment of the     *)
(* one-filter queries //*[e], and sound against evaluation             *)
(* ------------------------------------------------------------------ *)

let one_filter_query e =
  [ { Query.axis = Query.Descendant; test = Query.Wildcard; filters = [ e ] } ]

let check_filter_contain edges =
  check_all
    (fun (e1, e2) ->
      let q1 = one_filter_query e1 and q2 = one_filter_query e2 in
      let verdict = Twig.Contain.filter_subsumed e1 e2 in
      let via_query = Twig.Contain.subsumed q1 q2 in
      if verdict <> via_query then
        failf "filter_subsumed %s ⊑ %s = %b but subsumed %s %s = %b"
          (pstr pp_edge e1) (pstr pp_edge e2) verdict (Query.to_string q1)
          (Query.to_string q2) via_query
      else if verdict && not (Twig.Contain.subsumed_semantic q1 q2) then
        failf "filter_subsumed %s ⊑ %s holds but subsumed_semantic denies it"
          (pstr pp_edge e1) (pstr pp_edge e2)
      else Ok ())
    (List.concat_map (fun e1 -> List.map (fun e2 -> (e1, e2)) edges) edges)

let filter_contain_vs_eval =
  Spec
    { name = "filter-contain-vs-eval";
      about =
        "Contain.filter_subsumed e1 e2 ≡ subsumed //*[e1] //*[e2], sound \
         under subsumed_semantic";
      generate =
        (fun g ~size ->
          List.init
            (Prng.int_in g 2 5)
            (fun _ -> Gen.filter_edge g ~size:(max 1 (size / 2))));
      check = check_filter_contain;
      candidates = Shrink.list_ Shrink.filter_edge;
      print =
        (fun edges -> String.concat "\n" (List.map (pstr pp_edge) edges));
      size_of =
        (fun edges ->
          List.fold_left (fun n (_, f) -> n + Query.filter_size f) 0 edges);
    }

(* ------------------------------------------------------------------ *)
(* contain-vs-eval: containment decisions cross-checked against        *)
(* evaluation on generated and canonical witness documents             *)
(* ------------------------------------------------------------------ *)

let check_contain_vs_eval (q1, q2, t) =
  let* () =
    if Twig.Contain.subsumed q1 q1 then Ok ()
    else failf "subsumed q q = false for %s" (Query.to_string q1)
  in
  let sel1 = Twig.Eval.select q1 t in
  let* () =
    if Twig.Contain.subsumed q1 q2 then
      let sel2 = Twig.Eval.select q2 t in
      let* () =
        if subset sel1 sel2 then Ok ()
        else
          failf "subsumed says %s ⊆ %s but a selected node escapes on %s"
            (Query.to_string q1) (Query.to_string q2) (Tree.to_string t)
      in
      let* () =
        check_all
          (fun (doc, path) ->
            if Twig.Eval.selects q2 doc path then Ok ()
            else
              failf
                "subsumed says %s ⊆ %s but q2 misses canonical witness %s of q1"
                (Query.to_string q1) (Query.to_string q2) (Tree.to_string doc))
          (Twig.Contain.canonical_instances q1)
      in
      if Twig.Contain.subsumed_semantic q1 q2 then Ok ()
      else
        failf "subsumed %s %s holds but subsumed_semantic denies it"
          (Query.to_string q1) (Query.to_string q2)
    else Ok ()
  in
  let* () =
    let anchored = Query.anchor q1 in
    if subset sel1 (Twig.Eval.select anchored t) then Ok ()
    else
      failf "anchor %s = %s loses a selected node on %s" (Query.to_string q1)
        (Query.to_string anchored) (Tree.to_string t)
  in
  let* () =
    let minimized = Twig.Lgg.minimize q1 in
    if Twig.Eval.select minimized t = sel1 then Ok ()
    else
      failf "minimize %s = %s changes the answer set on %s"
        (Query.to_string q1) (Query.to_string minimized) (Tree.to_string t)
  in
  check_all
    (fun (doc, path) ->
      if Twig.Eval.selects q1 doc path then Ok ()
      else
        failf "%s does not select its own canonical instance %s"
          (Query.to_string q1) (Tree.to_string doc))
    (Twig.Contain.canonical_instances q1)

let contain_vs_eval =
  Spec
    { name = "contain-vs-eval";
      about =
        "subsumed/anchor/minimize cross-checked against evaluation on witness docs";
      generate =
        (fun g ~size ->
          let q1 = Gen.twig g ~size:(max 2 size) in
          let q2 =
            if Prng.bool g then Gen.twig g ~size:(max 2 size)
            else Gen.generalize g q1
          in
          (q1, q2, Gen.tree g ~size:(max 2 (2 * size))));
      check = check_contain_vs_eval;
      candidates =
        (fun (q1, q2, t) ->
          List.map (fun q1' -> (q1', q2, t)) (Shrink.twig q1)
          @ List.map (fun q2' -> (q1, q2', t)) (Shrink.twig q2)
          @ List.map (fun t' -> (q1, q2, t')) (Shrink.tree t));
      print =
        (fun (q1, q2, t) ->
          Printf.sprintf "q1: %s\nq2: %s\ndoc: %s" (Query.to_string q1)
            (Query.to_string q2) (Tree.to_string t));
      size_of =
        (fun (q1, q2, t) -> Query.size q1 + Query.size q2 + Tree.size t);
    }

(* ------------------------------------------------------------------ *)
(* lgg-incremental: Positive.Incremental ≡ learn_positive on arbitrary *)
(* corpora (the XMark-only property test, generalized)                 *)
(* ------------------------------------------------------------------ *)

let live_element_paths t paths =
  List.filter
    (fun p ->
      match Tree.node_at t p with
      | Some n -> not (Tree.is_text n)
      | None -> false)
    paths

let selection_equivalent t e c =
  Twig.Contain.equiv e c
  || Twig.Eval.select e t = Twig.Eval.select c t
     && Twig.Contain.subsumed_semantic e c
     && Twig.Contain.subsumed_semantic c e

let check_lgg_incremental (t, paths) =
  let module I = Twiglearn.Positive.Incremental in
  let items =
    List.map (Xmltree.Annotated.make t) (live_element_paths t paths)
  in
  let batch = Twiglearn.Positive.learn_positive items in
  let inc = I.candidate (List.fold_left I.add I.empty items) in
  let* () =
    match (batch, inc) with
    | None, None -> Ok ()
    | Some a, Some b when Query.equal a b -> Ok ()
    | _ ->
        failf "batch LGG %s ≠ incremental %s"
          (match batch with Some q -> Query.to_string q | None -> "⊥")
          (match inc with Some q -> Query.to_string q | None -> "⊥")
  in
  (* [extend_consistent] closes most items on the spines alone, an
     argument that holds one way only.  At every accumulator of the walk,
     each element it closes must be closed by the full merge too, and each
     it keeps open must stay open. *)
  let elements =
    List.map (Xmltree.Annotated.make t)
      (live_element_paths t (Tree.all_paths t))
  in
  let closures_agree acc =
    check_all
      (fun (it : Xmltree.Annotated.t) ->
        match (I.extend_consistent acc it, I.candidate (I.add acc it)) with
        | None, Some c ->
            failf "extend_consistent closes %s, but the full merge keeps %s"
              (pstr Tree.pp_path it.target) (Query.to_string c)
        | Some e, None ->
            failf "extend_consistent keeps %s open (%s), but the full merge \
                   closes it"
              (pstr Tree.pp_path it.target) (Query.to_string e)
        | _ -> Ok ())
      elements
  in
  let rec steps acc = function
    | [] -> closures_agree acc
    | item :: rest -> (
        let* () = closures_agree acc in
        let ext = I.extend_consistent acc item in
        let next = I.add acc item in
        let cand = I.candidate next in
        match (ext, cand) with
        | None, None -> steps next rest
        | Some e, Some c when selection_equivalent t e c -> steps next rest
        | Some e, Some c ->
            failf "extend_consistent %s not selection-equivalent to %s"
              (Query.to_string e) (Query.to_string c)
        | Some e, None ->
            failf "extend_consistent says %s but candidate says inconsistent"
              (Query.to_string e)
        | None, Some c ->
            failf "extend_consistent says inconsistent but candidate = %s"
              (Query.to_string c))
  in
  steps I.empty items

let lgg_incremental =
  Spec
    { name = "lgg-incremental";
      about =
        "incremental LGG ≡ batch learn_positive on arbitrary corpora; the \
         spine precheck closes only what the full merge closes";
      generate =
        (fun g ~size ->
          let t = Gen.tree g ~size:(max 2 size) in
          let k = Prng.int_in g 1 4 in
          (t, Prng.sample g k (Gen.element_paths t)));
      check = check_lgg_incremental;
      candidates =
        (fun (t, paths) ->
          List.map (fun t' -> (t', paths)) (Shrink.tree t)
          @ List.map (fun ps -> (t, ps)) (Shrink.list_ (fun _ -> []) paths));
      print =
        (fun (t, paths) ->
          Tree.to_string t ^ "\n"
          ^ String.concat " " (List.map (pstr Tree.pp_path) paths));
      size_of = (fun (t, _) -> Tree.size t);
    }

(* ------------------------------------------------------------------ *)
(* Interactive sessions                                                *)
(* ------------------------------------------------------------------ *)

let transcript asked = List.map (fun (it, l) -> (TI.encode_item it, l)) asked

let transcripts_differ name ta tb =
  if ta = tb then Ok ()
  else
    let rec first_diff i = function
      | (a :: ra, b :: rb) ->
          if a = b then first_diff (i + 1) (ra, rb)
          else
            failf "%s: question %d differs: %s=%b vs %s=%b" name i (fst a)
              (snd a) (fst b) (snd b)
      | [], _ | _, [] ->
          failf "%s: transcript lengths differ (%d vs %d)" name (List.length ta)
            (List.length tb)
    in
    first_diff 0 (ta, tb)

let queries_equal name qa qb =
  if Option.equal Query.equal qa qb then Ok ()
  else
    failf "%s: learned queries differ: %s vs %s" name
      (match qa with Some q -> Query.to_string q | None -> "⊥")
      (match qb with Some q -> Query.to_string q | None -> "⊥")

let check_interact_batch (doc, goal) =
  let b =
    TI.Batch.Loop.run ~rng:(Prng.create 17)
      ~oracle:(Twig.Eval.selects_example goal)
      ~items:(TI.items_of_doc doc) ()
  in
  let i = TI.run_with_goal ~rng:(Prng.create 17) ~doc ~goal () in
  let* () =
    transcripts_differ "batch vs incremental" (transcript b.asked)
      (transcript i.asked)
  in
  queries_equal "batch vs incremental" b.query i.query

let doc_goal_spec ~name ~about check =
  Spec
    { name;
      about;
      generate =
        (fun g ~size ->
          let doc = Gen.tree g ~size:(max 2 size) in
          (doc, Gen.goal g doc));
      check;
      candidates =
        (fun (doc, goal) ->
          List.map (fun d -> (d, goal)) (Shrink.tree doc)
          @ List.map (fun q -> (doc, q)) (Shrink.twig goal));
      print =
        (fun (doc, goal) ->
          Printf.sprintf "doc: %s\ngoal: %s" (Tree.to_string doc)
            (Query.to_string goal));
      size_of = (fun (doc, _) -> Tree.size doc);
    }

let interact_batch =
  doc_goal_spec ~name:"interact-batch"
    ~about:"interactive sessions ask identical questions with batch vs incremental LGG"
    check_interact_batch

let read_file path = In_channel.with_open_bin path In_channel.input_all

let with_temp_file prefix suffix f =
  let path = Filename.temp_file prefix suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let check_journal_resume (doc, goal, permille) =
  let items = TI.items_of_doc doc in
  let oracle it = Twig.Eval.selects_example goal it in
  with_temp_file "learnq-fuzz-journal" ".wal" (fun path ->
      let j =
        Core.Journal.create ~sync:Core.Journal.Off ~path
          { Core.Journal.seed = 0; engine = "fuzz"; config = "resume" }
      in
      let full =
        Fun.protect
          ~finally:(fun () -> Core.Journal.close j)
          (fun () ->
            TI.Loop.run ~rng:(Prng.create 17) ~journal:(j, TI.encode_item)
              ~oracle ~items ())
      in
      let bytes = read_file path in
      let cut = String.length bytes * permille / 1000 in
      with_temp_file "learnq-fuzz-journal" ".cut" (fun tpath ->
          Out_channel.with_open_bin tpath (fun oc ->
              Out_channel.output_string oc (String.sub bytes 0 cut));
          match Core.Journal.resume ~path:tpath () with
          | Error (Core.Error.Corrupt_journal _ as e) ->
              failf
                "clean truncation at byte %d/%d reported as corruption: %s" cut
                (String.length bytes) (Core.Error.to_string e)
          | Error _ -> Ok () (* header itself truncated: nothing to resume *)
          | Ok (j2, recovered) ->
              let resumed =
                Fun.protect
                  ~finally:(fun () -> Core.Journal.close j2)
                  (fun () ->
                    TI.Loop.run ~rng:(Prng.create 17)
                      ~journal:(j2, TI.encode_item)
                      ~resume:
                        ( recovered.events,
                          TI.decode_item ~doc,
                          TI.decode_state ~doc )
                      ~oracle ~items ())
              in
              let* () =
                transcripts_differ "full vs resumed" (transcript full.asked)
                  (transcript resumed.asked)
              in
              queries_equal "full vs resumed" full.query resumed.query))

let journal_resume =
  Spec
    { name = "journal-resume";
      about = "journal truncated at a fuzzed point resumes to the same query";
      generate =
        (fun g ~size ->
          let doc = Gen.tree g ~size:(max 2 size) in
          (doc, Gen.goal g doc, Prng.int g 1001));
      check = check_journal_resume;
      candidates =
        (fun (doc, goal, p) ->
          List.map (fun d -> (d, goal, p)) (Shrink.tree doc)
          @ List.map (fun q -> (doc, q, p)) (Shrink.twig goal));
      print =
        (fun (doc, goal, p) ->
          Printf.sprintf "doc: %s\ngoal: %s\ncut: %d‰" (Tree.to_string doc)
            (Query.to_string goal) p);
      size_of = (fun (doc, _, _) -> Tree.size doc);
    }

(* ------------------------------------------------------------------ *)
(* rpq-naive: BFS product construction ≡ dumb fixpoint reference       *)
(* ------------------------------------------------------------------ *)

let naive_rpq (dfa : Automata.Dfa.t) g =
  let n = Graphdb.Graph.node_count g in
  let edges = Graphdb.Graph.edges g in
  let answers = ref [] in
  for src = 0 to n - 1 do
    let reach = Hashtbl.create 16 in
    Hashtbl.replace reach (src, dfa.Automata.Dfa.start) ();
    let changed = ref true in
    while !changed do
      changed := false;
      let pairs = Hashtbl.fold (fun k () acc -> k :: acc) reach [] in
      List.iter
        (fun (u, s) ->
          List.iter
            (fun (x, lbl, v) ->
              if x = u then
                match Automata.Dfa.symbol_index dfa lbl with
                | None -> ()
                | Some si ->
                    let s' = dfa.Automata.Dfa.next.(s).(si) in
                    if not (Hashtbl.mem reach (v, s')) then begin
                      Hashtbl.replace reach (v, s') ();
                      changed := true
                    end)
            edges)
        pairs
    done;
    Hashtbl.iter
      (fun (v, s) () ->
        if dfa.Automata.Dfa.final.(s) then answers := (src, v) :: !answers)
      reach
  done;
  List.sort_uniq compare !answers

let check_rpq (gr, re) =
  let dfa = Automata.Dfa.of_regex re in
  let fast = Graphdb.Rpq.eval dfa gr in
  let naive = naive_rpq dfa gr in
  let* () =
    if fast = naive then Ok ()
    else
      failf "Rpq.eval ≠ naive fixpoint for %s: %d vs %d answers"
        (Automata.Regex.to_string re) (List.length fast) (List.length naive)
  in
  let budget =
    Core.Budget.create ~fuel:(1 + Graphdb.Graph.node_count gr) ()
  in
  match Graphdb.Rpq.eval_within budget dfa gr with
  | Core.Budget.Done l ->
      if l = fast then Ok ()
      else failf "eval_within Done disagrees with eval"
  | Core.Budget.Exhausted { partial; _ } -> (
      match partial with
      | None -> Ok ()
      | Some l ->
          if subset l fast then Ok ()
          else failf "eval_within partial answers are not a subset of eval")

let rpq_naive =
  Spec
    { name = "rpq-naive";
      about = "Rpq.eval ≡ naive product-automaton fixpoint; partials ⊆ full";
      generate =
        (fun g ~size ->
          (Gen.graph g ~size:(max 2 size), Gen.regex g ~size:(max 2 (size / 2))));
      check = check_rpq;
      candidates =
        (fun (gr, re) ->
          List.map (fun gr' -> (gr', re)) (Shrink.graph gr)
          @ List.map (fun re' -> (gr, re')) (Shrink.regex re));
      print =
        (fun (gr, re) ->
          Printf.sprintf "graph: %s\nrpq: %s" (pstr Graphdb.Graph.pp gr)
            (Automata.Regex.to_string re));
      size_of =
        (fun (gr, re) ->
          Graphdb.Graph.node_count gr + Graphdb.Graph.edge_count gr
          + Automata.Regex.size re);
    }

(* ------------------------------------------------------------------ *)
(* Round-trips: parse ∘ print ≡ id                                     *)
(* ------------------------------------------------------------------ *)

let roundtrip_twig =
  Spec
    { name = "roundtrip-twig";
      about = "Twig.Parse.query ∘ Query.to_string ≡ id";
      generate = (fun g ~size -> Gen.twig g ~size:(max 1 size));
      check =
        (fun q ->
          let s = Query.to_string q in
          match Twig.Parse.query_result s with
          | Error e ->
              failf "printed query %S does not parse: %s" s
                (Core.Error.to_string e)
          | Ok q' ->
              if Query.equal q q' then Ok ()
              else failf "%S reparses as %S" s (Query.to_string q'));
      candidates = Shrink.twig;
      print = Query.to_string;
      size_of = Query.size;
    }

let roundtrip_xml =
  Spec
    { name = "roundtrip-xml";
      about = "Xmltree.Parse.xml ∘ Print.to_xml ≡ id (indented and inline)";
      generate = (fun g ~size -> Gen.xml_tree g ~size:(max 1 size));
      check =
        (fun t ->
          check_all
            (fun indent ->
              let s = Xmltree.Print.to_xml ~indent t in
              match Xmltree.Parse.xml_result s with
              | Error e ->
                  failf "printed XML (indent %d) does not parse: %s\n%s" indent
                    (Core.Error.to_string e) s
              | Ok t' ->
                  if Tree.equal t t' then Ok ()
                  else
                    failf "indent %d: %s reparses as %s" indent
                      (Tree.to_string t) (Tree.to_string t'))
            [ 2; 0 ]);
      candidates = Shrink.tree;
      print = (fun t -> Xmltree.Print.to_xml t);
      size_of = Tree.size;
    }

let roundtrip_csv =
  Spec
    { name = "roundtrip-csv";
      about = "Relational.Csv.parse ∘ to_string ≡ id";
      generate =
        (fun g ~size ->
          Gen.relation g ~name:"t" ~rows:(max 1 (size / 2)));
      check =
        (fun r ->
          let s = Relational.Csv.to_string r in
          match
            Relational.Csv.parse_result ~name:(Relational.Relation.name r) s
          with
          | Error e ->
              failf "printed CSV does not parse: %s\n%s"
                (Core.Error.to_string e) s
          | Ok r' ->
              if Relational.Relation.equal_contents r r' then Ok ()
              else failf "CSV round-trip changed contents:\n%s" s);
      candidates = Shrink.relation;
      print = Relational.Csv.to_string;
      size_of =
        (fun r ->
          Relational.Relation.cardinal r * Relational.Relation.arity r);
    }

let schema_equal s1 s2 =
  Uschema.Schema.root s1 = Uschema.Schema.root s2
  &&
  let r1 = Uschema.Schema.rules s1 and r2 = Uschema.Schema.rules s2 in
  List.length r1 = List.length r2
  && List.for_all2
       (fun (h1, d1) (h2, d2) -> h1 = h2 && Uschema.Dme.equal d1 d2)
       r1 r2

let roundtrip_dms =
  Spec
    { name = "roundtrip-dms";
      about = "Uschema.Schema.parse ∘ to_string ≡ id";
      generate = (fun g ~size -> Gen.schema g ~size);
      check =
        (fun sch ->
          let s = Uschema.Schema.to_string sch in
          match Uschema.Schema.parse_result s with
          | Error e ->
              failf "printed schema does not parse: %s\n%s"
                (Core.Error.to_string e) s
          | Ok sch' ->
              if schema_equal sch sch' then Ok ()
              else failf "schema round-trip changed rules:\n%s" s);
      candidates = Shrink.schema;
      print = Uschema.Schema.to_string;
      size_of = Uschema.Schema.size;
    }

(* ------------------------------------------------------------------ *)
(* Schema semantics                                                    *)
(* ------------------------------------------------------------------ *)

let check_docgen_infer (sch, doc_seed) =
  let rng = Prng.create doc_seed in
  match Uschema.Docgen.generate ~rng sch with
  | None -> Ok () (* unproductive root: vacuously fine *)
  | Some d -> (
      let* () =
        match Uschema.Schema.validate sch d with
        | Ok () -> Ok ()
        | Error vs ->
            failf "Docgen output invalid for its schema: %s (%d violations)"
              (Tree.to_string d) (List.length vs)
      in
      let* () =
        if Uschema.Schema.valid sch { d with Tree.label = "zz" } then
          failf "root relabeled to zz still validates"
        else Ok ()
      in
      match Uschema.Infer.infer [ d ] with
      | None -> failf "Infer.infer returned None on one valid document"
      | Some inferred ->
          let* () =
            if Uschema.Schema.valid inferred d then Ok ()
            else
              failf "inferred schema rejects its own input %s"
                (Tree.to_string d)
          in
          (match Uschema.Infer.infer_disjunction_free [ d ] with
          | None -> failf "infer_disjunction_free returned None"
          | Some ms ->
              if Uschema.Schema.valid ms d then Ok ()
              else failf "MS-inferred schema rejects its own input"))

let docgen_infer =
  Spec
    { name = "docgen-infer";
      about = "Docgen output validates; Infer's schema accepts its input";
      generate =
        (fun g ~size -> (Gen.schema g ~size, Prng.int g max_int));
      check = check_docgen_infer;
      candidates =
        (fun (sch, seed) ->
          List.map (fun s -> (s, seed)) (Shrink.schema sch));
      print = (fun (sch, _) -> Uschema.Schema.to_string sch);
      size_of = (fun (sch, _) -> Uschema.Schema.size sch);
    }

let check_validate_agree (sch, t) =
  let* () =
    let ok = Uschema.Schema.valid sch t in
    let detailed = Result.is_ok (Uschema.Schema.validate sch t) in
    if ok = detailed then Ok ()
    else failf "valid=%b but validate says %b on %s" ok detailed
        (Tree.to_string t)
  in
  if Uschema.Schema.valid sch t && Tree.(t.label) <> "zz" then
    if Uschema.Schema.valid sch { t with Tree.label = "zz" } then
      failf "foreign root label accepted on %s" (Tree.to_string t)
    else Ok ()
  else Ok ()

let validate_agree =
  Spec
    { name = "validate-agree";
      about = "Schema.valid ≡ Schema.validate on conforming and mutated docs";
      generate =
        (fun g ~size ->
          let sch = Gen.schema g ~size in
          let doc =
            match Uschema.Docgen.generate ~rng:g sch with
            | Some d when Prng.bool g ->
                if Prng.bool g then d else Gen.mutant_doc g d
            | _ -> Gen.tree g ~size
          in
          (sch, doc));
      check = check_validate_agree;
      candidates =
        (fun (sch, t) ->
          List.map (fun t' -> (sch, t')) (Shrink.tree t)
          @ List.map (fun s -> (s, t)) (Shrink.schema sch));
      print =
        (fun (sch, t) ->
          Uschema.Schema.to_string sch ^ "\ndoc: " ^ Tree.to_string t);
      size_of = (fun (sch, t) -> Uschema.Schema.size sch + Tree.size t);
    }

(* ------------------------------------------------------------------ *)
(* parser-total: _result parsers never raise on junk or near-misses    *)
(* ------------------------------------------------------------------ *)

let check_parser_total inputs =
  check_all
    (fun s ->
      try
        ignore (Xmltree.Parse.xml_result s);
        ignore (Xmltree.Parse.term_result s);
        ignore (Twig.Parse.query_result s);
        ignore (Relational.Csv.parse_result ~name:"t" s);
        ignore (Uschema.Schema.parse_result s);
        Ok ()
      with e -> failf "a _result parser raised %s on %S" (Printexc.to_string e) s)
    inputs

let parser_total =
  Spec
    { name = "parser-total";
      about = "all _result parsers are total on junk and mutated valid prints";
      generate =
        (fun g ~size ->
          let size = max 4 size in
          let mutated print = Gen.mutate_string g (print ()) in
          [ Gen.junk g ~size:(4 * size);
            mutated (fun () ->
                Xmltree.Print.to_xml (Gen.xml_tree g ~size));
            mutated (fun () -> Tree.to_string (Gen.xml_tree g ~size));
            mutated (fun () -> Query.to_string (Gen.twig g ~size));
            mutated (fun () ->
                Relational.Csv.to_string
                  (Gen.relation g ~name:"t" ~rows:(size / 2)));
            mutated (fun () ->
                Uschema.Schema.to_string (Gen.schema g ~size));
          ]);
      check = check_parser_total;
      candidates = Shrink.list_ Shrink.string_;
      print = (fun inputs -> String.concat "\n----\n" inputs);
      size_of =
        (fun inputs ->
          List.fold_left (fun n s -> n + String.length s) 0 inputs);
    }

(* ------------------------------------------------------------------ *)
(* http-incremental-parse: the mux's resumable parser, fed the same    *)
(* byte stream split at arbitrary fuzzed boundaries, produces exactly  *)
(* the whole-buffer parse_head+body result                             *)
(* ------------------------------------------------------------------ *)

(* The connection multiplexer sees a request in however many fragments
   the kernel hands it — a TCP segment boundary can fall anywhere,
   including mid-terminator and mid-Content-Length value.  The contract:
   the incremental parser's output (request sequence, sticky framing
   error, or "more bytes needed") is a pure function of the concatenated
   bytes, independent of where the cuts fall.  The reference below is an
   independent whole-buffer parser built directly on [Http.parse_head]. *)

type hp_case = {
  hp_stream : string;
  hp_cuts : int list;  (** split positions; clamped and deduped at use *)
}

(* Small caps so generated cases actually exercise the limits. *)
let hp_max_head = 512
let hp_max_body = 1024

type hp_final = Hp_err of string | Hp_pending of bool

let hp_term s =
  let n = String.length s in
  let rec go i =
    if i + 1 >= n then None
    else if s.[i] = '\n' && s.[i + 1] = '\n' then Some (i, 2)
    else if
      i + 3 < n
      && s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some (i, 4)
    else go (i + 1)
  in
  go 0

let rec hp_reference acc s =
  match hp_term s with
  | None ->
      if String.length s > hp_max_head then
        (List.rev acc, Hp_err "request head too large")
      else (List.rev acc, Hp_pending (String.length s > 0))
  | Some (i, tlen) -> (
      if i > hp_max_head then (List.rev acc, Hp_err "request head too large")
      else
        match Server.Http.parse_head (String.sub s 0 i) with
        | Error msg -> (List.rev acc, Hp_err msg)
        | Ok req -> (
            let cl =
              match Server.Http.header "content-length" req with
              | None -> Ok 0
              | Some v -> (
                  match int_of_string_opt v with
                  | Some n when n >= 0 -> Ok n
                  | _ -> Error (Printf.sprintf "bad content-length %S" v))
            in
            match cl with
            | Error msg -> (List.rev acc, Hp_err msg)
            | Ok len when len > hp_max_body ->
                (List.rev acc, Hp_err "request body too large")
            | Ok len ->
                if String.length s < i + tlen + len then
                  (List.rev acc, Hp_pending true)
                else
                  let body = String.sub s (i + tlen) len in
                  let req = { req with Server.Http.body } in
                  let rest_off = i + tlen + len in
                  hp_reference (req :: acc)
                    (String.sub s rest_off (String.length s - rest_off))))

let hp_drive stream cuts =
  let n = String.length stream in
  let cuts =
    List.sort_uniq compare (List.filter (fun c -> c > 0 && c < n) cuts)
  in
  let bounds = (0 :: cuts) @ [ n ] in
  let p =
    Server.Http.incremental ~max_head:hp_max_head ~max_body:hp_max_body ()
  in
  let reqs = ref [] and err = ref None in
  let rec drain () =
    match Server.Http.step p with
    | `Request r ->
        reqs := r :: !reqs;
        drain ()
    | `More -> ()
    | `Error m -> err := Some m
  in
  let rec chunks = function
    | a :: (b :: _ as rest) ->
        if !err = None then begin
          Server.Http.feed p (String.sub stream a (b - a));
          drain ()
        end;
        chunks rest
    | _ -> ()
  in
  chunks bounds;
  ( List.rev !reqs,
    match !err with
    | Some m -> Hp_err m
    | None -> Hp_pending (Server.Http.pending p > 0) )

let hp_show_final = function
  | Hp_err m -> Printf.sprintf "error %S" m
  | Hp_pending b -> Printf.sprintf "pending %b" b

let check_http_incremental { hp_stream; hp_cuts } =
  let ref_reqs, ref_final = hp_reference [] hp_stream in
  let inc_reqs, inc_final = hp_drive hp_stream hp_cuts in
  if ref_reqs <> inc_reqs then
    failf "split parse saw %d requests, whole-buffer saw %d (cuts %s)"
      (List.length inc_reqs) (List.length ref_reqs)
      (String.concat "," (List.map string_of_int hp_cuts))
  else if ref_final <> inc_final then
    failf "split parse ended with %s, whole-buffer with %s (cuts %s)"
      (hp_show_final inc_final) (hp_show_final ref_final)
      (String.concat "," (List.map string_of_int hp_cuts))
  else Ok ()

let hp_generate g ~size =
  let size = max 2 size in
  let buf = Buffer.create 256 in
  let n_reqs = Prng.int_in g 0 3 in
  for _ = 1 to n_reqs do
    let meth = Prng.pick g [ "GET"; "POST"; "DELETE"; "PUT" ] in
    let path =
      Prng.pick g
        [ "/healthz"; "/stats"; "/v1/sessions"; "/v1/sessions/s1";
          "/v1/sessions/s1/answers" ]
    in
    let crlf = if Prng.bool g then "\r\n" else "\n" in
    let body =
      if Prng.bool g then String.make (Prng.int_in g 0 (4 * size)) 'b'
      else ""
    in
    Buffer.add_string buf (Printf.sprintf "%s %s HTTP/1.1%s" meth path crlf);
    if Prng.bool g then
      Buffer.add_string buf ("x-learnq-tenant: t" ^ crlf);
    if body <> "" || Prng.bool g then begin
      (* Occasionally lie about the length: a long claim swallows the
         next request into this body, a short one leaves stray bytes —
         both must split-parse identically to the whole-buffer result. *)
      let claimed =
        if Prng.int_in g 0 7 = 0 then
          Prng.int_in g 0 (String.length body + 8)
        else String.length body
      in
      Buffer.add_string buf
        (Printf.sprintf "content-length: %d%s" claimed crlf)
    end;
    Buffer.add_string buf crlf;
    Buffer.add_string buf body
  done;
  (* Often leave a trailing partial request — the parser must report
     "more bytes needed", never an error, on a valid prefix. *)
  if Prng.bool g then begin
    let tail = "POST /v1/sessions HTTP/1.1\r\ncontent-length: 5\r\n\r\nhi" in
    Buffer.add_string buf
      (String.sub tail 0 (Prng.int_in g 0 (String.length tail)))
  end;
  let stream = Buffer.contents buf in
  let stream =
    match Prng.int_in g 0 5 with
    | 0 -> Gen.mutate_string g stream
    | 1 when stream = "" -> Gen.junk g ~size
    | _ -> stream
  in
  let n_cuts = Prng.int_in g 0 8 in
  let cuts =
    List.init n_cuts (fun _ ->
        Prng.int_in g 0 (max 1 (String.length stream)))
  in
  { hp_stream = stream; hp_cuts = cuts }

let http_incremental_parse =
  Spec
    { name = "http-incremental-parse";
      about =
        "incremental HTTP parse at fuzzed split points ≡ whole-buffer \
         parse_head+body";
      generate = hp_generate;
      check = check_http_incremental;
      candidates =
        (fun { hp_stream; hp_cuts } ->
          List.map
            (fun cuts -> { hp_stream; hp_cuts = cuts })
            (Shrink.list_ (fun _ -> []) hp_cuts)
          @ List.map
              (fun s -> { hp_stream = s; hp_cuts })
              (Shrink.string_ hp_stream));
      print =
        (fun { hp_stream; hp_cuts } ->
          Printf.sprintf "cuts: %s\nstream: %S"
            (String.concat "," (List.map string_of_int hp_cuts))
            hp_stream);
      size_of = (fun { hp_stream; _ } -> String.length hp_stream);
    }

(* ------------------------------------------------------------------ *)
(* server-crash-resume: a registry crashed mid-session and recovered   *)
(* from its journals learns the same query as one never interrupted    *)
(* ------------------------------------------------------------------ *)

(* The chaos contract of `learnq serve`: under per-item-deterministic
   client faults (the same question always draws the same refusal /
   timeout / noisy label), killing the registry after [k] answers and
   recovering from the state directory must converge to exactly the query
   an uninterrupted run learns.  Refused items return to the pool on
   resume and are re-refused identically, so the labeled sequence — and
   hence the final candidate — is invariant under the crash point. *)

type serve_case = {
  sc_spec : Server.Engines.spec;
  sc_goal : string;
  sc_crash_after : int;  (** answers delivered before the in-process kill *)
  sc_noise : int;  (** permille *)
  sc_refusal : int;  (** permille *)
  sc_timeout : int;  (** permille *)
  sc_sync : Core.Journal.sync;
}

let with_temp_dir prefix f =
  let path = Filename.temp_file prefix ".d" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  Fun.protect
    ~finally:(fun () ->
      match Sys.readdir path with
      | entries ->
          Array.iter
            (fun e ->
              try Sys.remove (Filename.concat path e) with Sys_error _ -> ())
            entries;
          (try Unix.rmdir path with Unix.Unix_error _ -> ())
      | exception Sys_error _ -> ())
    (fun () -> f path)

(* A client whose reply to a question is a pure function of the question:
   crash and re-ask as often as you like, the answer never changes. *)
let serve_client c truth key =
  Core.Flaky.user ~seed:c.sc_spec.seed ~truth ~refusal:c.sc_refusal
    ~timeout:c.sc_timeout ~noise:c.sc_noise key

(* Answer with [client] until the session finishes or [stop_after] answers
   are in; returns the questions answered (codec keys, in order) and the
   final query.  A stepper error fails the oracle. *)
let drive ?stop_after st client =
  match Server.Stepper.drive ?stop_after st client with
  | keys, Ok v -> Ok (keys, v.Server.Stepper.query)
  | keys, Error e ->
      failf "stepper rejected the answer after %d: %s" (List.length keys)
        (Core.Error.to_string e)

let create_and_drive ?stop_after reg c client =
  match
    Server.Registry.create_session reg ~tenant:"fuzz" ~id:"s" c.sc_spec
  with
  | Error e -> failf "create: %s" (Core.Error.to_string e)
  | Ok st -> drive ?stop_after st client

let check_server_crash_resume ?(checkpoint_every = 0) c =
  match Server.Engines.oracle c.sc_spec ~goal:c.sc_goal with
  | Error e -> failf "bad goal for spec: %s" (Core.Error.to_string e)
  | Ok truth -> (
      let client = serve_client c truth in
      (* Reference: one registry, never interrupted, never compacted. *)
      let reference =
        with_temp_dir "learnq-fuzz-serve-ref" (fun dir ->
            let reg =
              Server.Registry.create (Server.Registry.default_config dir)
            in
            Fun.protect
              ~finally:(fun () -> Server.Registry.drain reg)
              (fun () -> create_and_drive reg c client))
      in
      match reference with
      | Error _ as e -> e
      | Ok (_, ref_query) ->
          with_temp_dir "learnq-fuzz-serve" (fun dir ->
              let registry () =
                Server.Registry.create
                  {
                    (Server.Registry.default_config dir) with
                    sync = c.sc_sync;
                    checkpoint_every;
                  }
              in
              (* Phase 1: crash after [k] answers. *)
              let reg1 = registry () in
              match
                create_and_drive ~stop_after:c.sc_crash_after reg1 c client
              with
              | Error _ as e -> e
              | Ok _ -> (
                  Server.Registry.crash reg1;
                  (* Phase 2: a fresh registry recovers the directory and
                     finishes the session. *)
                  let reg2 = registry () in
                  let recovered, errors = Server.Registry.recover_all reg2 in
                  match errors with
                  | (f, e) :: _ ->
                      failf "recovery of %s failed: %s" f
                        (Core.Error.to_string e)
                  | [] ->
                      if recovered <> 1 then
                        failf "lost the session: recovered %d of 1" recovered
                      else
                        Fun.protect
                          ~finally:(fun () -> Server.Registry.drain reg2)
                          (fun () ->
                            match
                              Server.Registry.find reg2 ~tenant:"fuzz" ~id:"s"
                            with
                            | None -> failf "recovered session not findable"
                            | Some st -> (
                                match drive st client with
                                | Error _ as e -> e
                                | Ok (_, resumed_query) ->
                                    if resumed_query = ref_query then Ok ()
                                    else
                                      failf
                                        "crash at %d answers diverged:\n\
                                         uninterrupted: %s\n\
                                         resumed:       %s"
                                        c.sc_crash_after
                                        (Option.value ~default:"<none>"
                                           ref_query)
                                        (Option.value ~default:"<none>"
                                           resumed_query))))))

(* The serve oracles' one case generator, shrinker and printer.  The
   generator runs in two steps, the session and then the faults, because
   the checkpoint oracle draws its interval between them.  Draws are
   sequenced explicitly, in the order the oracles' case streams have
   always used (test_fuzz pins them by digest); [crash:false] draws no
   crash point, for an oracle that never crashes. *)
let gen_serve_session g ~size =
  let engine = Prng.pick g [ "twig"; "join"; "path" ] in
  let cities = Prng.int_in g 5 8 in
  let rows = Prng.int_in g 4 7 in
  let seed = Prng.int g 1_000_000 in
  let spec =
    {
      Server.Engines.engine;
      seed;
      scale = 0.02 +. (0.002 *. float_of_int (min 20 size));
      rows;
      cities;
    }
  in
  let goal =
    match engine with
    | "twig" -> Prng.pick g [ "//item"; "//person/name"; "//keyword" ]
    | "join" -> "planted"
    | _ -> Prng.pick g [ "highway*"; "road highway*"; "ferry?road*" ]
  in
  (spec, goal)

let gen_serve_case ?(crash = true) g (sc_spec, sc_goal) =
  let sc_sync = Prng.pick g [ Core.Journal.Always; Core.Journal.Batch ] in
  let sc_timeout = Prng.int g 100 in
  let sc_refusal = Prng.int g 200 in
  let sc_noise = Prng.int g 150 in
  let sc_crash_after = if crash then Prng.int g 25 else 0 in
  {
    sc_spec;
    sc_goal;
    sc_crash_after;
    sc_noise;
    sc_refusal;
    sc_timeout;
    sc_sync;
  }

let serve_candidates c =
  List.concat
    [
      (if c.sc_crash_after > 0 then
         [ { c with sc_crash_after = c.sc_crash_after / 2 } ]
       else []);
      (if c.sc_noise > 0 then [ { c with sc_noise = 0 } ] else []);
      (if c.sc_refusal > 0 then [ { c with sc_refusal = 0 } ] else []);
      (if c.sc_timeout > 0 then [ { c with sc_timeout = 0 } ] else []);
      (if c.sc_sync <> Core.Journal.Always then
         [ { c with sc_sync = Core.Journal.Always } ]
       else []);
    ]

let print_serve_case ?(crash = true) ?checkpoint_every c =
  Printf.sprintf
    "spec: %s\ngoal: %s\n%s%snoise/refusal/timeout: %d/%d/%d permille\n\
     sync: %s"
    (Server.Engines.config_of_spec c.sc_spec)
    c.sc_goal
    (if crash then Printf.sprintf "crash_after: %d\n" c.sc_crash_after
     else "")
    (match checkpoint_every with
    | Some k -> Printf.sprintf "checkpoint_every: %d\n" k
    | None -> "")
    c.sc_noise c.sc_refusal c.sc_timeout
    (Core.Journal.sync_to_string c.sc_sync)

let serve_size c =
  c.sc_crash_after + c.sc_spec.Server.Engines.rows
  + c.sc_spec.Server.Engines.cities

let server_crash_resume =
  Spec
    { name = "server-crash-resume";
      about =
        "a session server killed after k answers recovers from its journals \
         to the same learned query";
      generate =
        (fun g ~size -> gen_serve_case g (gen_serve_session g ~size));
      check = (fun c -> check_server_crash_resume c);
      candidates = serve_candidates;
      print = (fun c -> print_serve_case c);
      size_of = serve_size;
    }

(* ------------------------------------------------------------------ *)

(* The same chaos contract with checkpoint compaction in the loop: with
   --checkpoint-every k the journal is periodically snapshotted and
   compacted down to header + checkpoint, so recovery restores the
   snapshot and replays only the tail — and must still converge to
   exactly the query the uninterrupted (checkpoint-free) run learns.
   This drives Journal.compact, split_checkpoint, and all three engine
   state codecs through arbitrary crash points. *)

type ck_case = { ck_base : serve_case; ck_every : int }

let journal_checkpoint_resume =
  Spec
    { name = "journal-checkpoint-resume";
      about =
        "a crashed session that checkpointed and compacted its journal \
         resumes from the snapshot to the same learned query";
      generate =
        (fun g ~size ->
          let session = gen_serve_session g ~size in
          let ck_every = Prng.int_in g 1 5 in
          { ck_base = gen_serve_case g session; ck_every });
      check =
        (fun c ->
          check_server_crash_resume ~checkpoint_every:c.ck_every c.ck_base);
      candidates =
        (fun c ->
          List.map (fun b -> { c with ck_base = b }) (serve_candidates c.ck_base)
          @ if c.ck_every > 1 then [ { c with ck_every = 1 } ] else []);
      print =
        (fun c -> print_serve_case ~checkpoint_every:c.ck_every c.ck_base);
      size_of = (fun c -> serve_size c.ck_base);
    }

(* ------------------------------------------------------------------ *)

(* The journal's torn-write contract against the fault-injecting storage
   backend: append records through a Vfs scripted with short writes,
   lying fsyncs, and torn crash truncation, pull the plug, and recover.
   Whatever survives must be a clean prefix of what was appended — a tear
   is truncation, never corruption — and under [Always] sync with honest
   fsyncs, every successfully appended record must survive. *)

type torn_case = {
  tw_seed : int;
  tw_records : int;
  tw_short : int;  (** permille *)
  tw_lying : int;  (** permille *)
  tw_torn : int;  (** permille *)
  tw_sync : Core.Journal.sync;
}

let check_vfs_torn_write c =
  with_temp_dir "learnq-fuzz-torn" (fun dir ->
      let path = Filename.concat dir "t.journal" in
      let disk =
        Core.Flaky.disk
          ~short_write:(float_of_int c.tw_short /. 1000.)
          ~lying_fsync:(float_of_int c.tw_lying /. 1000.)
          ~torn:(float_of_int c.tw_torn /. 1000.)
          ()
      in
      let vfs = Core.Vfs.faulty ~seed:c.tw_seed disk in
      let event i =
        if i mod 2 = 0 then Core.Journal.Asked (Printf.sprintf "item-%d" i)
        else
          Core.Journal.Answered
            ( Printf.sprintf "item-%d" (i - 1),
              Core.Flaky.Label (i mod 4 = 1) )
      in
      let created =
        Core.Journal.create_result ~sync:c.tw_sync ~vfs ~path
          { Core.Journal.seed = c.tw_seed;
            engine = "fuzz";
            config = "vfs-torn-write" }
      in
      (* Append until done or the scripted disk refuses; the refusal point
         is the crash point. *)
      let appended =
        match created with
        | Error _ -> []
        | Ok j ->
            let rec go i acc =
              if i >= c.tw_records then acc
              else
                let ev = event i in
                match Core.Journal.append j ev with
                | () -> go (i + 1) (ev :: acc)
                | exception Core.Journal.Io _ -> acc
            in
            let acc = go 0 [] in
            Core.Vfs.crash vfs;
            (* Release the (still live-process) lock; the file itself stays
               exactly as the crash left it. *)
            Core.Journal.abort j;
            List.rev acc
      in
      let is_prefix evs =
        let rec go = function
          | [], _ -> true
          | _ :: _, [] -> false
          | e :: es, a :: as_ -> e = a && go (es, as_)
        in
        go (evs, appended)
      in
      match Core.Journal.recover ~path with
      | Error (Core.Error.Corrupt_journal { offset; message; _ }) ->
          failf "torn write surfaced as corruption at %d: %s" offset message
      | Error (Core.Error.Parse { message; _ }) ->
          failf "torn write broke the journal framing: %s" message
      | Error _ -> Ok () (* e.g. the file never came into being *)
      | Ok r ->
          if not (is_prefix r.Core.Journal.events) then
            failf "recovered %d events are not a prefix of the %d appended"
              (List.length r.Core.Journal.events)
              (List.length appended)
          else if
            c.tw_sync = Core.Journal.Always
            && c.tw_lying = 0
            && Result.is_ok created
            && List.length r.Core.Journal.events < List.length appended
          then
            failf
              "Always-sync with honest fsyncs lost %d of %d appended \
               records to the crash"
              (List.length appended - List.length r.Core.Journal.events)
              (List.length appended)
          else Ok ())

let vfs_torn_write =
  Spec
    { name = "vfs-torn-write";
      about =
        "a journal crashed mid-write through the fault-injecting storage \
         backend recovers a clean prefix — torn tails truncate, never \
         corrupt, and fsynced records survive";
      generate =
        (fun g ~size ->
          {
            tw_seed = Prng.int g 1_000_000;
            tw_records = Prng.int_in g 1 (max 2 (min 60 (4 * size)));
            tw_short = Prng.int g 200;
            tw_lying = (if Prng.int g 2 = 0 then 0 else Prng.int g 300);
            tw_torn = Prng.int g 500;
            tw_sync =
              Prng.pick g
                [ Core.Journal.Always; Core.Journal.Batch; Core.Journal.Off ];
          });
      check = check_vfs_torn_write;
      candidates =
        (fun c ->
          List.concat
            [
              (if c.tw_records > 1 then
                 [ { c with tw_records = c.tw_records / 2 } ]
               else []);
              (if c.tw_short > 0 then [ { c with tw_short = 0 } ] else []);
              (if c.tw_lying > 0 then [ { c with tw_lying = 0 } ] else []);
              (if c.tw_torn > 0 then [ { c with tw_torn = 0 } ] else []);
              (if c.tw_sync <> Core.Journal.Always then
                 [ { c with tw_sync = Core.Journal.Always } ]
               else []);
            ]);
      print =
        (fun c ->
          Printf.sprintf
            "seed: %d\nrecords: %d\nshort/lying/torn: %d/%d/%d permille\n\
             sync: %s"
            c.tw_seed c.tw_records c.tw_short c.tw_lying c.tw_torn
            (Core.Journal.sync_to_string c.tw_sync));
      size_of = (fun c -> c.tw_records);
    }

(* ------------------------------------------------------------------ *)
(* telemetry-transparency: observability must not perturb learning     *)
(* ------------------------------------------------------------------ *)

(* The observability contract: traces, the flight recorder, and telemetry
   are {e pure observers}.  Driving the same session with everything on
   (telemetry in [Full] mode, a trace installed) and with everything off
   must produce the identical question transcript, the identical learned
   query, and byte-identical journals.  Stepper journal entries carry no
   timestamps, so any divergence means an observer leaked into the
   learning or persistence path.  The observed pass runs on a spawned
   domain, as [serve] runs sessions on pool domains, so the layer's
   worker-domain recording (counter shards, per-thread span stacks) is
   what gets checked. *)

(* One full session in a fresh state directory; returns
   (question transcript, final query, raw journal bytes). *)
let tt_run c client ~observe =
  with_temp_dir "learnq-fuzz-tt" (fun dir ->
      let reg =
        Server.Registry.create
          { (Server.Registry.default_config dir) with sync = c.sc_sync }
      in
      let body () = create_and_drive reg c client in
      let driven =
        Fun.protect
          ~finally:(fun () -> Server.Registry.drain reg)
          (fun () ->
            if observe then
              Domain.join
                (Domain.spawn (fun () ->
                     Core.Telemetry.Trace.with_trace "tt-fuzz-trace" body))
            else body ())
      in
      match driven with
      | Error _ as e -> e
      | Ok (keys, query) ->
          let bytes = read_file (Filename.concat dir "fuzz.s.journal") in
          Ok (keys, query, bytes))

let check_telemetry_transparency c =
  match Server.Engines.oracle c.sc_spec ~goal:c.sc_goal with
  | Error e -> failf "bad goal for spec: %s" (Core.Error.to_string e)
  | Ok truth ->
  let client = serve_client c truth in
  (* Save and force the observability state around each run so the oracle
     composes with whatever the harness set up. *)
  let saved = Core.Telemetry.mode () in
  Fun.protect
    ~finally:(fun () -> Core.Telemetry.set_mode saved)
    (fun () ->
      Core.Telemetry.set_mode Core.Telemetry.Full;
      let on = tt_run c client ~observe:true in
      Core.Telemetry.set_mode Core.Telemetry.Off;
      let off = tt_run c client ~observe:false in
      match (on, off) with
      | (Error _ as e), _ | _, (Error _ as e) -> e
      | Ok (keys_on, q_on, bytes_on), Ok (keys_off, q_off, bytes_off) ->
          if keys_on <> keys_off then
            failf "observability changed the question transcript (%d vs %d \
                   questions)"
              (List.length keys_on) (List.length keys_off)
          else if q_on <> q_off then
            failf "observability changed the learned query:\non:  %s\noff: %s"
              (Option.value ~default:"<none>" q_on)
              (Option.value ~default:"<none>" q_off)
          else if bytes_on <> bytes_off then
            failf "observability changed the journal bytes (%d vs %d bytes)"
              (String.length bytes_on) (String.length bytes_off)
          else Ok ())

let telemetry_transparency =
  Spec
    { name = "telemetry-transparency";
      about =
        "a session driven with tracing, flight recorder, and telemetry on \
         produces the same transcript, query, and journal bytes as with \
         everything off";
      generate =
        (fun g ~size ->
          gen_serve_case ~crash:false g (gen_serve_session g ~size));
      check = check_telemetry_transparency;
      candidates = serve_candidates;
      print = print_serve_case ~crash:false;
      size_of = serve_size;
    }

(* ------------------------------------------------------------------ *)
(* xmlstore-eval: index-backed twig evaluation (containment labels +   *)
(* inverted lists + structural joins) ≡ the tree-walk reference, plus  *)
(* store persistence round-trips byte-stably                           *)
(* ------------------------------------------------------------------ *)

let check_xmlstore_eval (t, qs) =
  let store = Xmlstore.Store.of_tree t in
  let paths = Tree.all_paths t in
  (* The store's path addressing must agree with the tree's. *)
  let* () =
    check_all
      (fun p ->
        match Xmlstore.Store.id_of_path store p with
        | None -> failf "id_of_path lost node %s" (pstr Tree.pp_path p)
        | Some id ->
            let p' = Xmlstore.Store.path_of_id store id in
            if p = p' then Ok ()
            else
              failf "path round trip %s -> %d -> %s" (pstr Tree.pp_path p) id
                (pstr Tree.pp_path p'))
      paths
  in
  (* Reload from bytes: same bytes out, same answers. *)
  let bytes = Xmlstore.Store.to_bytes store in
  match Xmlstore.Store.of_bytes bytes with
  | Error e -> failf "of_bytes(to_bytes store) failed: %s" e
  | Ok store' when not (Bytes.equal (Xmlstore.Store.to_bytes store') bytes) ->
      failf "persisted store is not byte-stable across a reload"
  | Ok store' ->
  check_all
    (fun q ->
      let pat = Twig.Eval.to_pattern q in
      let walked = Twig.Eval.select_walk q t in
      check_all
        (fun (tag, st) ->
          let indexed = Xmlstore.Twigjoin.select_paths st pat in
          if indexed <> walked then
            failf "%s: indexed [%s] but tree-walk [%s] for %s" tag
              (String.concat "; " (List.map (pstr Tree.pp_path) indexed))
              (String.concat "; " (List.map (pstr Tree.pp_path) walked))
              (Query.to_string q)
          else
            (* Per-node membership through the joined id set must match
               the walk at every node, not just on the selected list. *)
            let ids = Xmlstore.Twigjoin.select_array st pat in
            let mask = Array.make (Xmlstore.Store.size st) false in
            Array.iter (fun id -> mask.(id) <- true) ids;
            check_all
              (fun p ->
                let member =
                  match Xmlstore.Store.id_of_path st p with
                  | Some id -> mask.(id)
                  | None -> false
                in
                let walk_member = List.mem p walked in
                if member = walk_member then Ok ()
                else
                  failf "%s: membership %b but tree-walk %b at %s for %s" tag
                    member walk_member (pstr Tree.pp_path p)
                    (Query.to_string q))
              paths)
        [ ("fresh", store); ("reloaded", store') ])
    qs

let xmlstore_eval =
  Spec
    { name = "xmlstore-eval";
      about =
        "index-backed Twigjoin ≡ tree-walk Eval on random trees and twigs; \
         store round-trip is byte-stable";
      generate =
        (fun g ~size ->
          let t = Gen.tree g ~size:(max 2 size) in
          let qs =
            List.init 3 (fun _ ->
                if Prng.bool g then Gen.twig g ~size:(max 2 (size / 2))
                else Gen.anchored_twig g ~size:(max 2 (size / 2)))
          in
          (t, qs));
      check = check_xmlstore_eval;
      candidates =
        (fun (t, qs) ->
          List.map (fun t' -> (t', qs)) (Shrink.tree t)
          @ List.map (fun qs' -> (t, qs')) (Shrink.list_ Shrink.twig qs));
      print =
        (fun (t, qs) ->
          Tree.to_string t ^ "\n"
          ^ String.concat "\n" (List.map Query.to_string qs));
      size_of =
        (fun (t, qs) ->
          Tree.size t + List.fold_left (fun n q -> n + Query.size q) 0 qs);
    }

(* ------------------------------------------------------------------ *)

let all =
  [ eval_cache;
    xmlstore_eval;
    filter_contain_vs_eval;
    contain_vs_eval;
    lgg_incremental;
    interact_batch;
    journal_resume;
    rpq_naive;
    roundtrip_twig;
    roundtrip_xml;
    roundtrip_csv;
    roundtrip_dms;
    docgen_infer;
    validate_agree;
    parser_total;
    http_incremental_parse;
    server_crash_resume;
    journal_checkpoint_resume;
    vfs_torn_write;
    telemetry_transparency;
  ]

let find n = List.find_opt (fun o -> name o = n) all

(* An oracle that flips the process-global telemetry mode cannot overlap
   other oracles without perturbing them; the parallel runner keeps it on
   the calling domain.  Everything else confines its state to locals,
   unique temp files (the server oracles drive a registry in a temp dir of
   their own), or Domain.DLS caches. *)
let serial_names = [ "telemetry-transparency" ]

let serial o = List.mem (name o) serial_names
