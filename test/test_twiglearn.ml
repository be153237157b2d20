(* Tests for the twig learners: positive-example learning, consistency,
   unions, schema-aware pruning, interactive sessions. *)

let query_testable = Alcotest.testable Twig.Query.pp Twig.Query.equal

let ann doc path = Xmltree.Annotated.make doc path

(* ------------------------------------------------------------------ *)
(* Positive learner                                                    *)
(* ------------------------------------------------------------------ *)

let test_learn_single_example () =
  let d = Xmltree.Parse.term "site(people(person(name)))" in
  match Twiglearn.Positive.learn_positive [ ann d [ 0; 0; 0 ] ] with
  | Some q ->
      Alcotest.(check bool) "selects the example" true
        (Twig.Eval.selects q d [ 0; 0; 0 ]);
      Alcotest.(check bool) "anchored" true (Twig.Query.is_anchored q)
  | None -> Alcotest.fail "single example must be learnable"

let test_learn_generalizes () =
  let d1 = Xmltree.Parse.term "site(regions(africa(item(name,location))))" in
  let d2 = Xmltree.Parse.term "site(regions(asia(item(name,payment))))" in
  match
    Twiglearn.Positive.learn_positive
      [ ann d1 [ 0; 0; 0; 0 ]; ann d2 [ 0; 0; 0; 0 ] ]
  with
  | Some q ->
      Alcotest.check query_testable "wildcard region, common filter dropped"
        (Twig.Parse.query "/site/regions/*/item/name")
        q
  | None -> Alcotest.fail "learning must succeed"

let test_learn_keeps_common_filter () =
  let d1 = Xmltree.Parse.term "r(item(name,location),item(name))" in
  let d2 = Xmltree.Parse.term "r(item(location,name,extra))" in
  match Twiglearn.Positive.learn_positive [ ann d1 [ 0 ]; ann d2 [ 0 ] ] with
  | Some q ->
      Alcotest.(check bool) "location filter kept" true
        (Twig.Contain.subsumed q (Twig.Parse.query "/r/item[location][name]"))
  | None -> Alcotest.fail "learning must succeed"

let test_learn_empty () =
  Alcotest.(check bool) "no examples" true
    (Twiglearn.Positive.learn_positive [] = None)

let test_learn_different_output_labels () =
  (* Annotated nodes with different labels force a wildcard output: outside
     the anchored class. *)
  let d = Xmltree.Parse.term "r(a,b)" in
  Alcotest.(check bool) "rejected" true
    (Twiglearn.Positive.learn_positive [ ann d [ 0 ]; ann d [ 1 ] ] = None)

let test_learn_path () =
  let d1 = Xmltree.Parse.term "site(regions(africa(item(name,location))))" in
  let d2 = Xmltree.Parse.term "site(regions(asia(item(name,location))))" in
  match
    Twiglearn.Positive.learn_path [ ann d1 [ 0; 0; 0; 0 ]; ann d2 [ 0; 0; 0; 0 ] ]
  with
  | Some q ->
      Alcotest.(check bool) "no filters" true (Twig.Query.is_path q);
      Alcotest.check query_testable "path query"
        (Twig.Parse.query "/site/regions/*/item/name")
        q
  | None -> Alcotest.fail "path learning must succeed"

(* On XMark documents, the learner converges to the goal semantics with a
   handful of cross-document examples — the E1 claim in miniature. *)
let test_learn_xmark_convergence () =
  let goal = Twig.Parse.query "//person[profile]/name" in
  let docs =
    List.init 6 (fun i -> Benchkit.Xmark.generate ~scale:2.0 ~seed:(40 + i) ())
  in
  let exs =
    List.concat_map
      (fun d ->
        match Twig.Eval.select goal d with
        | p :: rest ->
            let last = List.fold_left (fun _ x -> x) p rest in
            if last = p then [ ann d p ] else [ ann d p; ann d last ]
        | [] -> [])
      docs
  in
  Alcotest.(check bool) "enough witnesses" true (List.length exs >= 6);
  match Twiglearn.Positive.learn_positive exs with
  | None -> Alcotest.fail "learning must succeed"
  | Some q ->
      List.iter
        (fun seed ->
          let fresh = Benchkit.Xmark.generate ~scale:2.0 ~seed () in
          Alcotest.(check (list (list int)))
            (Printf.sprintf "same answers on fresh doc %d" seed)
            (Twig.Eval.select goal fresh) (Twig.Eval.select q fresh))
        [ 500; 777; 999 ]

(* ------------------------------------------------------------------ *)
(* Consistency                                                         *)
(* ------------------------------------------------------------------ *)

let test_consistency_anchored_positive () =
  let d = Xmltree.Parse.term "r(item(location),item(extra))" in
  let examples =
    [
      Core.Example.positive (ann d [ 0 ]);
      Core.Example.negative (ann d [ 1 ]);
    ]
  in
  match Twiglearn.Consistency.anchored examples with
  | Some q ->
      Alcotest.(check bool) "selects positive" true
        (Twig.Eval.selects q d [ 0 ]);
      Alcotest.(check bool) "rejects negative" false
        (Twig.Eval.selects q d [ 1 ])
  | None -> Alcotest.fail "sample is consistent"

let test_consistency_anchored_negative () =
  (* Two identical subtrees, one positive one negative: inconsistent. *)
  let d = Xmltree.Parse.term "r(item(name),item(name))" in
  let examples =
    [
      Core.Example.positive (ann d [ 0 ]);
      Core.Example.negative (ann d [ 1 ]);
    ]
  in
  Alcotest.(check bool) "inconsistent" false
    (Twiglearn.Consistency.anchored_consistent examples)

let test_bounded_search_finds () =
  let d = Xmltree.Parse.term "r(item(location),item(extra))" in
  let examples =
    [
      Core.Example.positive (ann d [ 0 ]);
      Core.Example.negative (ann d [ 1 ]);
    ]
  in
  match Twiglearn.Consistency.bounded ~max_size:3 examples with
  | Some q ->
      Alcotest.(check bool) "consistent" true
        (Core.Example.consistent_with Twig.Eval.selects_example q examples)
  | None -> Alcotest.fail "a small consistent twig exists"

let test_bounded_search_exhausts () =
  let d = Xmltree.Parse.term "r(item(name),item(name))" in
  let examples =
    [
      Core.Example.positive (ann d [ 0 ]);
      Core.Example.negative (ann d [ 1 ]);
    ]
  in
  Alcotest.(check bool) "no consistent twig at all" true
    (Twiglearn.Consistency.bounded ~max_size:4 examples = None)

(* Fuel exhaustion is deterministic: the same budget trips at the same
   candidate, and Fallback degrades to exactly what the approximate learner
   would produce on its own. *)
let test_fallback_degrades_deterministically () =
  let d = Xmltree.Parse.term "r(a(b),a(b))" in
  let examples =
    [
      Core.Example.positive (ann d [ 0 ]);
      Core.Example.negative (ann d [ 1 ]);
    ]
  in
  (* No twig separates identical siblings, so the exact search would burn
     through the whole size-6 space; 50 fuel stops it almost immediately. *)
  let budget = Core.Budget.create ~fuel:50 () in
  let outcome = Twiglearn.Fallback.learn ~budget ~max_size:6 examples in
  Alcotest.(check bool) "degraded" true outcome.degraded;
  (match outcome.level with
  | Twiglearn.Fallback.Approximate -> ()
  | _ -> Alcotest.fail "anchored cannot separate identical siblings either");
  let approx =
    match Twiglearn.Approximate.learn examples with
    | Some r -> r
    | None -> Alcotest.fail "approximate learner must produce a query"
  in
  (match outcome.query with
  | Some q ->
      Alcotest.check query_testable "fallback = approximate learner" approx.query q
  | None -> Alcotest.fail "fallback must surface the approximate query");
  Alcotest.(check int) "dropped annotations reported"
    (List.length approx.dropped) outcome.dropped;
  Alcotest.(check bool) "budget spend reported" true
    (outcome.spent.fuel_spent >= 50);
  (* Same fuel, same trip point: the outcome is reproducible. *)
  let again =
    Twiglearn.Fallback.learn ~budget:(Core.Budget.create ~fuel:50 ()) ~max_size:6
      examples
  in
  Alcotest.(check int) "deterministic fuel accounting"
    outcome.spent.fuel_spent again.spent.fuel_spent

let test_fallback_exact_with_room () =
  let d = Xmltree.Parse.term "r(item(location),item(extra))" in
  let examples =
    [
      Core.Example.positive (ann d [ 0 ]);
      Core.Example.negative (ann d [ 1 ]);
    ]
  in
  let outcome =
    Twiglearn.Fallback.learn
      ~budget:(Core.Budget.create ~fuel:1_000_000 ())
      ~max_size:3 examples
  in
  Alcotest.(check bool) "not degraded" false outcome.degraded;
  match (outcome.level, outcome.query) with
  | Twiglearn.Fallback.Exact, Some q ->
      Alcotest.(check bool) "consistent" true
        (Core.Example.consistent_with Twig.Eval.selects_example q examples)
  | _ -> Alcotest.fail "a generous budget must reach the exact rung"

let test_enumerate_counts () =
  let n1 = Twiglearn.Enumerate.count ~alphabet:[ "a" ] ~max_nodes:1 () in
  (* Spines of one node: 2 axes times 2 tests (label a or wildcard); no
     filters fit in the budget. *)
  Alcotest.(check int) "four one-node queries" 4 n1;
  let n2 = Twiglearn.Enumerate.count ~alphabet:[ "a" ] ~max_nodes:2 () in
  Alcotest.(check bool) "grows" true (n2 > n1);
  Alcotest.(check bool) "exponential growth" true
    (Twiglearn.Enumerate.count ~alphabet:[ "a"; "b" ] ~max_nodes:4 () > 10 * n2)

(* ------------------------------------------------------------------ *)
(* Union learner                                                       *)
(* ------------------------------------------------------------------ *)

let test_union_two_clusters () =
  (* Positives with different labels cannot be one anchored twig, but a
     union covers them. *)
  let d = Xmltree.Parse.term "r(a(x),b(y),c)" in
  let examples =
    [
      Core.Example.positive (ann d [ 0 ]);
      Core.Example.positive (ann d [ 1 ]);
      Core.Example.negative (ann d [ 2 ]);
    ]
  in
  Alcotest.(check bool) "trivial consistency" true
    (Twiglearn.Union.consistent examples);
  match Twiglearn.Union.learn examples with
  | Some union ->
      Alcotest.(check int) "two twigs" 2 (List.length union);
      Alcotest.(check bool) "selects both positives" true
        (Twiglearn.Union.selects union (ann d [ 0 ])
        && Twiglearn.Union.selects union (ann d [ 1 ]));
      Alcotest.(check bool) "rejects negative" false
        (Twiglearn.Union.selects union (ann d [ 2 ]))
  | None -> Alcotest.fail "union learnable"

let test_union_merges_when_possible () =
  let d = Xmltree.Parse.term "r(a(x),a(y),b)" in
  let examples =
    [
      Core.Example.positive (ann d [ 0 ]);
      Core.Example.positive (ann d [ 1 ]);
      Core.Example.negative (ann d [ 2 ]);
    ]
  in
  match Twiglearn.Union.learn examples with
  | Some union -> Alcotest.(check int) "one cluster suffices" 1 (List.length union)
  | None -> Alcotest.fail "union learnable"

let test_union_inconsistent () =
  let d = Xmltree.Parse.term "r(a,a)" in
  let examples =
    [
      Core.Example.positive (ann d [ 0 ]);
      Core.Example.negative (ann d [ 1 ]);
    ]
  in
  Alcotest.(check bool) "detected" false (Twiglearn.Union.consistent examples);
  Alcotest.(check bool) "learn refuses" true (Twiglearn.Union.learn examples = None)

(* ------------------------------------------------------------------ *)
(* Schema-aware learning                                               *)
(* ------------------------------------------------------------------ *)

let test_prune_drops_implied () =
  let g = Uschema.Depgraph.of_schema Benchkit.Xmark.schema in
  let q = Twig.Parse.query "/site/people/person[name][emailaddress][profile]/name" in
  let pruned = Twiglearn.Schema_aware.prune g q in
  (* name and emailaddress are required of person; profile is optional. *)
  Alcotest.check query_testable "only profile survives"
    (Twig.Parse.query "/site/people/person[profile]/name")
    pruned

let test_prune_keeps_wildcards () =
  let g = Uschema.Depgraph.of_schema Benchkit.Xmark.schema in
  let q = Twig.Parse.query "/site/regions/*[item]/item/name" in
  let pruned = Twiglearn.Schema_aware.prune g q in
  Alcotest.check query_testable "wildcard hosts untouched" q pruned

let test_prune_recurses_into_filters () =
  let g = Uschema.Depgraph.of_schema Benchkit.Xmark.schema in
  (* Inside the profile filter, @income is required and age optional. *)
  let q = Twig.Parse.query "//person[profile[@income][age]]/name" in
  let pruned = Twiglearn.Schema_aware.prune g q in
  Alcotest.check query_testable "inner implied filter dropped"
    (Twig.Parse.query "//person[profile[age]]/name")
    pruned

let test_schema_aware_learn_shrinks () =
  let goal = Twig.Parse.query "//person[profile]/name" in
  let docs =
    List.init 4 (fun i -> Benchkit.Xmark.generate ~scale:2.0 ~seed:(60 + i) ())
  in
  let exs =
    List.filter_map
      (fun d ->
        match Twig.Eval.select goal d with
        | p :: _ -> Some (ann d p)
        | [] -> None)
      docs
  in
  match Twiglearn.Schema_aware.size_reduction ~schema:Benchkit.Xmark.schema exs with
  | Some (before, after) ->
      Alcotest.(check bool) "strictly smaller" true (after < before);
      Alcotest.(check bool) "substantially smaller" true
        (float_of_int after < 0.5 *. float_of_int before)
  | None -> Alcotest.fail "learning must succeed"

(* ------------------------------------------------------------------ *)
(* N-ary tuple extraction                                              *)
(* ------------------------------------------------------------------ *)

let test_nary_lca () =
  Alcotest.(check (list int)) "common prefix" [ 0; 1 ]
    (Twiglearn.Nary.lca [ [ 0; 1; 0 ]; [ 0; 1; 2; 0 ] ]);
  Alcotest.(check (list int)) "identical" [ 0; 1 ]
    (Twiglearn.Nary.lca [ [ 0; 1 ]; [ 0; 1 ] ]);
  Alcotest.(check (list int)) "root" []
    (Twiglearn.Nary.lca [ [ 0 ]; [ 1 ] ])

let nary_doc =
  Xmltree.Parse.term
    "people(person(name(#Aki),address(city(#Tampa))),\
     person(name(#Bea),address(city(#Lille))))"

let test_nary_learn_and_extract () =
  (* Two annotated (name, city) tuples. *)
  let examples =
    [
      Twiglearn.Nary.example nary_doc [ [ 0; 0 ]; [ 0; 1; 0 ] ];
      Twiglearn.Nary.example nary_doc [ [ 1; 0 ]; [ 1; 1; 0 ] ];
    ]
  in
  match Twiglearn.Nary.learn examples with
  | None -> Alcotest.fail "tuple query learnable"
  | Some q ->
      Alcotest.(check int) "binary" 2 (List.length q.columns);
      let values = Twiglearn.Nary.extract_values q nary_doc in
      Alcotest.(check (list (list string))) "both tuples"
        [ [ "Aki"; "Tampa" ]; [ "Bea"; "Lille" ] ]
        values;
      (* Works on a fresh document of the same shape. *)
      let fresh =
        Xmltree.Parse.term
          "people(person(name(#Cy),address(city(#Kyoto))))"
      in
      Alcotest.(check (list (list string))) "fresh doc"
        [ [ "Cy"; "Kyoto" ] ]
        (Twiglearn.Nary.extract_values q fresh)

let test_nary_anchor_column () =
  (* A unary tuple whose component IS the anchor. *)
  let examples = [ Twiglearn.Nary.example nary_doc [ [ 0 ] ] ] in
  match Twiglearn.Nary.learn examples with
  | None -> Alcotest.fail "learnable"
  | Some q ->
      Alcotest.(check bool) "empty projection" true (List.hd q.columns = []);
      Alcotest.(check int) "selects both persons" 2
        (List.length (Twiglearn.Nary.extract q nary_doc))

let test_nary_wildcard_generalization () =
  let d =
    Xmltree.Parse.term "r(row(a(#1),k1(v(#x))),row(a(#2),k2(v(#y))))"
  in
  let examples =
    [
      Twiglearn.Nary.example d [ [ 0; 0 ]; [ 0; 1; 0 ] ];
      Twiglearn.Nary.example d [ [ 1; 0 ]; [ 1; 1; 0 ] ];
    ]
  in
  match Twiglearn.Nary.learn examples with
  | None -> Alcotest.fail "learnable"
  | Some q ->
      (* k1 vs k2 merge into a wildcard step. *)
      Alcotest.(check bool) "wildcard in projection" true
        (List.exists (List.mem Twig.Query.Wildcard) q.columns);
      Alcotest.(check int) "both tuples extracted" 2
        (List.length (Twiglearn.Nary.extract q d))

let test_nary_depth_mismatch () =
  let d = Xmltree.Parse.term "r(row(a(#1)),row(deep(a(#2))))" in
  let examples =
    [
      Twiglearn.Nary.example d [ [ 0 ]; [ 0; 0 ] ];
      Twiglearn.Nary.example d [ [ 1 ]; [ 1; 0; 0 ] ];
    ]
  in
  Alcotest.(check bool) "outside the class" true
    (Twiglearn.Nary.learn examples = None)

let test_nary_to_relation () =
  let examples =
    [
      Twiglearn.Nary.example nary_doc [ [ 0; 0 ]; [ 0; 1; 0 ] ];
      Twiglearn.Nary.example nary_doc [ [ 1; 0 ]; [ 1; 1; 0 ] ];
    ]
  in
  match Twiglearn.Nary.learn examples with
  | None -> Alcotest.fail "learnable"
  | Some q ->
      let rel =
        Twiglearn.Nary.to_relation ~name:"people" ~attrs:[ "name"; "city" ] q
          nary_doc
      in
      Alcotest.(check int) "two rows" 2 (Relational.Relation.cardinal rel);
      Alcotest.(check bool) "row content" true
        (Relational.Relation.mem
           [| Relational.Value.Str "Aki"; Relational.Value.Str "Tampa" |]
           rel)

(* ------------------------------------------------------------------ *)
(* Approximate learning                                                *)
(* ------------------------------------------------------------------ *)

let test_approximate_consistent_sample_unchanged () =
  let d = Xmltree.Parse.term "r(item(location),item(extra))" in
  let examples =
    [
      Core.Example.positive (ann d [ 0 ]);
      Core.Example.negative (ann d [ 1 ]);
    ]
  in
  match Twiglearn.Approximate.learn examples with
  | None -> Alcotest.fail "learnable"
  | Some result ->
      Alcotest.(check int) "nothing dropped" 0 (List.length result.dropped);
      Alcotest.(check int) "no training errors" 0 result.training_errors

let test_approximate_drops_noise () =
  (* Two identical subtrees labeled oppositely: inconsistent; dropping one
     annotation restores consistency. *)
  let d = Xmltree.Parse.term "r(item(name),item(name),widget)" in
  let examples =
    [
      Core.Example.positive (ann d [ 0 ]);
      Core.Example.negative (ann d [ 1 ]);
      Core.Example.negative (ann d [ 2 ]);
    ]
  in
  Alcotest.(check bool) "exact learner refuses" true
    (Twiglearn.Consistency.anchored examples = None);
  match Twiglearn.Approximate.learn examples with
  | None -> Alcotest.fail "approximate learner must cope"
  | Some result ->
      Alcotest.(check int) "one annotation ignored" 1
        (List.length result.dropped);
      Alcotest.(check int) "no remaining errors" 0 result.training_errors;
      (* The widget negative must still be respected. *)
      Alcotest.(check bool) "clean negative respected" false
        (Twig.Eval.selects_example result.query (ann d [ 2 ]))

let test_approximate_budget () =
  let d = Xmltree.Parse.term "r(item(name),item(name))" in
  let examples =
    [
      Core.Example.positive (ann d [ 0 ]);
      Core.Example.negative (ann d [ 1 ]);
    ]
  in
  match Twiglearn.Approximate.learn ~max_dropped:0 examples with
  | None -> Alcotest.fail "still returns a best effort"
  | Some result ->
      Alcotest.(check int) "no drops allowed" 0 (List.length result.dropped);
      Alcotest.(check int) "conflict reported as error" 1
        result.training_errors

(* ------------------------------------------------------------------ *)
(* LGG ablation flags                                                  *)
(* ------------------------------------------------------------------ *)

let test_ablation_naive_product_still_sound () =
  let d1 = Xmltree.Parse.term "r(i(a,b),j)" and d2 = Xmltree.Parse.term "r(i(a,c))" in
  let q1 = Twig.Query.of_example d1 [ 0 ] and q2 = Twig.Query.of_example d2 [ 0 ] in
  let g = Twig.Lgg.lgg ~label_guided:false q1 q2 in
  Alcotest.(check bool) "contains q1" true (Twig.Contain.subsumed q1 g);
  Alcotest.(check bool) "contains q2" true (Twig.Contain.subsumed q2 g);
  Alcotest.(check bool) "selects both examples" true
    (Twig.Eval.selects g d1 [ 0 ] && Twig.Eval.selects g d2 [ 0 ])

let test_ablation_rescue_matters () =
  (* Same label at different depths: only the rescue keeps it. *)
  let d1 = Xmltree.Parse.term "r(i(t(k)))" and d2 = Xmltree.Parse.term "r(i(p(t(k))))" in
  let q1 = Twig.Query.of_example d1 [ 0 ] and q2 = Twig.Query.of_example d2 [ 0 ] in
  let with_rescue = Twig.Lgg.lgg ~rescue:true q1 q2 in
  let without = Twig.Lgg.lgg ~rescue:false q1 q2 in
  let mentions_k q = List.mem "k" (Twig.Query.labels q) in
  Alcotest.(check bool) "rescued keeps k" true (mentions_k with_rescue);
  Alcotest.(check bool) "ablated loses k" false (mentions_k without)

(* ------------------------------------------------------------------ *)
(* Interactive                                                         *)
(* ------------------------------------------------------------------ *)

let test_interactive_consistent_with_oracle () =
  let doc = Benchkit.Xmark.generate ~scale:1.0 ~seed:5 () in
  let goal = Twig.Parse.query "//person/name" in
  let outcome = Twiglearn.Interactive.run_with_goal ~doc ~goal () in
  match outcome.query with
  | None -> Alcotest.fail "a candidate must exist"
  | Some q ->
      List.iter
        (fun (item, label) ->
          Alcotest.(check bool) "answers respected" label
            (Twig.Eval.selects_example q item))
        outcome.asked

let test_interactive_prunes_most_nodes () =
  let doc = Benchkit.Xmark.generate ~scale:1.0 ~seed:6 () in
  let goal = Twig.Parse.query "//item/location" in
  let outcome = Twiglearn.Interactive.run_with_goal ~doc ~goal () in
  (* The labelable pool excludes text nodes. *)
  let pool = List.length (Twiglearn.Interactive.items_of_doc doc) in
  Alcotest.(check int) "pool covered" pool (outcome.questions + outcome.pruned);
  Alcotest.(check bool) "most nodes pruned, not asked" true
    (outcome.pruned > pool / 2)

let test_interactive_label_diverse_cheaper () =
  let doc = Benchkit.Xmark.generate ~scale:1.0 ~seed:6 () in
  let goal = Twig.Parse.query "//open_auction[bidder]/current" in
  let naive = Twiglearn.Interactive.run_with_goal ~doc ~goal () in
  let diverse =
    Twiglearn.Interactive.run_with_goal
      ~strategy:Twiglearn.Interactive.label_diverse_strategy ~doc ~goal ()
  in
  Alcotest.(check bool) "diverse asks fewer questions" true
    (diverse.questions < naive.questions);
  match diverse.query with
  | None -> Alcotest.fail "candidate expected"
  | Some q ->
      Alcotest.(check (list (list int))) "answers recovered"
        (Twig.Eval.select goal doc) (Twig.Eval.select q doc)

(* ------------------------------------------------------------------ *)
(* Hot path: incremental LGG and the spine precheck                   *)
(* ------------------------------------------------------------------ *)

let qcheck = QCheck_alcotest.to_alcotest

let hotpath_goals =
  [| "//person/name"; "//item[location]/name"; "//open_auction/current" |]

let hotpath_witnesses ~seed ~goal_idx =
  let doc = Benchkit.Xmark.generate ~scale:0.3 ~seed () in
  let goal = Twig.Parse.query hotpath_goals.(goal_idx) in
  (doc, List.map (ann doc) (Twig.Eval.select goal doc))

(* The incremental accumulator is the batch fold's intermediate value, so
   folding [add] over any example sequence and then [candidate] must produce
   exactly [learn_positive] on the same list — including agreeing on [None]
   when the sequence leaves the anchored fragment (the poisoned case appends
   the root, whose label differs from every witness's). *)
let prop_incremental_equals_batch =
  QCheck.Test.make ~name:"incremental lgg ≡ batch lgg (xmark)" ~count:25
    QCheck.(triple (int_bound 1000) (int_bound 2) bool)
    (fun (seed, goal_idx, poison) ->
      let doc, witnesses = hotpath_witnesses ~seed ~goal_idx in
      let items = if poison then witnesses @ [ ann doc [] ] else witnesses in
      let module I = Twiglearn.Positive.Incremental in
      let batch = Twiglearn.Positive.learn_positive items in
      let inc = I.candidate (List.fold_left I.add I.empty items) in
      match (batch, inc) with
      | None, None -> true
      | Some b, Some i -> Twig.Query.equal b i
      | _ -> false)

(* [extend_consistent] skips the minimize of [candidate ∘ add]; the contract
   is that the raw result is selection-equivalent to the minimized one, and
   that both agree on leaving the fragment. *)
let prop_extend_consistent_equiv =
  QCheck.Test.make ~name:"extend_consistent ≡ candidate ∘ add" ~count:10
    QCheck.(pair (int_bound 1000) (int_bound 2))
    (fun (seed, goal_idx) ->
      let _, witnesses = hotpath_witnesses ~seed ~goal_idx in
      let module I = Twiglearn.Positive.Incremental in
      let rec go acc = function
        | [] -> true
        | item :: rest ->
            let ok =
              match (I.extend_consistent acc item, I.candidate (I.add acc item)) with
              | None, None -> true
              | Some raw, Some q -> Twig.Contain.equiv raw q
              | _ -> false
            in
            ok && go (I.add acc item) rest
      in
      go I.empty witnesses)

(* Sessions on one document object share the per-domain [Twig.Eval]
   cache.  A [//a] session run after a [//c/a[a]] session on the same
   document must still learn what it learns on its own copy: nothing
   derived from the first session's negatives may close an item for the
   second. *)
let test_probe_memo_isolates_sessions () =
  let term = "b(c(c(c),a(a),d),a(c,b,d,b),a(d),c(d(c,d,b)))" in
  let learn doc goal =
    let goal = Twig.Parse.query goal in
    let o = Twiglearn.Interactive.run_with_goal ~doc ~goal () in
    ( o.Twiglearn.Interactive.Loop.questions,
      Option.map Twig.Query.to_string o.Twiglearn.Interactive.Loop.query )
  in
  let shared = Xmltree.Parse.term term in
  ignore (learn shared "//c/a[a]");
  let after = learn shared "//a" in
  let alone = learn (Xmltree.Parse.term term) "//a" in
  Alcotest.(check (pair int (option string)))
    "same session after another on the shared document" alone after;
  Alcotest.(check (option string)) "learned alone" (Some "/b[a/d][c/d]//a")
    (snd alone)

(* Checkpoints always write [twig1]; a [twig1 batch] snapshot, written by
   sessions of the retired batch mode, still decodes and refolds into the
   same incremental state. *)
let test_decode_batch_snapshot () =
  let module TI = Twiglearn.Interactive in
  let doc = Benchkit.Xmark.generate ~scale:0.3 ~seed:5 () in
  let goal = Twig.Parse.query "//person/name" in
  let o = TI.run_with_goal ~doc ~goal () in
  let snap = TI.encode_state o.TI.Loop.state in
  let header, body =
    match String.index_opt snap '\n' with
    | Some i -> (String.sub snap 0 i, String.sub snap i (String.length snap - i))
    | None -> (snap, "")
  in
  Alcotest.(check string) "header" "twig1" header;
  Alcotest.(check bool) "labels recorded" true (body <> "");
  match TI.decode_state ~doc ("twig1 batch" ^ body) with
  | Error e -> Alcotest.fail e
  | Ok st ->
      Alcotest.(check string) "re-encodes as twig1" snap (TI.encode_state st);
      Alcotest.(check (option string)) "same candidate"
        (Option.map Twig.Query.to_string o.TI.Loop.query)
        (Option.map Twig.Query.to_string (TI.Session.candidate st))

(* perfbench's learn-twig session: its first positive is question 610 of
   612, and the spine precheck settles most probes after it without a
   full merge.  The precheck changes no question, so these counts are what
   notices if it is switched off (without it, 591 full merges).  Every
   [add] is a recorded positive (a [twig.lgg.inc] span) or a probe's full
   merge (a [twig.lgg.probe] span). *)
let test_spine_precheck_settles_probes () =
  let module T = Core.Telemetry in
  let doc = Benchkit.Xmark.generate ~scale:3. ~seed:7 () in
  let goal = Twig.Parse.query "//person[profile/education]/name" in
  T.reset ();
  T.set_mode T.Full;
  Fun.protect ~finally:T.reset @@ fun () ->
  let o = Twiglearn.Interactive.run_with_goal ~doc ~goal () in
  let count name = T.Metrics.counter_value (T.Metrics.counter name) in
  let closed = count "learnq.twiglearn.spine_closed"
  and merges = count "learnq.twiglearn.lgg_inc_calls" in
  let spans name =
    List.find_map
      (fun (n, k, _, _) -> if n = name then Some k else None)
      (T.span_aggregates ())
    |> Option.value ~default:0
  in
  let positives = spans "twig.lgg.inc" in
  Alcotest.(check int) "questions" 612 o.Twiglearn.Interactive.Loop.questions;
  Alcotest.(check int) "one interact.scan span per advance" 613
    (spans "interact.scan");
  Alcotest.(check bool) "some positive recorded" true (positives > 0);
  Alcotest.(check int) "one twig.lgg.probe span per probe merge"
    (merges - positives) (spans "twig.lgg.probe");
  Alcotest.(check bool)
    (Printf.sprintf ">= 570 probes closed on the spine (got %d)" closed)
    true (closed >= 570);
  Alcotest.(check bool)
    (Printf.sprintf "<= 20 full merges (got %d)" merges)
    true (merges <= 20)

let () =
  Alcotest.run "twiglearn"
    [
      ( "positive",
        [
          Alcotest.test_case "single example" `Quick test_learn_single_example;
          Alcotest.test_case "generalizes" `Quick test_learn_generalizes;
          Alcotest.test_case "keeps common filter" `Quick test_learn_keeps_common_filter;
          Alcotest.test_case "empty" `Quick test_learn_empty;
          Alcotest.test_case "different output labels" `Quick test_learn_different_output_labels;
          Alcotest.test_case "path learner" `Quick test_learn_path;
          Alcotest.test_case "xmark convergence" `Slow test_learn_xmark_convergence;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "anchored consistent" `Quick test_consistency_anchored_positive;
          Alcotest.test_case "anchored inconsistent" `Quick test_consistency_anchored_negative;
          Alcotest.test_case "bounded finds" `Quick test_bounded_search_finds;
          Alcotest.test_case "bounded exhausts" `Quick test_bounded_search_exhausts;
          Alcotest.test_case "fallback degrades deterministically" `Quick
            test_fallback_degrades_deterministically;
          Alcotest.test_case "fallback exact with room" `Quick
            test_fallback_exact_with_room;
          Alcotest.test_case "enumeration counts" `Quick test_enumerate_counts;
        ] );
      ( "union",
        [
          Alcotest.test_case "two clusters" `Quick test_union_two_clusters;
          Alcotest.test_case "merges when possible" `Quick test_union_merges_when_possible;
          Alcotest.test_case "inconsistent" `Quick test_union_inconsistent;
        ] );
      ( "schema-aware",
        [
          Alcotest.test_case "drops implied" `Quick test_prune_drops_implied;
          Alcotest.test_case "keeps wildcards" `Quick test_prune_keeps_wildcards;
          Alcotest.test_case "recurses into filters" `Quick test_prune_recurses_into_filters;
          Alcotest.test_case "learn shrinks" `Slow test_schema_aware_learn_shrinks;
        ] );
      ( "nary",
        [
          Alcotest.test_case "lca" `Quick test_nary_lca;
          Alcotest.test_case "learn and extract" `Quick test_nary_learn_and_extract;
          Alcotest.test_case "anchor column" `Quick test_nary_anchor_column;
          Alcotest.test_case "wildcard generalization" `Quick test_nary_wildcard_generalization;
          Alcotest.test_case "depth mismatch" `Quick test_nary_depth_mismatch;
          Alcotest.test_case "to relation" `Quick test_nary_to_relation;
        ] );
      ( "approximate",
        [
          Alcotest.test_case "consistent unchanged" `Quick test_approximate_consistent_sample_unchanged;
          Alcotest.test_case "drops noise" `Quick test_approximate_drops_noise;
          Alcotest.test_case "budget" `Quick test_approximate_budget;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "naive product sound" `Quick test_ablation_naive_product_still_sound;
          Alcotest.test_case "rescue matters" `Quick test_ablation_rescue_matters;
        ] );
      ( "interactive",
        [
          Alcotest.test_case "consistent with oracle" `Slow test_interactive_consistent_with_oracle;
          Alcotest.test_case "prunes most nodes" `Slow test_interactive_prunes_most_nodes;
          Alcotest.test_case "label-diverse cheaper" `Slow test_interactive_label_diverse_cheaper;
        ] );
      ( "hotpath",
        [
          qcheck prop_incremental_equals_batch;
          qcheck prop_extend_consistent_equiv;
          Alcotest.test_case "spine precheck settles most probes" `Quick
            test_spine_precheck_settles_probes;
          Alcotest.test_case "probe memo isolates sessions" `Quick
            test_probe_memo_isolates_sessions;
          Alcotest.test_case "decodes a twig1 batch snapshot" `Quick
            test_decode_batch_snapshot;
        ] );
    ]
