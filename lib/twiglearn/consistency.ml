type instance = Xmltree.Annotated.t

let m_checks =
  Core.Telemetry.Metrics.counter "learnq.twiglearn.consistency_checks"

let anchored examples =
  let positives = Core.Example.positives examples in
  match Positive.learn_positive positives with
  | None -> None
  | Some q ->
      if Core.Example.consistent_with Twig.Eval.selects_example q examples
      then Some q
      else None

let anchored_consistent examples = anchored examples <> None

let bounded ?budget ?filter_depth ?max_filters_per_node ~max_size examples =
  let budget =
    match budget with Some b -> b | None -> Core.Budget.unlimited ()
  in
  let alphabet =
    let module S = Set.Make (String) in
    List.fold_left
      (fun acc (e : instance Core.Example.t) ->
        List.fold_left
          (fun acc l -> S.add l acc)
          acc
          (Xmltree.Tree.labels e.value.doc))
      S.empty examples
    |> S.elements
    (* Text labels cannot appear in sensible queries. *)
    |> List.filter (fun l -> String.length l = 0 || l.[0] <> '#')
  in
  Core.Telemetry.with_span "twiglearn.enumerate.search"
    ~detail:
      (Printf.sprintf "alphabet=%d max_size=%d" (List.length alphabet) max_size)
  @@ fun () ->
  Seq.find
    (fun q ->
      (* One tick per consistency check: candidate testing dominates the
         enumeration itself on non-trivial samples. *)
      Core.Budget.tick budget;
      Core.Telemetry.Metrics.incr m_checks;
      Core.Example.consistent_with Twig.Eval.selects_example q examples)
    (Enumerate.queries ~budget ?filter_depth ?max_filters_per_node ~alphabet
       ~max_nodes:max_size ())
