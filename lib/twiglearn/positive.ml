type instance = Xmltree.Annotated.t

module Concept = struct
  type query = Twig.Query.t
  type nonrec instance = instance

  let selects = Twig.Eval.selects_example
  let pp_query = Twig.Query.pp
  let pp_instance = Xmltree.Annotated.pp
end

let characteristic (a : instance) = Twig.Query.of_example a.doc a.target

(* ------------------------------------------------------------------ *)
(* Batch learning                                                      *)
(* ------------------------------------------------------------------ *)

let m_lgg = Core.Telemetry.Metrics.counter "learnq.twiglearn.lgg_calls"

let learn_positive = function
  | [] -> None
  | examples -> (
      Core.Telemetry.Metrics.incr m_lgg;
      Core.Telemetry.with_span "twig.lgg" @@ fun () ->
      let queries = List.map characteristic examples in
      match Twig.Lgg.lgg_all queries with
      | None -> None
      | Some merged ->
          let q = Twig.Lgg.minimize merged in
          if Twig.Query.is_anchored q then Some q else None)

let learn_path examples =
  match learn_positive examples with
  | None -> None
  | Some q -> Some (Twig.Query.strip_filters q)

(* ------------------------------------------------------------------ *)
(* Incremental learning                                                *)
(* ------------------------------------------------------------------ *)

module Incremental = struct
  (* The accumulator is the raw running LGG of the examples added so far,
     in arrival order and unminimized: exactly the intermediate value of
     [learn_positive]'s fold, so [candidate (add ... (add empty x1) ... xn)]
     computes the same query as [learn_positive [x1; ...; xn]] — one
     [Lgg.lgg] per addition instead of refolding the whole history. *)
  type acc = Twig.Query.t option

  let empty : acc = None

  let m_inc = Core.Telemetry.Metrics.counter "learnq.twiglearn.lgg_inc_calls"

  let m_spine_closed =
    Core.Telemetry.Metrics.counter "learnq.twiglearn.spine_closed"

  (* Counter only, no span: [add] runs once per determined-probe that the
     spine leaves open — the same too-hot-for-spans regime as
     [Contain.filter_subsumed].  [Interactive.Session.record] wraps its
     (once-per-answer) call in the [twig.lgg.inc] span. *)
  let add (acc : acc) item : acc =
    Core.Telemetry.Metrics.incr m_inc;
    let c = characteristic item in
    match acc with None -> Some c | Some raw -> Some (Twig.Lgg.lgg raw c)

  let candidate = function
    | None -> None
    | Some raw ->
        let q = Twig.Lgg.minimize raw in
        if Twig.Query.is_anchored q then Some q else None

  (* The item's characteristic query without its filters: the root-to-node
     labels on child edges, read straight off the path. *)
  let spine (a : instance) =
    let step (n : Xmltree.Tree.t) =
      { Twig.Query.axis = Child; test = Label n.label; filters = [] }
    in
    let rec go (n : Xmltree.Tree.t) = function
      | [] -> [ step n ]
      | i :: rest -> step n :: go (List.nth n.children i) rest
    in
    go a.doc a.target

  (* Fault injection for the fuzzing harness; see the mli. *)
  let full_merge = ref true
  let set_full_merge b = full_merge := b

  (* The spine precheck.  [Lgg.lgg] picks its alignment from step tests and
     axes alone, and [Query.anchor]'s spine walk reads only those too, so
     merging the stripped accumulator with the item's spine yields exactly
     the spine of the full merge.  [is_anchored q] implies
     [is_anchored (strip_filters q)], so a spine that fails the test closes
     the item without reading a filter.  The converse fails —
     [anchor_filter_edges] can leave a promoted wildcard filter unanchored —
     so a passing spine still takes the full merge.

     Anchoredness commutes with minimization here: characteristic queries
     are label-and-child only, and every [Lgg.lgg] result has passed
     [Query.anchor], so the only anchoredness question left is the output
     test — which minimization (filter pruning) never touches.  Selection
     behavior is likewise invariant (minimize drops only implied filters),
     so determined-probes can use the raw query and skip the minimize that
     used to dominate them. *)
  let extend_consistent (acc : acc) item =
    match acc with
    | Some raw
      when not
             (Twig.Query.is_anchored
                (Twig.Lgg.lgg (Twig.Query.strip_filters raw) (spine item))) ->
        Core.Telemetry.Metrics.incr m_spine_closed;
        None
    | Some raw when not !full_merge -> Some raw
    | _ -> (
        match add acc item with
        | Some raw when Twig.Query.is_anchored raw -> Some raw
        | _ -> None)
end
