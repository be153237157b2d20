type instance = Xmltree.Annotated.t

module Concept = struct
  type query = Twig.Query.t
  type nonrec instance = instance

  let selects = Twig.Eval.selects_example
  let pp_query = Twig.Query.pp
  let pp_instance = Xmltree.Annotated.pp
end

(* ------------------------------------------------------------------ *)
(* Characteristic queries, memoized                                    *)
(* ------------------------------------------------------------------ *)

(* [determined] probes recompute the characteristic of the same pool items
   once per round, and the items of a session all come from one document —
   so the memo is (document, path ↦ query), keyed per domain (pool workers
   each warm their own copy) and reset whenever a different document shows
   up.  Physical equality on the document is the session-identity test:
   items built by [Interactive.items_of_doc] share their document node. *)

let m_char_hits =
  Core.Telemetry.Metrics.counter "learnq.twiglearn.char_cache_hits"

let m_char_misses =
  Core.Telemetry.Metrics.counter "learnq.twiglearn.char_cache_misses"

type char_memo = {
  mutable cm_doc : Xmltree.Tree.t option;
  cm_tbl : (Xmltree.Tree.path, Twig.Query.t) Hashtbl.t;
}

let char_memo_capacity = 1 lsl 16

let char_dls : char_memo Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { cm_doc = None; cm_tbl = Hashtbl.create 512 })

let characteristic (a : instance) =
  let memo = Domain.DLS.get char_dls in
  let same_doc = match memo.cm_doc with Some d -> d == a.doc | None -> false in
  if not same_doc then begin
    memo.cm_doc <- Some a.doc;
    Hashtbl.reset memo.cm_tbl
  end;
  match if same_doc then Hashtbl.find_opt memo.cm_tbl a.target else None with
  | Some q ->
      Core.Telemetry.Metrics.incr m_char_hits;
      q
  | None ->
      Core.Telemetry.Metrics.incr m_char_misses;
      let q = Twig.Query.of_example a.doc a.target in
      if Hashtbl.length memo.cm_tbl >= char_memo_capacity then
        Hashtbl.reset memo.cm_tbl;
      Hashtbl.add memo.cm_tbl a.target q;
      q

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
  let raw : acc -> Twig.Query.t option = Fun.id

  let m_inc = Core.Telemetry.Metrics.counter "learnq.twiglearn.lgg_inc_calls"

  (* Counter only, no span: [add] runs once per determined-probe via
     [extend_consistent] — the same too-hot-for-spans regime as
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

  (* Anchoredness commutes with minimization here: characteristic queries
     are label-and-child only, and every [Lgg.lgg] result has passed
     [Query.anchor], so the only anchoredness question left is the output
     test — which minimization (filter pruning) never touches.  Selection
     behavior is likewise invariant (minimize drops only implied filters),
     so determined-probes can use the raw query and skip the minimize that
     used to dominate them. *)
  let extend_consistent (acc : acc) item =
    match add acc item with
    | Some raw when Twig.Query.is_anchored raw -> Some raw
    | _ -> None
end
