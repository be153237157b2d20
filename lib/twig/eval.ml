open Xmltree

type doc = {
  tree : Tree.t;
  labels : string array;  (** label of node [i] (preorder id) *)
  children : int list array;
  last_desc : int array;  (** descendants of [i] are ids in [i+1 .. last_desc.(i)] *)
  paths : Tree.path array;
  by_path : (Tree.path, int) Hashtbl.t;  (** inverse of [paths] *)
  mutable store : Xmlstore.Store.t option;
      (** labeled store for the index-backed fast path, built on demand *)
}

let index tree =
  let n = Tree.size tree in
  let labels = Array.make n "" in
  let children = Array.make n [] in
  let last_desc = Array.make n 0 in
  let paths = Array.make n [] in
  let by_path = Hashtbl.create n in
  let counter = ref 0 in
  let rec go path (node : Tree.t) =
    let id = !counter in
    incr counter;
    labels.(id) <- node.label;
    let p = List.rev path in
    paths.(id) <- p;
    Hashtbl.replace by_path p id;
    let kids =
      List.mapi (fun i c -> go (i :: path) c) node.children
    in
    children.(id) <- kids;
    last_desc.(id) <- !counter - 1;
    id
  in
  let root = go [] tree in
  assert (root = 0);
  { tree; labels; children; last_desc; paths; by_path; store = None }

(* Compiled filters: each filter node gets a dense id so embeddings can be
   memoized in a flat matrix. *)
type compiled_filter = { ctest : Query.test; csubs : (Query.axis * int) list }

type compiled = {
  cfilters : compiled_filter array;
  csteps : (Query.axis * Query.test * (Query.axis * int) list) array;
}

let compile (q : Query.t) =
  let acc = ref [] in
  let count = ref 0 in
  let rec comp_filter (f : Query.filter) =
    let id = !count in
    incr count;
    (* Reserve the slot, fill after children are compiled. *)
    acc := (id, { ctest = f.ftest; csubs = [] }) :: !acc;
    let subs = List.map (fun (a, g) -> (a, comp_filter g)) f.fsubs in
    acc :=
      (id, { ctest = f.ftest; csubs = subs })
      :: List.remove_assoc id !acc;
    id
  in
  let csteps =
    Array.of_list
      (List.map
         (fun (s : Query.step) ->
           let fs = List.map (fun (a, f) -> (a, comp_filter f)) s.filters in
           (s.axis, s.test, fs))
         q)
  in
  let cfilters = Array.make (max 1 !count) { ctest = Query.Wildcard; csubs = [] } in
  List.iter (fun (id, cf) -> cfilters.(id) <- cf) !acc;
  { cfilters; csteps }

let test_holds test label =
  match test with Query.Wildcard -> true | Query.Label l -> String.equal l label

(* embed.(fid * n + node) : -1 unknown, 0 no, 1 yes *)
let embeds doc compiled =
  let n = Array.length doc.labels in
  let nf = Array.length compiled.cfilters in
  let memo = Array.make (nf * n) (-1) in
  let rec embed fid node =
    let key = (fid * n) + node in
    match memo.(key) with
    | 0 -> false
    | 1 -> true
    | _ ->
        let cf = compiled.cfilters.(fid) in
        let ok =
          test_holds cf.ctest doc.labels.(node)
          && List.for_all
               (fun (axis, gid) ->
                 match axis with
                 | Query.Child ->
                     List.exists (fun c -> embed gid c) doc.children.(node)
                 | Query.Descendant ->
                     let rec scan i =
                       i <= doc.last_desc.(node)
                       && (embed gid i || scan (i + 1))
                     in
                     scan (node + 1))
               cf.csubs
        in
        memo.(key) <- (if ok then 1 else 0);
        ok
  in
  embed

let select_ids_walk doc (q : Query.t) =
  let compiled = compile q in
  let embed = embeds doc compiled in
  let n = Array.length doc.labels in
  let node_matches (test, filters) id =
    test_holds test doc.labels.(id)
    && List.for_all (fun (axis, fid) ->
           match axis with
           | Query.Child -> List.exists (fun c -> embed fid c) doc.children.(id)
           | Query.Descendant ->
               let rec scan i =
                 i <= doc.last_desc.(id) && (embed fid i || scan (i + 1))
               in
               scan (id + 1))
         filters
  in
  (* context: boolean mask over node ids; starts as the virtual root, encoded
     by candidate generation for the first step. *)
  let step_candidates context (axis, test, filters) ~first =
    let out = Array.make n false in
    let mark id = if node_matches (test, filters) id then out.(id) <- true in
    (if first then
       match axis with
       | Query.Child -> mark 0
       | Query.Descendant ->
           for id = 0 to n - 1 do
             mark id
           done
     else
       Array.iteri
         (fun id in_ctx ->
           if in_ctx then
             match axis with
             | Query.Child -> List.iter mark doc.children.(id)
             | Query.Descendant ->
                 for d = id + 1 to doc.last_desc.(id) do
                   mark d
                 done)
         context);
    out
  in
  let steps = Array.to_list compiled.csteps in
  match steps with
  | [] -> invalid_arg "Eval.select: empty query"
  | first :: rest ->
      let init = step_candidates [||] first ~first:true in
      let final =
        List.fold_left
          (fun ctx step -> step_candidates ctx step ~first:false)
          init rest
      in
      let ids = ref [] in
      for id = n - 1 downto 0 do
        if final.(id) then ids := id :: !ids
      done;
      !ids

(* ------------------------------------------------------------------ *)
(* Index-backed evaluation                                             *)
(* ------------------------------------------------------------------ *)

(* [Xmlstore.Twigjoin] evaluates the same semantics with structural
   joins over the store's containment labels and inverted name lists —
   O(touched posting lists) per query instead of the walk's
   O(|q|·|t|·depth) with its per-call memo matrix.  Both produce
   ascending preorder ids.  Every evaluation joins; the walk above is the
   differential reference, reached by name through [select_walk]. *)

let m_join_evals = Core.Telemetry.Metrics.counter "learnq.twig.join_evals"

let to_pattern (q : Query.t) : Xmlstore.Pattern.t =
  let conv_test = function
    | Query.Wildcard -> Xmlstore.Pattern.Wild
    | Query.Label l -> Xmlstore.Pattern.Name l
  in
  let conv_axis = function
    | Query.Child -> Xmlstore.Pattern.Child
    | Query.Descendant -> Xmlstore.Pattern.Descendant
  in
  let acc = ref [] in
  let count = ref 0 in
  let rec comp_filter (f : Query.filter) =
    let id = !count in
    incr count;
    let subs = List.map (fun (a, g) -> (conv_axis a, comp_filter g)) f.fsubs in
    acc := (id, { Xmlstore.Pattern.ftest = conv_test f.ftest; fedges = subs }) :: !acc;
    id
  in
  let steps =
    Array.of_list
      (List.map
         (fun (s : Query.step) ->
           let es = List.map (fun (a, f) -> (conv_axis a, comp_filter f)) s.filters in
           {
             Xmlstore.Pattern.saxis = conv_axis s.axis;
             stest = conv_test s.test;
             sedges = es;
           })
         q)
  in
  let fnodes =
    Array.make (max 1 !count) { Xmlstore.Pattern.ftest = Wild; fedges = [] }
  in
  List.iter (fun (id, fn) -> fnodes.(id) <- fn) !acc;
  { Xmlstore.Pattern.fnodes = Array.sub fnodes 0 !count; steps }

let store_of_doc doc =
  match doc.store with
  | Some s -> s
  | None ->
      let s = Xmlstore.Store.of_tree doc.tree in
      doc.store <- Some s;
      s

let select_ids doc (q : Query.t) =
  if q = [] then invalid_arg "Eval.select: empty query";
  Core.Telemetry.Metrics.incr m_join_evals;
  Xmlstore.Twigjoin.select_ids (store_of_doc doc) (to_pattern q)

let select_doc doc q = List.map (fun id -> doc.paths.(id)) (select_ids doc q)
let select q tree = select_doc (index tree) q

let select_walk q tree =
  let doc = index tree in
  List.map (fun id -> doc.paths.(id)) (select_ids_walk doc q)

(* ------------------------------------------------------------------ *)
(* The single-node membership hot path                                 *)
(* ------------------------------------------------------------------ *)

(* [selects] is the probe the interactive learners hammer: the
   determined-scan asks "does the current candidate select this node?"
   once per open item per round — same document every time, and the same
   (physically identical) candidate query for a whole round.  Naively that
   is a full re-index plus a full evaluation per probe; memoizing both by
   physical equality turns every probe after a round's first into one hash
   lookup and one array read.

   One entry each suffices (a session has one document and one live
   candidate), and the caches are domain-local so {!Core.Pool} workers
   warm their own — no sharing, no locks.  Misses stay exactly the old
   code path, so results are unchanged. *)

type probe_cache = {
  mutable pc_tree : Tree.t option;  (* phys-eq key for pc_doc *)
  mutable pc_doc : doc option;
  mutable pc_masks : (Query.t * bool array) list;
      (* phys-eq keyed, most-recent first.  A round interleaves the live
         candidate with per-probe would-be generalizations, so one slot
         would thrash; a handful keeps the candidate resident. *)
}

(* Enough slots that the candidate stays resident while a round's raw
   extensions (one per probe that reaches the negatives) pass through; a
   mask is one bool per node, so even 64 of them are a few hundred KB per
   domain. *)
let probe_cache_slots = 64

let cache_dls : probe_cache Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { pc_tree = None; pc_doc = None; pc_masks = [] })

let m_probe_hits = Core.Telemetry.Metrics.counter "learnq.twig.eval_cache_hits"
let m_probe_misses = Core.Telemetry.Metrics.counter "learnq.twig.eval_cache_misses"

let index_cached c tree =
  match c.pc_doc with
  | Some d when (match c.pc_tree with Some t -> t == tree | None -> false) ->
      d
  | _ ->
      let d = index tree in
      c.pc_tree <- Some tree;
      c.pc_doc <- Some d;
      c.pc_masks <- [];
      d

let rec mask_assq q = function
  | [] -> None
  | (q0, m) :: rest -> if q0 == q then Some m else mask_assq q rest

let rec list_take n = function
  | x :: rest when n > 0 -> x :: list_take (n - 1) rest
  | _ -> []

let selects q tree path =
  let c = Domain.DLS.get cache_dls in
  let doc = index_cached c tree in
  let mask =
    match mask_assq q c.pc_masks with
    | Some mask ->
        Core.Telemetry.Metrics.incr m_probe_hits;
        mask
    | None ->
        Core.Telemetry.Metrics.incr m_probe_misses;
        let mask = Array.make (Array.length doc.labels) false in
        List.iter (fun id -> mask.(id) <- true) (select_ids doc q);
        c.pc_masks <- (q, mask) :: list_take (probe_cache_slots - 1) c.pc_masks;
        mask
  in
  match Hashtbl.find_opt doc.by_path path with
  | Some id -> mask.(id)
  | None -> false

let selects_example q (a : Annotated.t) = selects q a.doc a.target

let holds_filter f tree =
  let doc = index tree in
  let compiled = compile [ { Query.axis = Child; test = Wildcard; filters = [ (Query.Child, f) ] } ] in
  (* The compiled query's only filter tree is f, rooted at filter id 0. *)
  let embed = embeds doc compiled in
  embed 0 0
