(* Pattern view of a query: a single tree with a distinguished output node,
   used for homomorphism checks and canonical-model generation.  Pids are
   preorder, so the strict descendants of [n] are exactly the pids
   [n.pid + 1 .. n.plast]: a descendant edge scans that range of
   [pnodes]. *)

type pnode = {
  pid : int;
  plast : int;  (** the last pid of this node's subtree *)
  ptest : Query.test;
  pout : bool;
  psubs : (Query.axis * pnode) list;
}

type pattern = {
  first_axis : Query.axis;  (** edge from the virtual root to [proot] *)
  proot : pnode;
  pcount : int;
  pnodes : pnode array;  (** indexed by [pid] *)
}

(* [make_root node] builds the tree through [node ptest pout subs], which
   numbers the node before [subs ()] builds its children. *)
let build_pattern ~first_axis ~make_root =
  let counter = ref 0 in
  let acc = ref [] in
  let node ptest pout subs =
    let pid = !counter in
    incr counter;
    let psubs = subs () in
    let n = { pid; plast = !counter - 1; ptest; pout; psubs } in
    acc := n :: !acc;
    n
  in
  let root = make_root node in
  let pnodes = Array.make !counter root in
  List.iter (fun n -> pnodes.(n.pid) <- n) !acc;
  { first_axis; proot = root; pcount = !counter; pnodes }

let rec pnode_of_filter node (f : Query.filter) =
  node f.ftest false (fun () ->
      List.map (fun (a, g) -> (a, pnode_of_filter node g)) f.fsubs)

let pattern_of_query (q : Query.t) =
  match q with
  | [] -> invalid_arg "Contain: empty query"
  | first :: _ ->
      build_pattern ~first_axis:first.axis ~make_root:(fun node ->
          let rec spine = function
            | [] -> assert false
            | (s : Query.step) :: rest ->
                node s.test (rest = []) (fun () ->
                    let filter_subs =
                      List.map
                        (fun (a, f) -> (a, pnode_of_filter node f))
                        s.filters
                    in
                    match rest with
                    | [] -> filter_subs
                    | next :: _ -> filter_subs @ [ (next.axis, spine rest) ])
          in
          spine q)

let pattern_of_filter (f : Query.filter) =
  build_pattern ~first_axis:Query.Child ~make_root:(fun node ->
      pnode_of_filter node f)

(* Does [f] hold of some node of [p] with a pid in [lo .. hi]? *)
let rec exists_range p lo hi f =
  lo <= hi && (f p.pnodes.(lo) || exists_range p (lo + 1) hi f)

(* [hom ~require_out p2 p1 u2 u1]: is there a homomorphism from [p2]'s
   subtree at [u2] into [p1] sending [u2] to [u1]?  [require_out] demands
   output nodes map to output nodes (containment); filters set it false.
   Partially applied to the two patterns it is one check, and its one flat
   memo (pid pairs, 0 unknown / 1 yes / 2 no) serves every root the check
   tries. *)
let hom ~require_out p2 p1 =
  let width = p1.pcount in
  let memo = Bytes.make (p2.pcount * width) '\000' in
  let rec can_map u2 u1 =
    let k = (u2.pid * width) + u1.pid in
    match Bytes.get memo k with
    | '\001' -> true
    | '\002' -> false
    | _ ->
        let ok =
          (match (u2.ptest, u1.ptest) with
          | Query.Wildcard, _ -> true
          | Query.Label l2, Query.Label l1 -> String.equal l2 l1
          | Query.Label _, Query.Wildcard -> false)
          && ((not require_out) || (not u2.pout) || u1.pout)
          && List.for_all
               (fun (a, s2) ->
                 match a with
                 | Query.Child ->
                     List.exists
                       (fun (a1, v) ->
                         match a1 with
                         | Query.Child -> can_map s2 v
                         | Query.Descendant -> false)
                       u1.psubs
                 | Query.Descendant ->
                     exists_range p1 (u1.pid + 1) u1.plast (can_map s2))
               u2.psubs
        in
        Bytes.set memo k (if ok then '\001' else '\002');
        ok
  in
  can_map

(* Containment sits on the twig learner's inner loop (lgg minimization
   checks filter pairs: ~70 calls per question on the benchmark's learn-twig
   session), so it gets counters only — a span per call would dominate the
   trace. *)
let m_subsumed = Core.Telemetry.Metrics.counter "learnq.twig.contain_calls"

let m_filter_subsumed =
  Core.Telemetry.Metrics.counter "learnq.twig.filter_contain_calls"

let m_semantic =
  Core.Telemetry.Metrics.counter "learnq.twig.semantic_contain_calls"

let subsumed q1 q2 =
  Core.Telemetry.Metrics.incr m_subsumed;
  let p1 = pattern_of_query q1 and p2 = pattern_of_query q2 in
  let can_map = hom ~require_out:true p2 p1 in
  match p2.first_axis with
  | Query.Child -> p1.first_axis = Query.Child && can_map p2.proot p1.proot
  | Query.Descendant -> exists_range p1 0 (p1.pcount - 1) (can_map p2.proot)

let equiv q1 q2 = subsumed q1 q2 && subsumed q2 q1

(* Does the condition [(a1, f1)] imply [(a2, f2)], given their patterns?
   A child edge must map root to root; a descendant one may land anywhere
   in [p1]; a descendant condition never implies a child one.  The
   patterns are forced only when the axes leave the question open. *)
let implies a1 p1 a2 p2 =
  Core.Telemetry.Metrics.incr m_filter_subsumed;
  match (a1, a2) with
  | Query.Descendant, Query.Child -> false
  | _, _ -> (
      let p1 = Lazy.force p1 and p2 = Lazy.force p2 in
      let can_map = hom ~require_out:false p2 p1 in
      match a2 with
      | Query.Child -> can_map p2.proot p1.proot
      | Query.Descendant ->
          exists_range p1 0 (p1.pcount - 1) (can_map p2.proot))

let filter_subsumed (a1, f1) (a2, f2) =
  implies a1 (lazy (pattern_of_filter f1)) a2 (lazy (pattern_of_filter f2))

let maximal edges =
  let compiled =
    List.map (fun (a, f) -> (a, f, lazy (pattern_of_filter f))) edges
  in
  List.fold_left
    (fun kept ((a2, _, p2) as e) ->
      if List.exists (fun (a1, _, p1) -> implies a1 p1 a2 p2) kept then kept
      else e :: kept)
    [] compiled
  |> List.rev_map (fun (a, f, _) -> (a, f))

(* Registered but never incremented: there is no containment cache.
   perfbench's traced learn-twig run reads both to compute
   twig.contain.cache_hit_ratio (which reads 0) and fails without them. *)
let () =
  List.iter
    (fun name -> ignore (Core.Telemetry.Metrics.counter name))
    [ "learnq.twig.contain_cache_hits"; "learnq.twig.contain_cache_misses" ]

(* ------------------------------------------------------------------ *)
(* Canonical models                                                    *)
(* ------------------------------------------------------------------ *)

let fresh_label_for q =
  let used = Query.labels q in
  let rec pick i =
    let candidate = if i = 0 then "_fresh_" else Printf.sprintf "_fresh%d_" i in
    if List.mem candidate used then pick (i + 1) else candidate
  in
  pick 0

let canonical_instances ?(max_variants = 64) q =
  let fresh = fresh_label_for q in
  let pat = pattern_of_query q in
  (* Collect descendant edges: the virtual-root edge (if descendant) plus
     every descendant edge in the pattern, indexed for variant bits. *)
  let edge_count = ref 0 in
  let edge_ids = Hashtbl.create 16 in
  (if pat.first_axis = Query.Descendant then (
     Hashtbl.add edge_ids (-1, -1) !edge_count;
     incr edge_count));
  let rec collect n =
    List.iter
      (fun (a, c) ->
        if a = Query.Descendant then (
          Hashtbl.add edge_ids (n.pid, c.pid) !edge_count;
          incr edge_count);
        collect c)
      n.psubs
  in
  collect pat.proot;
  let k = !edge_count in
  let variants =
    if k = 0 then [ [||] ]
    else if 1 lsl k <= max_variants then
      List.init (1 lsl k) (fun bits ->
          Array.init k (fun i -> bits land (1 lsl i) <> 0))
    else [ Array.make k false; Array.make k true ]
  in
  let instance bits =
    let lbl = function Query.Label l -> l | Query.Wildcard -> fresh in
    let out_path = ref [] in
    (* Build bottom-up, tracking the child index of each emitted child and
       the path to the output node. *)
    let rec build path (n : pnode) : Xmltree.Tree.t =
      let children = ref [] in
      let idx = ref 0 in
      List.iter
        (fun (a, c) ->
          let wrapped =
            match a with
            | Query.Child -> build (path @ [ !idx ]) c
            | Query.Descendant ->
                let eid = Hashtbl.find edge_ids (n.pid, c.pid) in
                if bits.(eid) then
                  Xmltree.Tree.node fresh [ build (path @ [ !idx; 0 ]) c ]
                else build (path @ [ !idx ]) c
          in
          children := wrapped :: !children;
          incr idx)
        n.psubs;
      if n.pout then out_path := path;
      Xmltree.Tree.node (lbl n.ptest) (List.rev !children)
    in
    let tree =
      match pat.first_axis with
      | Query.Child -> build [] pat.proot
      | Query.Descendant ->
          let eid = Hashtbl.find edge_ids (-1, -1) in
          if bits.(eid) then
            Xmltree.Tree.node fresh [ build [ 0 ] pat.proot ]
          else build [] pat.proot
    in
    (tree, !out_path)
  in
  List.map instance variants

let subsumed_semantic ?max_variants q1 q2 =
  Core.Telemetry.Metrics.incr m_semantic;
  List.for_all
    (fun (tree, out) -> Eval.selects q2 tree out)
    (canonical_instances ?max_variants q1)
