(* Pattern view of a query: a single tree with a distinguished output node,
   used for homomorphism checks and canonical-model generation. *)

type pnode = {
  pid : int;
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

let build_pattern ~first_axis ~make_root =
  let counter = ref 0 in
  let acc = ref [] in
  let fresh_id () =
    let id = !counter in
    incr counter;
    id
  in
  let register n =
    acc := n :: !acc;
    n
  in
  let root = make_root fresh_id register in
  let pnodes = Array.make !counter root in
  List.iter (fun n -> pnodes.(n.pid) <- n) !acc;
  { first_axis; proot = root; pcount = !counter; pnodes }

let rec pnode_of_filter fresh_id register (f : Query.filter) =
  let id = fresh_id () in
  let subs =
    List.map (fun (a, g) -> (a, pnode_of_filter fresh_id register g)) f.fsubs
  in
  register { pid = id; ptest = f.ftest; pout = false; psubs = subs }

let pattern_of_query (q : Query.t) =
  match q with
  | [] -> invalid_arg "Contain: empty query"
  | first :: _ ->
      build_pattern ~first_axis:first.axis ~make_root:(fun fresh_id register ->
          let rec spine = function
            | [] -> assert false
            | (s : Query.step) :: rest ->
                let id = fresh_id () in
                let filter_subs =
                  List.map
                    (fun (a, f) -> (a, pnode_of_filter fresh_id register f))
                    s.filters
                in
                let spine_subs =
                  match rest with
                  | [] -> []
                  | next :: _ -> [ (next.axis, spine rest) ]
                in
                register
                  {
                    pid = id;
                    ptest = s.test;
                    pout = rest = [];
                    psubs = filter_subs @ spine_subs;
                  }
          in
          spine q)

let pattern_of_filter (f : Query.filter) =
  build_pattern ~first_axis:Query.Child ~make_root:(fun fresh_id register ->
      pnode_of_filter fresh_id register f)

(* Strict descendants (via any edge kind) of every node of a pattern. *)
let descendants pat =
  let table = Array.make pat.pcount [] in
  let rec go n =
    let below =
      List.concat_map (fun (_, c) -> c :: go_memo c) n.psubs
    in
    table.(n.pid) <- below;
    below
  and go_memo c =
    (* children are processed before parents read their entry *)
    if table.(c.pid) = [] then go c else table.(c.pid)
  in
  ignore (go pat.proot);
  table

(* Homomorphism from pattern [p2] into pattern [p1]; [require_out] demands
   output nodes map to output nodes (containment); filters set it false. *)
let hom_exists ?(require_out = true) p2 p1 =
  let desc1 = descendants p1 in
  let memo = Hashtbl.create 64 in
  let rec can_map (u2 : pnode) (u1 : pnode) =
    let key = (u2.pid, u1.pid) in
    match Hashtbl.find_opt memo key with
    | Some b -> b
    | None ->
        (* Break potential re-entry conservatively: patterns are trees, so
           recursion is well-founded; no placeholder needed. *)
        let test_ok =
          match u2.ptest with
          | Query.Wildcard -> true
          | Query.Label l -> u2.ptest = u1.ptest || u1.ptest = Query.Label l
        in
        let out_ok = (not require_out) || (not u2.pout) || u1.pout in
        let subs_ok =
          test_ok && out_ok
          && List.for_all
               (fun (a, s2) ->
                 match a with
                 | Query.Child ->
                     List.exists
                       (fun (a1, v) -> a1 = Query.Child && can_map s2 v)
                       u1.psubs
                 | Query.Descendant ->
                     List.exists (fun v -> can_map s2 v) desc1.(u1.pid))
               u2.psubs
        in
        Hashtbl.add memo key subs_ok;
        subs_ok
  in
  match p2.first_axis with
  | Query.Child -> p1.first_axis = Query.Child && can_map p2.proot p1.proot
  | Query.Descendant ->
      can_map p2.proot p1.proot
      || List.exists
           (fun v -> can_map p2.proot v)
           (descendants p1).(p1.proot.pid)

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
  hom_exists p2 p1

let equiv q1 q2 = subsumed q1 q2 && subsumed q2 q1

let filter_subsumed (a1, f1) (a2, f2) =
  Core.Telemetry.Metrics.incr m_filter_subsumed;
  let p1 = pattern_of_filter f1 and p2 = pattern_of_filter f2 in
  let root_to_root () = hom_exists ~require_out:false p2 p1 in
  let root_to_any () =
    hom_exists ~require_out:false p2 p1
    || List.exists
         (fun v ->
           hom_exists ~require_out:false
             { p2 with first_axis = Query.Child }
             { p1 with proot = v; first_axis = Query.Child })
         (descendants p1).(p1.proot.pid)
  in
  match (a1, a2) with
  | Query.Child, Query.Child -> root_to_root ()
  | Query.Child, Query.Descendant -> root_to_any ()
  | Query.Descendant, Query.Descendant -> root_to_any ()
  | Query.Descendant, Query.Child -> false

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
