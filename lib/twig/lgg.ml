open Query

let merge_test t1 t2 = if tests_equal t1 t2 then t1 else Wildcard
let merge_axis a1 a2 = match (a1, a2) with Child, Child -> Child | _ -> Descendant

(* Ablation knobs (benchmarked by experiment E13): [label_guided] restricts
   the filter product to same-root-test groups; [rescue] re-introduces
   invariant tests lost to depth mismatches behind a descendant edge.  Both
   on is the production configuration. *)
type mode = { label_guided : bool; rescue : bool }

(* The edges of one root test on each side of a label-guided merge, each
   list newest first. *)
type group = {
  gtest : test;
  mutable left : (axis * filter) list;
  mutable right : (axis * filter) list;
}

let rec lgg_filter_mode mode f1 f2 =
  {
    ftest = merge_test f1.ftest f2.ftest;
    fsubs = merge_edges ~mode ~max_filters:32 f1.fsubs f2.fsubs;
  }

(* Keep only maximal (most specific) edges: an edge implied by another kept
   edge is redundant.  Process in decreasing size (a stable sort, so ties
   keep their input order) so the most specific representatives are kept
   first. *)
and prune_maximal ~max_filters edges =
  let by_size =
    List.map (fun ((_, f) as e) -> (filter_size f, e)) edges
    |> List.stable_sort (fun (s1, _) (s2, _) -> compare s2 s1)
    |> List.map snd
  in
  let keep = Contain.maximal by_size in
  (* Invariant: [keep] preserves [by_size]'s decreasing-size order, so
     capping by specificity is a prefix take, no second sort. *)
  if List.length keep <= max_filters then keep
  else List.filteri (fun i _ -> i < max_filters) keep

(* Label-guided product: only filters sharing a root test merge, and each
   shared test contributes a single edge — the LGG of every same-test filter
   on both sides.  This keeps learned queries duplicate-free (at most one
   filter per child label), which is what lets a handful of examples wash
   out incidental structure; conjunctions of per-example shapes would
   otherwise accumulate and never generalize.  Soundness: the group LGG is
   implied by each member, so any node satisfying one side's filters
   satisfies every merged edge. *)
and merge_edges ~mode ~max_filters e1s e2s =
  match (e1s, e2s) with
  | [], _ | _, [] ->
      (* Nothing to share, no test in every edge of both sides, no product:
         exactly what the general case computes, without a check. *)
      []
  | _ when not mode.label_guided ->
    (* Naive product: every cross pair merges.  Sound, but conjunctions of
       per-example shapes accumulate — kept for the E13 ablation. *)
    let products =
      List.concat_map
        (fun (a1, g1) ->
          List.map
            (fun (a2, g2) -> (merge_axis a1 a2, lgg_filter_mode mode g1 g2))
            e2s)
        e1s
    in
    prune_maximal ~max_filters products
  | (_, f0) :: _, _ ->
  (* One pass groups both sides by root test: groups in reverse order of
     first occurrence in [e1s], members in input order. *)
  let groups = ref [] in
  let group_of f =
    List.find_opt (fun grp -> tests_equal grp.gtest f.ftest) !groups
  in
  List.iter
    (fun ((_, f) as e) ->
      match group_of f with
      | Some grp -> grp.left <- e :: grp.left
      | None ->
          groups := { gtest = f.ftest; left = [ e ]; right = [] } :: !groups)
    e1s;
  List.iter
    (fun ((_, f) as e) ->
      match group_of f with
      | Some grp -> grp.right <- e :: grp.right
      | None -> ())
    e2s;
  let shared = List.filter (fun grp -> grp.right <> []) !groups in
  let merged =
    List.map
      (fun grp ->
        let group = List.rev_append grp.left (List.rev grp.right) in
        let axis =
          if List.for_all (fun (a, _) -> a = Child) group then Child
          else Descendant
        in
        let filter =
          match group with
          | (_, first) :: rest ->
              List.fold_left
                (fun acc (_, g) -> lgg_filter_mode mode acc g)
                first rest
          | [] -> assert false
        in
        (axis, filter))
      shared
  in
  (* Descendant rescue: a test buried at different depths on the two sides
     (e.g. keyword under text vs. under parlist/listitem/text) still has a
     common pattern — reachable by a descendant edge.  Collect, for each
     labeled test present in the subfilters of both sides but not merged at
     the top, the LGG of all its occurrences. *)
  let rec occurs t f =
    tests_equal f.ftest t || List.exists (fun (_, g) -> occurs t g) f.fsubs
  in
  let rec labels f acc =
    List.fold_left
      (fun acc (_, g) -> labels g acc)
      (match f.ftest with Wildcard -> acc | t -> t :: acc)
      f.fsubs
  in
  (* Only tests present in EVERY edge of BOTH sides qualify: such a test is
     an invariant of each branch, so its loss at the top merge (different
     depths on the two sides, as with keyword under text vs. under
     parlist/listitem/text) is genuine structure worth keeping behind a
     descendant edge.  Tests present only in some branches are correctly
     generalized away. *)
  let invariant_tests =
    if not mode.rescue then []
    else
      List.sort_uniq Stdlib.compare (labels f0 [])
      |> List.filter (fun t ->
             (not (List.exists (fun grp -> tests_equal grp.gtest t) shared))
             && List.for_all (fun (_, f) -> occurs t f) e1s
             && List.for_all (fun (_, f) -> occurs t f) e2s)
  in
  let rescued =
    match invariant_tests with
    | [] -> []
    | tests ->
        (* Every occurrence of each test, in preorder over [e1s] then
           [e2s], bucketed in one walk. *)
        let tests = Array.of_list tests in
        let buckets = Array.make (Array.length tests) [] in
        let rec collect f =
          (match Array.find_index (tests_equal f.ftest) tests with
          | Some i -> buckets.(i) <- f :: buckets.(i)
          | None -> ());
          List.iter (fun (_, g) -> collect g) f.fsubs
        in
        List.iter (fun (_, f) -> collect f) e1s;
        List.iter (fun (_, f) -> collect f) e2s;
        Array.to_list buckets
        |> List.map (fun bucket ->
               match List.rev bucket with
               | first :: rest ->
                   ( Descendant,
                     List.fold_left
                       (fun acc g -> lgg_filter_mode mode acc g)
                       first rest )
               | [] -> assert false)
  in
  prune_maximal ~max_filters (merged @ rescued)

(* ------------------------------------------------------------------ *)
(* Spine alignment                                                     *)
(* ------------------------------------------------------------------ *)

let node_score s1 s2 =
  match (s1.test, s2.test) with
  | Label a, Label b when String.equal a b -> 10
  | _ -> 1

let neg_inf = min_int / 2

let lgg ?(label_guided = true) ?(rescue = true) ?(max_filters = 32) (q1 : t)
    (q2 : t) : t =
  let mode = { label_guided; rescue } in
  let a1 = Array.of_list q1 and a2 = Array.of_list q2 in
  let m = Array.length a1 and n = Array.length a2 in
  if m = 0 || n = 0 then invalid_arg "Lgg.lgg: empty query";
  (* best.(i).(j): score of the best alignment of the suffixes with (i, j)
     aligned and ending at (m-1, n-1); next.(i).(j): chosen successor. *)
  let best = Array.make_matrix m n neg_inf in
  let next = Array.make_matrix m n None in
  let edge_score (i, j) (i', j') =
    if i' = i + 1 && j' = j + 1 && a1.(i').axis = Child && a2.(j').axis = Child
    then 3
    else 0
  in
  for i = m - 1 downto 0 do
    for j = n - 1 downto 0 do
      if i = m - 1 && j = n - 1 then best.(i).(j) <- node_score a1.(i) a2.(j)
      else if i = m - 1 || j = n - 1 then best.(i).(j) <- neg_inf
      else begin
        let here = node_score a1.(i) a2.(j) in
        for i' = i + 1 to m - 1 do
          for j' = j + 1 to n - 1 do
            if best.(i').(j') > neg_inf then begin
              let candidate =
                here + edge_score (i, j) (i', j') + best.(i').(j')
              in
              if candidate > best.(i).(j) then begin
                best.(i).(j) <- candidate;
                next.(i).(j) <- Some (i', j')
              end
            end
          done
        done
      end
    done
  done;
  (* Choose the start pair: (0,0) with a child virtual edge is rewarded when
     both inputs are root-anchored. *)
  let start = ref None and start_score = ref neg_inf in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      if best.(i).(j) > neg_inf then begin
        let root_bonus =
          if i = 0 && j = 0 && a1.(0).axis = Child && a2.(0).axis = Child
          then 3
          else 0
        in
        let s = root_bonus + best.(i).(j) in
        if s > !start_score then begin
          start_score := s;
          start := Some (i, j)
        end
      end
    done
  done;
  let i0, j0 =
    match !start with Some p -> p | None -> assert false
    (* (m-1, n-1) is always feasible *)
  in
  (* Reconstruct the alignment and emit merged steps. *)
  let rec emit (i, j) ~first acc =
    let axis =
      if first then
        if i = 0 && j = 0 && a1.(0).axis = Child && a2.(0).axis = Child then
          Child
        else Descendant
      else
        match acc with
        | (pi, pj) :: _ ->
            if
              i = pi + 1 && j = pj + 1 && a1.(i).axis = Child
              && a2.(j).axis = Child
            then Child
            else Descendant
        | [] -> assert false
    in
    let step =
      {
        axis;
        test = merge_test a1.(i).test a2.(j).test;
        filters = merge_edges ~mode ~max_filters a1.(i).filters a2.(j).filters;
      }
    in
    match next.(i).(j) with
    | None -> [ step ]
    | Some (i', j') -> step :: emit (i', j') ~first:false ((i, j) :: acc)
  in
  let merged = emit (i0, j0) ~first:true [] in
  anchor merged

let lgg_all ?label_guided ?rescue ?(max_filters = 32) = function
  | [] -> None
  | q :: rest ->
      Some
        (List.fold_left
           (fun acc q' -> lgg ?label_guided ?rescue ~max_filters acc q')
           q rest)

(* ------------------------------------------------------------------ *)
(* Minimization                                                        *)
(* ------------------------------------------------------------------ *)

(* The spine below step [i], viewed as a filter: any document node matched
   at step [i] necessarily has this filter satisfied by the embedding
   witness, so query filters implied by it are redundant. *)
let rec spine_as_filter = function
  | [] -> None
  | (s : step) :: rest -> (
      let sub_edges = s.filters in
      match spine_as_filter rest with
      | None -> Some { ftest = s.test; fsubs = sub_edges }
      | Some below ->
          let below_axis =
            match rest with [] -> Child | next :: _ -> next.axis
          in
          Some { ftest = s.test; fsubs = sub_edges @ [ (below_axis, below) ] })

let rec minimize_filter f =
  let subs = List.map (fun (a, g) -> (a, minimize_filter g)) f.fsubs in
  { f with fsubs = prune_maximal ~max_filters:max_int subs }

let minimize (q : t) : t =
  (* No attrs: they would be computed eagerly on the disabled path, and
     minimize runs once per lgg — the hottest span in the repo. *)
  Core.Telemetry.with_span "twig.contain.minimize" @@ fun () ->
  let rec go = function
    | [] -> []
    | (s : step) :: rest ->
        let filters = List.map (fun (a, f) -> (a, minimize_filter f)) s.filters in
        let filters = prune_maximal ~max_filters:max_int filters in
        (* Drop filters implied by the spine continuation. *)
        let filters =
          match rest with
          | [] -> filters
          | next :: _ -> (
              match spine_as_filter rest with
              | None -> filters
              | Some below ->
                  let spine_edge = (next.axis, below) in
                  List.filter
                    (fun e -> not (Contain.filter_subsumed spine_edge e))
                    filters)
        in
        { s with filters } :: go rest
  in
  go q
