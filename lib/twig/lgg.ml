open Query

let merge_test t1 t2 = if tests_equal t1 t2 then t1 else Wildcard
let merge_axis a1 a2 = match (a1, a2) with Child, Child -> Child | _ -> Descendant

(* Ablation knobs (benchmarked by experiment E13): [label_guided] restricts
   the filter product to same-root-test groups; [rescue] re-introduces
   invariant tests lost to depth mismatches behind a descendant edge.  Both
   on is the production configuration. *)
type mode = { label_guided : bool; rescue : bool }

let rec lgg_filter_mode mode f1 f2 =
  {
    ftest = merge_test f1.ftest f2.ftest;
    fsubs = merge_edges ~mode ~max_filters:32 f1.fsubs f2.fsubs;
  }

(* Keep only maximal (most specific) edges: an edge implied by another kept
   edge is redundant.  Process in decreasing size so the most specific
   representatives are kept first. *)
and prune_maximal ~max_filters edges =
  let by_size =
    List.sort
      (fun (_, f1) (_, f2) -> compare (filter_size f2) (filter_size f1))
      edges
  in
  let keep =
    List.fold_left
      (fun kept e ->
        if List.exists (fun e' -> Contain.filter_subsumed e' e) kept then kept
        else e :: kept)
      [] by_size
  in
  let keep = List.rev keep in
  (* Invariant: [keep] preserves [by_size]'s decreasing-size order — the fold
     only drops elements and the reversal undoes the prepending — so capping
     by specificity is a prefix take, no second sort. *)
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
  if not mode.label_guided then
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
  else
  let tests_of es =
    List.fold_left
      (fun acc (_, f) -> if List.mem f.ftest acc then acc else f.ftest :: acc)
      [] es
  in
  let shared =
    List.filter
      (fun t -> List.exists (fun (_, f) -> tests_equal f.ftest t) e2s)
      (tests_of e1s)
  in
  let merged =
    List.map
      (fun t ->
        let members es =
          List.filter (fun (_, f) -> tests_equal f.ftest t) es
        in
        let group = members e1s @ members e2s in
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
  let rec subfilters f = f :: List.concat_map (fun (_, g) -> subfilters g) f.fsubs in
  let occurs t f = List.exists (fun g -> tests_equal g.ftest t) (subfilters f) in
  (* Only tests present in EVERY edge of BOTH sides qualify: such a test is
     an invariant of each branch, so its loss at the top merge (different
     depths on the two sides, as with keyword under text vs. under
     parlist/listitem/text) is genuine structure worth keeping behind a
     descendant edge.  Tests present only in some branches are correctly
     generalized away. *)
  let invariant_tests =
    match e1s with
    | [] -> []
    | (_, f0) :: _ ->
        List.filter_map
          (fun (g : filter) ->
            match g.ftest with Wildcard -> None | t -> Some t)
          (subfilters f0)
        |> List.sort_uniq Stdlib.compare
        |> List.filter (fun t ->
               (not (List.exists (tests_equal t) shared))
               && e2s <> []
               && List.for_all (fun (_, f) -> occurs t f) e1s
               && List.for_all (fun (_, f) -> occurs t f) e2s)
  in
  let rescued =
    if not mode.rescue then []
    else
      List.map
        (fun t ->
          let group =
            List.concat_map (fun (_, f) -> subfilters f) (e1s @ e2s)
            |> List.filter (fun g -> tests_equal g.ftest t)
          in
          let filter =
            match group with
            | first :: rest ->
                List.fold_left (fun acc g -> lgg_filter_mode mode acc g) first rest
            | [] -> assert false
          in
          (Descendant, filter))
        invariant_tests
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
