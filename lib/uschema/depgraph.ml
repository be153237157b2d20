module SMap = Map.Make (String)
module SSet = Set.Make (String)

type t = {
  schema : Schema.t;
  possible : SSet.t SMap.t;
  required : SSet.t SMap.t;
  possible_reach : SSet.t SMap.t;  (** ≥ 1 possible step *)
  guaranteed : SSet.t SMap.t;
      (** [b ∈ guaranteed(a)] iff every valid finite tree rooted at [a] has a
          strict descendant labeled [b] — the disjunction-aware closure of
          the required graph (a required path forces [b], but so does a
          disjunction whose every clause forces it, as in XMark's
          [description → text | parlist] with [text] below both). *)
}

let neighbors table a =
  match SMap.find_opt a table with Some s -> s | None -> SSet.empty

let closure edges labels =
  (* Transitive closure (≥1 step) by iterated propagation; label sets are
     small (tens), so the simple fixpoint is fine. *)
  let init =
    List.fold_left (fun acc l -> SMap.add l (neighbors edges l) acc)
      SMap.empty labels
  in
  let step reach =
    SMap.mapi
      (fun _ direct_and_beyond ->
        SSet.fold
          (fun b acc ->
            SSet.union acc
              (match SMap.find_opt b reach with
              | Some s -> s
              | None -> SSet.empty))
          direct_and_beyond direct_and_beyond)
      reach
  in
  let rec fix reach =
    let reach' = step reach in
    if SMap.equal SSet.equal reach reach' then reach else fix reach'
  in
  fix init

let of_schema schema =
  let labels = Schema.labels schema in
  let possible =
    List.fold_left
      (fun acc a ->
        SMap.add a (SSet.of_list (Dme.alphabet (Schema.rule schema a))) acc)
      SMap.empty labels
  in
  let required =
    List.fold_left
      (fun acc a ->
        let dme = Schema.rule schema a in
        let required_in_clause c =
          List.filter_map
            (fun (l, m) ->
              if Multiplicity.nullable m then None else Some l)
            c
          |> SSet.of_list
        in
        let req =
          match dme with
          | [] -> SSet.empty
          | c :: rest ->
              List.fold_left
                (fun acc c' -> SSet.inter acc (required_in_clause c'))
                (required_in_clause c) rest
        in
        SMap.add a req acc)
      SMap.empty labels
  in
  (* Least fixpoint of: b is guaranteed under a when EVERY clause of a's
     rule has a non-nullable atom x with x = b or b already guaranteed
     under x.  Soundness is by induction on tree height. *)
  let guaranteed =
    let step guar =
      List.fold_left
        (fun acc a ->
          let dme = Schema.rule schema a in
          let candidates =
            List.fold_left
              (fun cs c ->
                List.fold_left
                  (fun cs (x, m) ->
                    if Multiplicity.nullable m then cs
                    else
                      SSet.union cs
                        (SSet.add x
                           (match SMap.find_opt x guar with
                           | Some s -> s
                           | None -> SSet.empty)))
                  cs c)
              SSet.empty dme
          in
          let forced =
            SSet.filter
              (fun b ->
                List.for_all
                  (fun c ->
                    List.exists
                      (fun (x, m) ->
                        (not (Multiplicity.nullable m))
                        && (String.equal x b
                           ||
                           match SMap.find_opt x guar with
                           | Some s -> SSet.mem b s
                           | None -> false))
                      c)
                  dme)
              candidates
          in
          SMap.add a forced acc)
        SMap.empty labels
    in
    let rec fix guar =
      let guar' = step guar in
      if SMap.equal SSet.equal guar guar' then guar else fix guar'
    in
    fix SMap.empty
  in
  {
    schema;
    possible;
    required;
    possible_reach = closure possible labels;
    guaranteed;
  }

let schema g = g.schema

let edge_list table =
  SMap.fold
    (fun a bs acc -> SSet.fold (fun b acc -> (a, b) :: acc) bs acc)
    table []
  |> List.sort compare

let possible_edges g = edge_list g.possible

let test_matches test label =
  match test with
  | Twig.Query.Wildcard -> true
  | Twig.Query.Label l -> String.equal l label

(* Embedding of a filter into a graph from a vertex; recursion is on the
   finite filter tree, so cycles in the graph are harmless. *)
let rec filter_embeds ~direct ~reach (f : Twig.Query.filter) label =
  test_matches f.ftest label
  && List.for_all
       (fun (axis, g) ->
         let candidates =
           match axis with
           | Twig.Query.Child -> neighbors direct label
           | Twig.Query.Descendant -> neighbors reach label
         in
         SSet.exists (fun b -> filter_embeds ~direct ~reach g b) candidates)
       f.fsubs

let satisfiable g (q : Twig.Query.t) =
  let root = Schema.root g.schema in
  let step_ok (s : Twig.Query.step) label =
    test_matches s.test label
    && List.for_all
         (fun (axis, f) ->
           let candidates =
             match axis with
             | Twig.Query.Child -> neighbors g.possible label
             | Twig.Query.Descendant -> neighbors g.possible_reach label
           in
           SSet.exists
             (fun b ->
               filter_embeds ~direct:g.possible ~reach:g.possible_reach f b)
             candidates)
         s.filters
  in
  let rec spine candidates = function
    | [] -> not (SSet.is_empty candidates)
    | (s : Twig.Query.step) :: rest ->
        let here = SSet.filter (step_ok s) candidates in
        if SSet.is_empty here then false
        else
          let next =
            SSet.fold
              (fun a acc ->
                SSet.union acc
                  (match rest with
                  | [] -> SSet.empty
                  | next_step :: _ -> (
                      match next_step.Twig.Query.axis with
                      | Twig.Query.Child -> neighbors g.possible a
                      | Twig.Query.Descendant -> neighbors g.possible_reach a)))
              here SSet.empty
          in
          if rest = [] then true else spine next rest
  in
  match q with
  | [] -> false
  | first :: _ ->
      let start =
        match first.Twig.Query.axis with
        | Twig.Query.Child -> SSet.singleton root
        | Twig.Query.Descendant ->
            SSet.add root (neighbors g.possible_reach root)
      in
      spine start q

let filter_implied g ~at (axis, f) =
  let candidates =
    match axis with
    | Twig.Query.Child -> neighbors g.required at
    | Twig.Query.Descendant -> neighbors g.guaranteed at
  in
  SSet.exists
    (fun b -> filter_embeds ~direct:g.required ~reach:g.guaranteed f b)
    candidates

let label_implied g ~at ~child = SSet.mem child (neighbors g.required at)
