type axis = Child | Descendant
type test = Label of string | Wildcard
type filter = { ftest : test; fsubs : (axis * filter) list }
type step = { axis : axis; test : test; filters : (axis * filter) list }
type t = step list

let rec filter_size f =
  1 + List.fold_left (fun acc (_, g) -> acc + filter_size g) 0 f.fsubs

let step_size s =
  1 + List.fold_left (fun acc (_, f) -> acc + filter_size f) 0 s.filters

let size q = List.fold_left (fun acc s -> acc + step_size s) 0 q
let depth q = List.length q
let is_path q = List.for_all (fun s -> s.filters = []) q
let strip_filters q = List.map (fun s -> { s with filters = [] }) q

(* ------------------------------------------------------------------ *)
(* Anchoredness                                                        *)
(* ------------------------------------------------------------------ *)

let rec filter_anchored incoming f =
  (match f.ftest with
  | Wildcard ->
      incoming = Child && List.for_all (fun (a, _) -> a = Child) f.fsubs
  | Label _ -> true)
  && List.for_all (fun (a, g) -> filter_anchored a g) f.fsubs

let is_anchored q =
  let rec spine = function
    | [] -> true
    | [ last ] ->
        (* Output node: must not be a wildcard at all (the learnable class
           selects nodes by label). *)
        last.test <> Wildcard
        && List.for_all (fun (a, f) -> filter_anchored a f) last.filters
    | s :: (next :: _ as rest) ->
        (match s.test with
        | Wildcard -> s.axis = Child && next.axis = Child
        | Label _ -> true)
        && List.for_all (fun (a, f) -> filter_anchored a f) s.filters
        && spine rest
  in
  spine q

(* Dropping a wildcard filter node promotes its subtrees to the parent with
   descendant axes; this only generalizes the filter. *)
let rec anchor_filter_edges (a, f) =
  let subs = List.concat_map anchor_filter_edges f.fsubs in
  let offending =
    f.ftest = Wildcard
    && (a = Descendant || List.exists (fun (sa, _) -> sa = Descendant) subs)
  in
  if offending then List.map (fun (_, g) -> (Descendant, g)) subs
  else [ (a, { f with fsubs = subs }) ]

let anchor q =
  let anchor_step s =
    { s with filters = List.concat_map anchor_filter_edges s.filters }
  in
  (* Walk the spine front-to-back; drop offending wildcards, fusing their
     incident edges into a descendant edge. *)
  let rec spine = function
    | [] -> []
    | [ last ] -> [ anchor_step last ]
    | s :: (next :: _ as rest) ->
        let offending =
          s.test = Wildcard && (s.axis = Descendant || next.axis = Descendant)
        in
        if offending then
          match spine rest with
          | n :: tail -> { n with axis = Descendant } :: tail
          | [] -> assert false
        else anchor_step s :: spine rest
  in
  spine q

(* ------------------------------------------------------------------ *)
(* Characteristic queries of examples                                  *)
(* ------------------------------------------------------------------ *)

(* Text nodes are data values, not structure: twig queries never test them,
   so characteristic queries must not either. *)
let structural_children (t : Xmltree.Tree.t) =
  List.filter (fun c -> not (Xmltree.Tree.is_text c)) t.children

let rec filter_of_tree (t : Xmltree.Tree.t) =
  {
    ftest = Label t.label;
    fsubs = List.map (fun c -> (Child, filter_of_tree c)) (structural_children t);
  }

let of_example doc target =
  let open Xmltree in
  let rec build (n : Tree.t) = function
    | [] ->
        [
          {
            axis = Child;
            test = Label n.label;
            filters =
              List.map
                (fun c -> (Child, filter_of_tree c))
                (structural_children n);
          };
        ]
    | i :: rest ->
        let spine_child =
          match List.nth_opt n.children i with
          | Some c -> c
          | None -> invalid_arg "Query.of_example: path not in document"
        in
        let sibling_filters =
          List.filteri (fun j _ -> j <> i) n.children
          |> List.filter (fun (c : Xmltree.Tree.t) ->
                 not (Xmltree.Tree.is_text c))
          |> List.map (fun c -> (Child, filter_of_tree c))
        in
        { axis = Child; test = Label n.label; filters = sibling_filters }
        :: build spine_child rest
  in
  build doc target

(* ------------------------------------------------------------------ *)
(* Comparison and printing                                             *)
(* ------------------------------------------------------------------ *)

let tests_equal t1 t2 =
  match (t1, t2) with
  | Label a, Label b -> String.equal a b
  | Wildcard, Wildcard -> true
  | Label _, Wildcard | Wildcard, Label _ -> false

let compare_test t1 t2 =
  match (t1, t2) with
  | Label a, Label b -> String.compare a b
  | Wildcard, Wildcard -> 0
  | Wildcard, Label _ -> -1
  | Label _, Wildcard -> 1

let rec compare_filter f1 f2 =
  let c = compare_test f1.ftest f2.ftest in
  if c <> 0 then c
  else
    List.compare
      (fun (a1, g1) (a2, g2) ->
        let c = Stdlib.compare a1 a2 in
        if c <> 0 then c else compare_filter g1 g2)
      (sort_edges f1.fsubs) (sort_edges f2.fsubs)

and sort_edges edges =
  List.sort
    (fun (a1, g1) (a2, g2) ->
      let c = Stdlib.compare a1 a2 in
      if c <> 0 then c else compare_filter g1 g2)
    (List.map (fun (a, g) -> (a, sort_filter g)) edges)

and sort_filter f = { f with fsubs = sort_edges f.fsubs }

let equal q1 q2 =
  List.length q1 = List.length q2
  && List.for_all2
       (fun s1 s2 ->
         s1.axis = s2.axis
         && tests_equal s1.test s2.test
         && List.compare
              (fun (a1, g1) (a2, g2) ->
                let c = Stdlib.compare a1 a2 in
                if c <> 0 then c else compare_filter g1 g2)
              (sort_edges s1.filters) (sort_edges s2.filters)
            = 0)
       q1 q2

let labels q =
  let module S = Set.Make (String) in
  let add_test acc = function Label l -> S.add l acc | Wildcard -> acc in
  let rec add_filter acc f =
    List.fold_left
      (fun acc (_, g) -> add_filter acc g)
      (add_test acc f.ftest) f.fsubs
  in
  let acc =
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc (_, f) -> add_filter acc f)
          (add_test acc s.test) s.filters)
      S.empty q
  in
  S.elements acc

let pp_test ppf = function
  | Label l -> Format.pp_print_string ppf l
  | Wildcard -> Format.pp_print_char ppf '*'

let axis_sep = function Child -> "/" | Descendant -> "//"

(* Filters print in XPath relative syntax: a single-child chain prints as a
   path ([b/c], [b//c]); branching prints nested predicates ([b[c][d]]). *)
let rec pp_filter ppf f =
  pp_test ppf f.ftest;
  match f.fsubs with
  | [] -> ()
  | [ (a, g) ] ->
      Format.pp_print_string ppf (axis_sep a);
      pp_filter ppf g
  | subs ->
      (* All but the last sub print as predicates, the last as a path
         continuation: b[c][d]/e.  Predicates and continuations denote the
         same conditions, so this is only a display choice — and it makes
         printing invert parsing. *)
      let rec go = function
        | [] -> ()
        | [ (a, g) ] ->
            Format.pp_print_string ppf (axis_sep a);
            pp_filter ppf g
        | (a, g) :: rest ->
            Format.fprintf ppf "[%s%a]"
              (match a with Child -> "" | Descendant -> ".//")
              pp_filter g;
            go rest
      in
      go subs

let pp_filter_edge ppf (a, f) =
  Format.fprintf ppf "[%s%a]"
    (match a with Child -> "" | Descendant -> ".//")
    pp_filter f

let pp ppf q =
  List.iter
    (fun s ->
      Format.pp_print_string ppf (axis_sep s.axis);
      pp_test ppf s.test;
      List.iter (pp_filter_edge ppf) (sort_edges s.filters))
    q

let to_string q = Format.asprintf "%a" pp q
