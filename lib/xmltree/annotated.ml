type t = { doc : Tree.t; target : Tree.path }

let make doc target =
  match Tree.node_at doc target with
  | None -> invalid_arg "Annotated.make: target path not in document"
  | Some _ -> { doc; target }

let target_node a =
  match Tree.node_at a.doc a.target with
  | Some n -> n
  | None -> assert false

let positive doc target = Core.Example.positive (make doc target)
let negative doc target = Core.Example.negative (make doc target)

let examples_of_answers doc ~answers =
  let module PS = Set.Make (struct
    type t = Tree.path

    let compare = List.compare Int.compare
  end) in
  let answer_set = PS.of_list answers in
  List.map
    (fun p ->
      if PS.mem p answer_set then positive doc p else negative doc p)
    (Tree.all_paths doc)

(* The XPath name of a step to [n]: [@id] for an attribute (its label
   already reads so), [text()] for a text node. *)
let step_name (n : Tree.t) = if Tree.is_text n then "text()" else n.label

let pp ppf a =
  let rec steps (n : Tree.t) = function
    | [] -> ()
    | i :: rest ->
        let c = List.nth n.children i in
        let name = step_name c in
        (* [c]'s 1-based rank among its same-named siblings, and their count *)
        let rank = ref 0 and same = ref 0 in
        List.iteri
          (fun j s ->
            if String.equal (step_name s) name then (
              incr same;
              if j <= i then incr rank))
          n.children;
        if !same > 1 then Format.fprintf ppf "/%s[%d]" name !rank
        else Format.fprintf ppf "/%s" name;
        steps c rest
  in
  Format.fprintf ppf "/%s" (step_name a.doc);
  steps a.doc a.target
