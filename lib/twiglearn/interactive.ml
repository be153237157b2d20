type item = Xmltree.Annotated.t

module Session = struct
  type query = Twig.Query.t
  type nonrec item = item

  type state = {
    pos : item list;
    neg : item list;
    acc : Positive.Incremental.acc;  (** running raw LGG of [pos] *)
    lgg : Twig.Query.t option;  (** minimized anchored candidate *)
  }

  let init _items =
    { pos = []; neg = []; acc = Positive.Incremental.empty; lgg = None }

  let record st item label =
    if label then
      Core.Telemetry.with_span "twig.lgg.inc" @@ fun () ->
      let acc = Positive.Incremental.add st.acc item in
      let lgg = Positive.Incremental.candidate acc in
      { st with pos = item :: st.pos; acc; lgg }
    else { st with neg = item :: st.neg }

  let candidate st = st.lgg

  (* Would taking [item] positive leave the anchored fragment or select a
     recorded negative?  [extend_consistent] settles most items on the two
     spines, without merging a filter. *)
  let determined st item =
    match st.lgg with
    | None -> None  (* no candidate yet: everything is informative *)
    | Some q -> (
        if Twig.Eval.selects_example q item then Some true
        else
          match Positive.Incremental.extend_consistent st.acc item with
          | None -> Some false
          | Some raw ->
              if List.exists (Twig.Eval.selects_example raw) st.neg then
                Some false
              else None)

  let pp_item = Xmltree.Annotated.pp
  let pp_query = Twig.Query.pp
end

module Loop = Core.Interact.Make (Session)

(* The reference session: refold the whole positive set through
   [Positive.learn_positive] on every answer and every probe — the
   pre-incremental path, with no spine precheck.  [st.pos] is newest-first and
   the fold runs in arrival order, as the accumulator does: [Lgg.lgg] is a
   heuristic alignment, not associative, so folding newest-first could
   learn a differently-selecting candidate and ask other questions. *)
module Batch = struct
  module Session = struct
    type query = Twig.Query.t
    type nonrec item = item

    type state = {
      pos : item list;
      neg : item list;
      lgg : Twig.Query.t option;
    }

    let init _items = { pos = []; neg = []; lgg = None }

    let record st item label =
      if label then
        let pos = item :: st.pos in
        { st with pos; lgg = Positive.learn_positive (List.rev pos) }
      else { st with neg = item :: st.neg }

    let candidate st = st.lgg

    (* Would taking [item] positive contradict a recorded negative or leave
       the anchored fragment? *)
    let determined st item =
      match st.lgg with
      | None -> None
      | Some q -> (
          if Twig.Eval.selects_example q item then Some true
          else
            match Positive.learn_positive (List.rev (item :: st.pos)) with
            | None -> Some false
            | Some q' ->
                if List.exists (Twig.Eval.selects_example q') st.neg then
                  Some false
                else None)

    let pp_item = Xmltree.Annotated.pp
    let pp_query = Twig.Query.pp
  end

  module Loop = Core.Interact.Make (Session)
end

let m_items = Core.Telemetry.Metrics.counter "learnq.twiglearn.items"

(* Text nodes carry values, not structure: twig queries select element
   nodes, so only those are labelable. *)
let items_of_doc doc =
  Core.Telemetry.with_span "twiglearn.enumerate.items" @@ fun () ->
  let items =
    Xmltree.Tree.all_paths doc
    |> List.filter (fun p ->
           match Xmltree.Tree.node_at doc p with
           | Some n -> not (Xmltree.Tree.is_text n)
           | None -> false)
    |> List.map (fun p -> Xmltree.Annotated.make doc p)
  in
  if Core.Telemetry.enabled () then
    Core.Telemetry.Metrics.incr m_items ~by:(List.length items);
  items

let label_diverse_strategy _rng (st : Session.state) items =
  (* Diversify over (label, parent label) contexts: the same label under a
     new parent is a genuinely new situation (category/name vs person/name),
     so a positive is found within about one question per context. *)
  let context (a : item) =
    let label = (Xmltree.Annotated.target_node a).label in
    let parent =
      match Xmltree.Tree.parent_path a.target with
      | None -> "^"
      | Some p -> (
          match Xmltree.Tree.node_at a.doc p with
          | Some n -> n.label
          | None -> "^")
    in
    (label, parent)
  in
  let asked = List.map context (st.pos @ st.neg) in
  let count pred = List.length (List.filter pred asked) in
  let score (it : item) =
    let label, parent = context it in
    ( count (fun (l, p) -> String.equal l label && String.equal p parent),
      count (fun (l, _) -> String.equal l label),
      List.length it.target )
  in
  match items with
  | [] -> invalid_arg "label_diverse_strategy: no informative item"
  | first :: rest ->
      List.fold_left
        (fun best it -> if score it < score best then it else best)
        first rest

(* Journal codec: within a session the document is fixed, so an item is just
   its node path, printed the way the CLI's --select flag reads it. *)
let encode_item (it : item) =
  "/" ^ String.concat "/" (List.map string_of_int it.target)

let decode_item ~doc s =
  let parts = String.split_on_char '/' s |> List.filter (fun t -> t <> "") in
  let opts = List.map int_of_string_opt parts in
  if List.exists Option.is_none opts then None
  else
    let path = List.map Option.get opts in
    if Xmltree.Tree.node_at doc path = None then None
    else Some (Xmltree.Annotated.make doc path)

(* Checkpoint codec: the accumulator is a deterministic fold of the labeled
   nodes, so the snapshot is the labels themselves — positives and negatives
   as node paths, each side in arrival order.  Decoding refolds
   [Session.record] (positives first, then negatives; the two sides never
   read each other during a fold, so de-interleaving is sound), which
   rebuilds [acc]/[lgg] exactly as the live session did instead of trying
   to serialize an LGG accumulator.  A [twig1 batch] header, written by
   sessions of the retired batch mode, refolds the same way: both modes ask
   the same questions ([interact-batch] fuzz oracle). *)
let encode_state (st : Session.state) =
  let line label it = (if label then "+" else "-") ^ encode_item it in
  String.concat "\n"
    ("twig1"
    :: List.rev_map (line true) st.Session.pos
    @ List.rev_map (line false) st.Session.neg)

let decode_state ~doc s =
  match String.split_on_char '\n' s with
  | header :: lines when header = "twig1" || header = "twig1 batch" -> (
      let parse line =
        if String.length line < 2 then Error (Printf.sprintf "bad line %S" line)
        else
          let label =
            match line.[0] with
            | '+' -> Ok true
            | '-' -> Ok false
            | _ -> Error (Printf.sprintf "bad label in %S" line)
          in
          match label with
          | Error _ as e -> e
          | Ok label -> (
              let key = String.sub line 1 (String.length line - 1) in
              match decode_item ~doc key with
              | Some it -> Ok (it, label)
              | None -> Error (Printf.sprintf "node %S not in document" key))
      in
      let rec refold st = function
        | [] -> Ok st
        | line :: rest -> (
            match parse line with
            | Error _ as e -> e
            | Ok (it, label) -> refold (Session.record st it label) rest)
      in
      (* Positives precede negatives in the encoding, so a plain
         left-to-right refold replays each side in arrival order. *)
      refold (Session.init []) lines)
  | _ -> Error "not a twig state snapshot"

let run_with_goal ?rng ?strategy ?budget ~doc ~goal () =
  Loop.run ?rng ?strategy ?budget
    ~oracle:(Twig.Eval.selects_example goal)
    ~items:(items_of_doc doc) ()
