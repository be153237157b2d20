type item = Xmltree.Annotated.t

(* Fault-injection switch for the fuzzing harness: [false] skips the probe
   memo's recheck of negatives recorded after an entry was cached, i.e. the
   exact staleness bug the memo's survived-count bookkeeping prevents. *)
let probe_recheck = ref true
let set_probe_recheck b = probe_recheck := b

module Session = struct
  type query = Twig.Query.t
  type nonrec item = item

  type state = {
    pos : item list;
    neg : item list;
    neg_count : int;  (** [List.length neg], for the probe memo *)
    acc : Positive.Incremental.acc;  (** running raw LGG of [pos] *)
    lgg : Twig.Query.t option;  (** minimized anchored candidate *)
  }

  let init _items =
    {
      pos = [];
      neg = [];
      neg_count = 0;
      acc = Positive.Incremental.empty;
      lgg = None;
    }

  let record st item label =
    if label then
      Core.Telemetry.with_span "twig.lgg.inc" @@ fun () ->
      let acc = Positive.Incremental.add st.acc item in
      let lgg = Positive.Incremental.candidate acc in
      { st with pos = item :: st.pos; acc; lgg }
    else { st with neg = item :: st.neg; neg_count = st.neg_count + 1 }

  let candidate st = st.lgg

  (* The probe memo.  [determined] revisits every open item once per round,
     but its inputs move slowly: the accumulator changes only on a positive
     answer (a handful per session) and the negative set only grows.  So
     each domain remembers, per item, the item's would-be generalization
     and how many negatives it has survived — a probe then merges nothing
     and rechecks only the negatives recorded since.  [Closed] is sound to
     cache because inconsistency is monotone at a fixed accumulator: more
     negatives never reopen an item.  The memo is invalidated wholesale
     when the accumulator's physical identity moves, and is domain-local
     ({!Core.Pool} workers warm their own), so verdicts — hence question
     sequences — are unchanged at every pool size.

     Sessions on one document share the memo: the characteristic memo
     hands them physically equal accumulators for equal positives.  The
     extension is pure in (accumulator, item), so [Leaves] and the raw
     query are shared.  A verdict counts one session's negatives, so it is
     tagged with that session's [pos] list — a fresh cons cell per session
     once it has a positive — and another session re-derives it. *)
  type verdict =
    | Closed  (** a negative of the owning session is selected *)
    | Survived of int  (** negatives of the owning session checked *)

  type probe_entry =
    | Leaves  (** the extension leaves the anchored fragment *)
    | Extends of Twig.Query.t * item list * verdict
        (** raw extension; the owning session's [pos] (phys-eq) *)

  type probe_memo = {
    mutable pm_acc : Twig.Query.t option;  (* phys-eq key *)
    pm_tbl : (Xmltree.Tree.path, probe_entry) Hashtbl.t;
  }

  let probe_dls : probe_memo Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        { pm_acc = None; pm_tbl = Hashtbl.create 512 })

  let selects_any_prefix raw negs ~count =
    let rec go i = function
      | n :: rest when i < count ->
          Twig.Eval.selects_example raw n || go (i + 1) rest
      | _ -> false
    in
    go 0 negs

  let determined_incremental st item =
    match Positive.Incremental.raw st.acc with
    | None -> None  (* no positives yet: everything is informative *)
    | Some acc_raw -> (
        let memo = Domain.DLS.get probe_dls in
        (if match memo.pm_acc with Some a -> a != acc_raw | None -> true
         then begin
           memo.pm_acc <- Some acc_raw;
           Hashtbl.reset memo.pm_tbl
         end);
        let target = (item : item).target in
        let cached = Hashtbl.find_opt memo.pm_tbl target in
        match cached with
        | Some Leaves -> Some false
        | Some (Extends (_, owner, Closed)) when owner == st.pos -> Some false
        | _ -> (
            let raw_opt, survived =
              match cached with
              | Some (Extends (raw, owner, Survived k)) when owner == st.pos ->
                  (Some raw, k)
              | Some (Extends (raw, _, _)) -> (Some raw, 0)
              | _ -> (Positive.Incremental.extend_consistent st.acc item, 0)
            in
            match raw_opt with
            | None ->
                (* Generalizing onto this item leaves the anchored fragment:
                   final for this accumulator, whichever session probes. *)
                Hashtbl.replace memo.pm_tbl target Leaves;
                Some false
            | Some raw ->
                (* [st.neg] is newest-first: the first [neg_count - survived]
                   entries are the ones this item has not been checked
                   against yet. *)
                let recheck_count =
                  if !probe_recheck then st.neg_count - survived
                  else if survived = 0 then st.neg_count
                  else 0
                in
                let closed =
                  selects_any_prefix raw st.neg ~count:recheck_count
                in
                Hashtbl.replace memo.pm_tbl target
                  (Extends
                     ( raw,
                       st.pos,
                       if closed then Closed else Survived st.neg_count ));
                if closed then Some false else None))

  let determined st item =
    match st.lgg with
    | None -> None
    | Some q ->
        if Twig.Eval.selects_example q item then Some true
        else determined_incremental st item

  let pp_item = Xmltree.Annotated.pp
  let pp_query = Twig.Query.pp
end

module Loop = Core.Interact.Make (Session)

(* The reference session: refold the whole positive set through
   [Positive.learn_positive] on every answer and every probe — the
   pre-incremental path, with no probe memo.  [st.pos] is newest-first and
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
