type item = { src : int; dst : int; word : string list }

module Session = struct
  type query = Words.hypothesis
  type nonrec item = item

  type state = {
    pos : string list list;
    neg : string list list;
    hyp : Words.hypothesis option;
  }

  let init _items = { pos = []; neg = []; hyp = None }

  let m_rows = Core.Telemetry.Metrics.counter "learnq.path.words_labeled"

  let record st item label =
    Core.Telemetry.Metrics.incr m_rows;
    let st =
      if label then { st with pos = item.word :: st.pos }
      else { st with neg = item.word :: st.neg }
    in
    { st with hyp = Words.learn ~pos:st.pos ~neg:st.neg }

  (* A word already labeled — on any path — needs no second question. *)
  let determined st item =
    if List.mem item.word st.pos then Some true
    else if List.mem item.word st.neg then Some false
    else None

  let candidate st = st.hyp

  let pp_item ppf it =
    Format.fprintf ppf "n%d→n%d via [%s]" it.src it.dst
      (String.concat " " it.word)

  let pp_query ppf q = Words.pp ppf q
end

module Loop = Core.Interact.Make (Session)

let m_walks = Core.Telemetry.Metrics.counter "learnq.path.walks"

let items_of_graph ?(max_len = 4) ?(per_source = 30) ~rng g =
  Core.Telemetry.with_span "path.walks" @@ fun () ->
  let n = Graphdb.Graph.node_count g in
  let items =
    List.concat
      (List.init n (fun src ->
         let paths = Graphdb.Rpq.paths_from g ~src ~max_len in
         let items =
           List.filter_map
             (fun (nodes, word) ->
               match List.rev nodes with
               | dst :: _ when word <> [] -> Some { src; dst; word }
               | _ -> None)
             paths
         in
         let items = List.sort_uniq compare items in
         if List.length items <= per_source then items
         else Core.Prng.sample rng per_source items))
  in
  if Core.Telemetry.enabled () then
    Core.Telemetry.Metrics.incr m_walks ~by:(List.length items);
  items

let shortest_first items =
  List.sort (fun a b -> compare (List.length a.word) (List.length b.word)) items

let workload_strategy ~prior _rng _st items =
  let preferred =
    List.filter
      (fun it -> List.exists (fun d -> Automata.Dfa.accepts d it.word) prior)
      items
  in
  match shortest_first (if preferred = [] then items else preferred) with
  | it :: _ -> it
  | [] -> invalid_arg "workload_strategy: no informative item"

(* Journal codec: a walk is its endpoints and word; edge labels never contain
   spaces, so a space-separated line round-trips. *)
let encode_item (it : item) =
  Printf.sprintf "%d %d %s" it.src it.dst (String.concat " " it.word)

let decode_item s =
  match String.split_on_char ' ' s with
  | src :: dst :: (_ :: _ as word) -> (
      match (int_of_string_opt src, int_of_string_opt dst) with
      | Some src, Some dst -> Some { src; dst; word }
      | _ -> None)
  | _ -> None

(* Checkpoint codec: the state is the labeled word sets; the hypothesis is
   recomputed by ONE [Words.learn] call on decode — where a plain journal
   replay re-runs the learner once per recorded answer.  That single call is
   what makes resume-from-checkpoint an order of magnitude cheaper than
   replay for long path sessions. *)
let encode_state (st : Session.state) =
  let line sign w = sign ^ String.concat " " w in
  String.concat "\n"
    (("path1" :: List.map (line "+") st.Session.pos)
    @ List.map (line "-") st.Session.neg)

let decode_state s =
  match String.split_on_char '\n' s with
  | "path1" :: lines -> (
      let parse line =
        if String.length line < 2 then Error (Printf.sprintf "bad line %S" line)
        else
          let word =
            String.sub line 1 (String.length line - 1)
            |> String.split_on_char ' '
            |> List.filter (fun t -> t <> "")
          in
          if word = [] then Error (Printf.sprintf "empty word in %S" line)
          else
            match line.[0] with
            | '+' -> Ok (`Pos word)
            | '-' -> Ok (`Neg word)
            | _ -> Error (Printf.sprintf "bad label in %S" line)
      in
      let rec collect pos neg = function
        | [] ->
            (* [pos]/[neg] were accumulated reversed; restore the stored
               (newest-first) order before the single learn call. *)
            let pos = List.rev pos and neg = List.rev neg in
            Ok { Session.pos; neg; hyp = Words.learn ~pos ~neg }
        | line :: rest -> (
            match parse line with
            | Error _ as e -> e
            | Ok (`Pos w) -> collect (w :: pos) neg rest
            | Ok (`Neg w) -> collect pos (w :: neg) rest)
      in
      collect [] [] lines)
  | _ -> Error "not a path state snapshot"

let run_with_goal ?(rng = Core.Prng.create 0) ?strategy ?budget ?max_len ~graph
    ~goal () =
  let items = items_of_graph ?max_len ~rng graph in
  let oracle (it : item) = Automata.Dfa.accepts goal it.word in
  Loop.run ~rng ?strategy ?budget ~oracle ~items ()
