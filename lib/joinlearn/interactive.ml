type item = {
  left : Relational.Relation.tuple;
  right : Relational.Relation.tuple;
  mask : Signature.mask;
}

let m_rows = Core.Telemetry.Metrics.counter "learnq.join.rows_labeled"
let m_signatures = Core.Telemetry.Metrics.counter "learnq.join.signatures"

module Session = struct
  type query = Signature.mask
  type nonrec item = item
  type state = { space : Signature.space; vs : Join.Version_space.t }

  (* The pool always comes from [items_of], whose space we can recover from
     any item; an empty pool only occurs in degenerate tests. *)
  let init items =
    let space =
      match items with
      | it :: _ ->
          ignore it.mask;
          Signature.space ~left_arity:(Array.length it.left)
            ~right_arity:(Array.length it.right)
      | [] -> Signature.space ~left_arity:1 ~right_arity:1
    in
    { space; vs = Join.Version_space.init space }

  let record st item label =
    Core.Telemetry.Metrics.incr m_rows;
    Join.Version_space.flush_tests ();
    { st with vs = Join.Version_space.record st.vs item.mask label }

  let determined st item = Join.Version_space.determined st.vs item.mask

  let candidate st =
    Join.Version_space.flush_tests ();
    if Join.Version_space.consistent st.vs then
      Some (Join.Version_space.most_specific st.vs)
    else None

  let pp_item ppf it =
    Format.fprintf ppf "%a ⋈ %a" Relational.Relation.pp_tuple it.left
      Relational.Relation.pp_tuple it.right

  let pp_query ppf _m = Format.pp_print_string ppf "<predicate mask>"
end

module Loop = Core.Interact.Make (Session)

let items_of space left right =
  Core.Telemetry.with_span "join.signatures" @@ fun () ->
  let items =
    List.concat_map
      (fun rt ->
        List.map
          (fun st ->
            { left = rt; right = st; mask = Signature.signature space rt st })
          (Relational.Relation.tuples right))
      (Relational.Relation.tuples left)
  in
  if Core.Telemetry.enabled () then
    Core.Telemetry.Metrics.incr m_signatures ~by:(List.length items);
  items

let lattice_strategy _rng (st : Session.state) items =
  let specific = Join.Version_space.most_specific st.vs in
  let score it = Signature.popcount (Signature.inter specific it.mask) in
  match items with
  | [] -> invalid_arg "lattice_strategy: no informative item"
  | first :: _ ->
      List.fold_left
        (fun best it -> if score it > score best then it else best)
        first items

let split_strategy ?(sample = 48) () rng (st : Session.state) items =
  let candidates =
    if List.length items <= sample then items
    else Core.Prng.sample rng sample items
  in
  let others it = List.filter (fun o -> o != it) items in
  let determined_count vs pool =
    List.length
      (List.filter
         (fun o -> Join.Version_space.determined vs o.mask <> None)
         pool)
  in
  let score it =
    let rest = others it in
    let if_pos =
      determined_count (Join.Version_space.record st.vs it.mask true) rest
    and if_neg =
      determined_count (Join.Version_space.record st.vs it.mask false) rest
    in
    min if_pos if_neg
  in
  if candidates = [] then invalid_arg "split_strategy: no informative item";
  (* Score every candidate once (the old fold recomputed [score best] at
     each comparison), through the domain pool: each score is an independent
     O(|items|) mask scan, and the argmax below is a sequential
     left-to-right fold over input-order results, so the chosen item — and
     hence the question sequence — is identical at every pool size. *)
  let scores = Core.Pool.map_list (Core.Pool.default ()) score candidates in
  match List.combine candidates scores with
  | [] -> assert false
  | (first, s0) :: rest ->
      fst
        (List.fold_left
           (fun (best, sb) (it, s) -> if s > sb then (it, s) else (best, sb))
           (first, s0) rest)

(* Journal codec: the pool is the Cartesian product of two relations that
   resume regenerates from the journaled seed, so an item is a pair of row
   indices. *)
let index_of tuples t =
  let rec go i = function
    | [] -> None
    | x :: rest -> if x = t then Some i else go (i + 1) rest
  in
  go 0 tuples

let encode_item ~left ~right (it : item) =
  match
    ( index_of (Relational.Relation.tuples left) it.left,
      index_of (Relational.Relation.tuples right) it.right )
  with
  | Some i, Some j -> Printf.sprintf "%d:%d" i j
  | _ -> invalid_arg "Joinlearn.Interactive.encode_item: tuple not in relation"

let decode_item ~left ~right s =
  match String.split_on_char ':' s with
  | [ i; j ] -> (
      match (int_of_string_opt i, int_of_string_opt j) with
      | Some i, Some j -> (
          match
            ( List.nth_opt (Relational.Relation.tuples left) i,
              List.nth_opt (Relational.Relation.tuples right) j )
          with
          | Some lt, Some rt ->
              let space =
                Signature.space
                  ~left_arity:(Relational.Relation.arity left)
                  ~right_arity:(Relational.Relation.arity right)
              in
              Some
                { left = lt; right = rt; mask = Signature.signature space lt rt }
          | _ -> None)
      | _ -> None)
  | _ -> None

(* Checkpoint codec: the version space is its lattice bounds — a handful of
   bitmasks.  The space is regenerated from the relations on resume (like
   [decode_item] does), with the dimension recorded as a guard against a
   snapshot from a different instance. *)
let encode_state (st : Session.state) =
  let specific, negatives = Join.Version_space.snapshot st.vs in
  String.concat " "
    ("join1"
    :: string_of_int (Signature.dimension st.space)
    :: string_of_int specific
    :: List.map string_of_int negatives)

let decode_state ~left ~right s =
  let space =
    Signature.space
      ~left_arity:(Relational.Relation.arity left)
      ~right_arity:(Relational.Relation.arity right)
  in
  let full = Signature.full space in
  let mask_of tok =
    match int_of_string_opt tok with
    | Some m when m >= 0 && m <= full -> Ok m
    | Some m -> Error (Printf.sprintf "mask %d outside the %d-pair space" m
                         (Signature.dimension space))
    | None -> Error (Printf.sprintf "bad mask token %S" tok)
  in
  match String.split_on_char ' ' s with
  | "join1" :: dim :: specific :: negatives -> (
      if int_of_string_opt dim <> Some (Signature.dimension space) then
        Error
          (Printf.sprintf "snapshot dimension %s but instance has %d" dim
             (Signature.dimension space))
      else
        match mask_of specific with
        | Error _ as e -> e
        | Ok specific -> (
            let rec masks acc = function
              | [] -> Ok (List.rev acc)
              | tok :: rest -> (
                  match mask_of tok with
                  | Error _ as e -> e
                  | Ok m -> masks (m :: acc) rest)
            in
            match masks [] negatives with
            | Error _ as e -> e
            | Ok negatives ->
                Ok
                  {
                    Session.space;
                    vs = Join.Version_space.restore space ~specific ~negatives;
                  }))
  | _ -> Error "not a join state snapshot"

let run_with_goal ?(rng = Core.Prng.create 0) ?strategy ?budget ~left ~right
    ~goal () =
  let space =
    Signature.space
      ~left_arity:(Relational.Relation.arity left)
      ~right_arity:(Relational.Relation.arity right)
  in
  let goal_mask = Signature.of_predicate space goal in
  let items = items_of space left right in
  let oracle it = Signature.subset goal_mask it.mask in
  Loop.run ~rng ?strategy ?budget ~oracle ~items ()
