type example = Signature.mask Core.Example.t

let example sp (rt, st) label =
  Core.Example.of_labeled (Signature.signature sp rt st, label)

let most_specific sp sigs =
  List.fold_left Signature.inter (Signature.full sp) sigs

module Version_space = struct
  type t = {
    space : Signature.space;
    specific : Signature.mask;  (** intersection of positive signatures *)
    negatives : Signature.mask list;
  }

  let init space =
    { space; specific = Signature.full space; negatives = [] }

  let record vs mask label =
    if label then { vs with specific = Signature.inter vs.specific mask }
    else { vs with negatives = mask :: vs.negatives }

  (* A predicate θ is consistent iff θ ⊆ specific and θ ⊄ n for every
     negative n.  The most specific candidate dominates: if it fails a
     negative, every candidate does. *)
  let consistent vs =
    List.for_all (fun n -> not (Signature.subset vs.specific n)) vs.negatives

  let most_specific vs = vs.specific

  (* Checkpoint codec support: the version space is fully described by its
     lattice bounds, and the space itself is regenerated from the instance
     spec on resume — so a snapshot is just the masks. *)
  let snapshot vs = (vs.specific, vs.negatives)
  let restore space ~specific ~negatives = { space; specific; negatives }

  let m_tests = Core.Telemetry.Metrics.counter "learnq.join.signature_tests"

  (* [determined] runs ~100ns of bitmask work per call and is called once per
     candidate pair per question, so even the disabled-telemetry branch is a
     measurable fraction of it.  Shadow-count with a plain int (sub-ns) and
     flush into the real counter at the per-question [record] boundary.

     Join sessions on two [serve] pool domains increment this plain ref
     concurrently: increments can be lost, never torn (immediate ints are
     atomic in the OCaml 5 memory model).  The counter is observability
     only — an undercount is acceptable, a mutex here is not. *)
  let tests_pending = ref 0

  let flush_tests () =
    if !tests_pending > 0 then begin
      if Core.Telemetry.enabled () then
        Core.Telemetry.Metrics.incr m_tests ~by:!tests_pending;
      tests_pending := 0
    end

  let determined vs mask =
    incr tests_pending;
    if Signature.subset vs.specific mask then Some true
    else
      let ceiling = Signature.inter vs.specific mask in
      (* Predicates selecting the pair are exactly those ⊆ ceiling; they all
         violate some negative iff the ceiling itself does. *)
      if List.exists (fun n -> Signature.subset ceiling n) vs.negatives then
        Some false
      else None
end

let consistent sp examples =
  let vs =
    List.fold_left
      (fun vs (e : example) ->
        Version_space.record vs e.value (Core.Example.is_positive e))
      (Version_space.init sp) examples
  in
  Version_space.consistent vs

let learn sp examples =
  let vs =
    List.fold_left
      (fun vs (e : example) ->
        Version_space.record vs e.value (Core.Example.is_positive e))
      (Version_space.init sp) examples
  in
  if Version_space.consistent vs then Some (Version_space.most_specific vs)
  else None
