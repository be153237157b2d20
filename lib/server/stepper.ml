module Journal = Core.Journal
module Budget = Core.Budget
module Error = Core.Error

type view = {
  engine : string;
  done_ : bool;
  degraded : bool;
  qid : int;
  question : string option;
  question_text : string option;
  questions : int;
  replayed : int;
  pruned : int;
  refused : int;
  query : string option;
}

type peeked = {
  p_engine : string;
  p_done : bool;
  p_degraded : bool;
  p_qid : int;
  p_open : bool;
  p_questions : int;
  p_replayed : int;
  p_pruned : int;
  p_refused : int;
}

type t = {
  view : unit -> view;
  peek : unit -> peeked;
  answer : qid:int -> Core.Flaky.reply -> (view, Core.Error.t) result;
  checkpoint : unit -> (unit, Core.Error.t) result;
  flush : unit -> unit;
  close : unit -> unit;
  abort : unit -> unit;
}

module Make (S : Core.Interact.SESSION) = struct
  module Session = Core.Interact.Make (S)

  let make ?journal ?resume ?(step_budget = Budget.unlimited)
      ?checkpoint_every ~snapshot ~restore ~engine ~encode ~decode ~items () =
    (* Each advance — the determined-scan between two questions — draws a
       fresh step budget, in pool order (no worker pool: the session already
       runs on one). *)
    let advance s = Session.advance ~budget:(step_budget ()) s in
    (* Counters only: no journal touch, no self-heal advance, no candidate
       rendering — safe to call from the accept loop while the dispatcher
       owns the session, at the price of weak consistency. *)
    let peek s =
      {
        p_engine = engine;
        p_done = Session.finished s;
        p_degraded = Session.degraded s;
        p_qid = Session.qid s;
        p_open = Session.current s <> None;
        p_questions = Session.questions s;
        p_replayed = Session.replayed s;
        p_pruned = Session.pruned s;
        p_refused = Session.refused s;
      }
    in
    let view s =
      let current = Session.current s in
      {
        engine;
        done_ = Session.finished s;
        degraded = Session.degraded s;
        qid = Session.qid s;
        question = Option.map encode current;
        question_text = Option.map (Format.asprintf "%a" S.pp_item) current;
        questions = Session.questions s;
        replayed = Session.replayed s;
        pruned = Session.pruned s;
        refused = Session.refused s;
        query =
          Option.map (Format.asprintf "%a" S.pp_query)
            (S.candidate (Session.state s));
      }
    in
    (* A [qid] at or below the current one when the question has moved on
       is a client retrying a delivered reply: an idempotent no-op. *)
    let answer s ~qid reply =
      let current = Session.qid s in
      if qid > current then
        Error
          (Error.invalid_input ~what:"qid"
             (Printf.sprintf
                "answer for question %d but only %d have been asked" qid
                current))
      else if qid < current || Session.current s = None then Ok (view s)
      else
        match
          Session.answer s reply;
          advance s
        with
        | () -> Ok (view s)
        | exception Journal.Io e -> Error e
    in
    let on_journal f = match journal with None -> () | Some j -> f j in
    match
      let s =
        Session.start
          ?journal:(Option.map (fun j -> (j, encode)) journal)
          ?resume:(Option.map (fun events -> (events, decode, restore)) resume)
          ?checkpoint_every ~snapshot ~items ()
      in
      advance s;
      s
    with
    | exception (Core.Interact.Replay_failed e | Journal.Io e) -> Error e
    | s ->
        Ok
          {
            view =
              (fun () ->
                (* Self-heal a rolled-back ask: once the disk accepts
                   records again, the next poll re-derives the question. *)
                (try advance s with Journal.Io _ -> ());
                view s);
            peek = (fun () -> peek s);
            answer = (fun ~qid reply -> answer s ~qid reply);
            checkpoint = (fun () -> Session.take_checkpoint s);
            flush =
              (fun () ->
                (* Best-effort durability nudge between batches; a failing
                   flush keeps its buffer and the next answer surfaces the
                   storage error properly. *)
                on_journal (fun j ->
                    try Journal.flush j with Journal.Io _ -> ()));
            close =
              (fun () ->
                on_journal (fun j ->
                    try Journal.close j with Journal.Io _ -> ()));
            abort = (fun () -> on_journal Journal.abort);
          }
end

let drive ?(stop_after = max_int) st reply =
  let rec go n keys =
    let v = st.view () in
    match v.question with
    | Some key when (not v.done_) && n < stop_after -> (
        match st.answer ~qid:v.qid (reply key) with
        | Ok _ -> go (n + 1) (key :: keys)
        | Error e -> (List.rev keys, Error e))
    | _ -> (List.rev keys, Ok v)
  in
  go 0 []
