module type SESSION = sig
  type query
  type item
  type state

  val init : item list -> state
  val record : state -> item -> bool -> state
  val determined : state -> item -> bool option
  val candidate : state -> query option
  val pp_item : Format.formatter -> item -> unit
  val pp_query : Format.formatter -> query -> unit
end

type ('state, 'item) strategy = Prng.t -> 'state -> 'item list -> 'item

exception Replay_failed of Error.t

(* Telemetry: the paper's headline efficiency measure is the question count,
   so the interaction loop is the most-instrumented spot in the repo.  The
   question counter must agree exactly with [outcome.questions] — the batch
   loop bumps it once per label it folds in. *)
let m_questions = Telemetry.Metrics.counter "learnq.interact.questions"
let m_replayed = Telemetry.Metrics.counter "learnq.interact.replayed"
let m_pruned = Telemetry.Metrics.counter "learnq.interact.pruned"
let m_refused = Telemetry.Metrics.counter "learnq.interact.refused"
let m_retried = Telemetry.Metrics.counter "learnq.interact.retried"
let m_degraded = Telemetry.Metrics.counter "learnq.interact.degraded"
let m_ask_s = Telemetry.Metrics.histogram "learnq.interact.ask_s"

let first_strategy _rng _st = function
  | [] -> invalid_arg "Interact.first_strategy: no informative item"
  | item :: _ -> item

let random_strategy rng _st items = Prng.pick rng items

module Make (S : SESSION) = struct
  type resume =
    Journal.event list
    * (string -> S.item option)
    * (string -> (S.state, string) result)

  type t = {
    journal : (Journal.t * (S.item -> string)) option;
    snapshot : (S.state -> string) option;
    checkpoint_every : int;  (** 0 = never automatically *)
    mutable answered_keys : string list;  (** codec keys, newest first *)
    mutable since_ck : int;  (** labels since the last checkpoint *)
    mutable state : S.state;
    mutable pool : S.item list;  (** unasked items, original order *)
    mutable current : S.item option;  (** the open question *)
    mutable qid : int;  (** count of Asked records ever (incl. replayed) *)
    mutable asked : (S.item * bool) list;  (** transcript, newest first *)
    mutable questions : int;
    mutable replayed : int;
    mutable pruned : int;
    mutable refused : int;
    mutable done_ : bool;
    mutable degraded : bool;
  }

  let current t = t.current
  let qid t = t.qid
  let finished t = t.done_
  let degraded t = t.degraded
  let state t = t.state
  let questions t = t.questions
  let replayed t = t.replayed
  let pruned t = t.pruned
  let refused t = t.refused

  let jappend t ev =
    match t.journal with None -> () | Some (log, _) -> Journal.append log ev

  let jencode t item =
    match t.journal with None -> "" | Some (_, encode) -> encode item

  (* Restore-then-replay (semantics in the mli).  [pruned] and [refused]
     restart at zero: the next [advance] re-derives pruned from the
     remaining pool (determination is monotone, so the recount equals the
     uninterrupted count), and refused items are back in the pool.

     Items are identified by their journal codec string when there is a
     journal (the codec defines item identity for replay anyway) and
     structurally otherwise.  Membership is a hash-set probe, so replay
     stays linear in journal length and pool size. *)
  let start ?journal ?resume ?(checkpoint_every = 0) ?snapshot ~items () =
    let events, decode, restore =
      match resume with
      | Some r -> r
      | None -> ([], (fun _ -> None), fun _ -> Error "") (* nothing to replay *)
    in
    let invalid fmt =
      Printf.ksprintf
        (fun s -> raise (Replay_failed (Error.invalid_input ~what:"journal" s)))
        fmt
    in
    let decode key =
      match decode key with
      | Some it -> it
      | None ->
          invalid "item %S does not decode; the journal was recorded over \
                   other data" key
    in
    let ck, tail = Journal.split_checkpoint events in
    let t =
      {
        journal;
        snapshot;
        checkpoint_every;
        answered_keys = [];
        since_ck = 0;
        state =
          (match ck with
          | None -> S.init items
          | Some ck -> (
              match restore ck.ck_state with
              | Ok st -> st
              | Error msg -> invalid "checkpoint does not decode: %s" msg));
        pool = items;
        current = None;
        qid = 0;
        asked = [];
        questions = 0;
        replayed = 0;
        pruned = 0;
        refused = 0;
        done_ = false;
        degraded = false;
      }
    in
    let key_of_item =
      match journal with
      | Some (_, encode) -> fun it -> `Codec (encode it)
      | None -> fun it -> `Item it
    in
    let key_of_codec key =
      if Option.is_none journal then key_of_item (decode key) else `Codec key
    in
    (* Items that leave the pool: answered ones, and the open question.
       [take] is false for a key taken before. *)
    let taken = Hashtbl.create 64 in
    let take key =
      let k = key_of_codec key in
      let fresh = not (Hashtbl.mem taken k) in
      if fresh then Hashtbl.add taken k ();
      fresh
    in
    let answered key =
      let fresh = take key in
      if fresh then t.answered_keys <- key :: t.answered_keys;
      fresh
    in
    Option.iter
      (fun c ->
        t.qid <- c.Journal.ck_qid;
        t.replayed <- c.ck_questions;
        List.iter (fun key -> ignore (answered key)) c.ck_answered)
      ck;
    (* The fold's result is the key of a trailing [Asked] without its
       [Answered]: the question the crash interrupted. *)
    let pending =
      List.fold_left
        (fun _ -> function
          | Journal.Asked key ->
              t.qid <- t.qid + 1;
              Some key
          | Journal.Answered (key, Flaky.Label label) ->
              if answered key then begin
                let it = decode key in
                t.state <- S.record t.state it label;
                t.asked <- (it, label) :: t.asked;
                t.replayed <- t.replayed + 1
              end;
              None
          | Journal.Answered _ | Journal.Checkpoint _ -> None
          | Journal.Completed ->
              t.done_ <- true;
              None)
        None tail
    in
    (match pending with
    | Some key when not t.done_ ->
        ignore (take key);
        t.current <- Some (decode key)
    | _ -> ());
    if Hashtbl.length taken > 0 then
      t.pool <-
        List.filter (fun it -> not (Hashtbl.mem taken (key_of_item it))) items;
    t

  (* The determined-scan: split the pool into items whose label is already
     forced (uninformative — pruned without asking) and genuinely open ones.
     Determination checks dominate the session cost, so the budget is spent
     here, one tick per probe. *)
  let scan budget state remaining =
    Telemetry.with_span "interact.scan"
      ~detail:("items=" ^ string_of_int (List.length remaining))
    @@ fun () ->
    List.partition
      (fun it ->
        Budget.tick budget;
        S.determined state it = None)
      remaining

  let advance ?rng ?(strategy = first_strategy) ?(stop = fun () -> false)
      ~budget t =
    if t.current = None && not t.done_ then
      match scan budget t.state t.pool with
      | exception Budget.Out_of_budget ->
          (* Terminal degradation: the candidate so far stands, and with no
             [Completed] record the journal stays resumable under a bigger
             budget. *)
          t.done_ <- true;
          t.degraded <- true
      | opens, determined ->
          t.pruned <- t.pruned + List.length determined;
          t.pool <- opens;
          if opens = [] then begin
            jappend t Journal.Completed;
            t.done_ <- true
          end
          else if not (stop ()) then begin
            let rng = match rng with Some r -> r | None -> Prng.create 0 in
            let item = strategy rng t.state opens in
            (* The ask is journaled before it is exposed: when storage
               refuses the record nothing has moved (item still pooled, qid
               unbumped), so a later advance re-derives the same question
               instead of wedging the session. *)
            jappend t (Journal.Asked (jencode t item));
            t.qid <- t.qid + 1;
            t.pool <- List.filter (fun it -> it != item) opens;
            t.current <- Some item;
            Telemetry.Recorder.record
              ~detail:(Printf.sprintf "qid=%d" t.qid)
              "session.asked"
          end

  (* Snapshot the accumulator and atomically compact the journal down to
     header + checkpoint.  Callable at any point — including with a question
     in flight: the open [Asked] would be erased by compaction, so it is
     excluded from [ck_qid] and re-appended afterwards, keeping the resumed
     qid sequence identical to the uninterrupted one.  (Should that
     re-append fail, resume still re-derives the same question
     deterministically from the pool — it just re-journals the ask.)  On
     failure the old journal and the live session are untouched. *)
  let take_checkpoint t =
    match (t.journal, t.snapshot) with
    | Some (log, encode), Some snap -> (
        let open_key = Option.map encode t.current in
        let ck =
          {
            Journal.ck_qid = (t.qid - if open_key = None then 0 else 1);
            ck_questions = t.questions + t.replayed;
            ck_pruned = t.pruned;
            ck_refused = t.refused;
            ck_answered = List.rev t.answered_keys;
            ck_state = snap t.state;
          }
        in
        match Journal.compact log ck with
        | Error _ as e -> e
        | Ok () -> (
            t.since_ck <- 0;
            match open_key with
            | None -> Ok ()
            | Some key -> (
                try
                  Journal.append log (Journal.Asked key);
                  Ok ()
                with Journal.Io e -> Error e)))
    | _ -> Ok () (* no journal or no state codec: nothing to compact *)

  let answer t reply =
    match t.current with
    | None -> invalid_arg "Interact.answer: no open question"
    | Some item ->
        let key = jencode t item in
        jappend t (Journal.Answered (key, reply));
        Telemetry.Recorder.record
          ~detail:(Printf.sprintf "qid=%d" t.qid)
          "session.answered";
        (match reply with
        | Flaky.Label label ->
            t.state <- S.record t.state item label;
            t.asked <- (item, label) :: t.asked;
            t.questions <- t.questions + 1;
            if Option.is_some t.journal then
              t.answered_keys <- key :: t.answered_keys;
            t.since_ck <- t.since_ck + 1
        | Flaky.Refused | Flaky.Timed_out ->
            (* Set aside for this run; a resume puts it back in the pool. *)
            t.refused <- t.refused + 1);
        t.current <- None;
        (* Periodic compaction rides on the answer that crossed the
           threshold.  The answer itself is journaled and applied first, so
           a storage error here leaves a consistent session that retries
           the compaction on the next answer. *)
        if t.checkpoint_every > 0 && t.since_ck >= t.checkpoint_every then
          match take_checkpoint t with
          | Ok () -> ()
          | Error e -> raise (Journal.Io e)

  type outcome = {
    query : S.query option;
    questions : int;
    replayed : int;
    asked : (S.item * bool) list;
    pruned : int;
    refused : int;
    retried : int;
    degraded : bool;
    breaker_open : bool;
    state : S.state;
  }

  let run_flaky ?(rng = Prng.create 0) ?(strategy = first_strategy)
      ?(max_questions = max_int) ?budget ?journal ?resume ?checkpoint_every
      ?snapshot ?retry ~oracle ~items () =
    let budget =
      match budget with Some b -> b | None -> Budget.unlimited ()
    in
    let t = start ?journal ?resume ?checkpoint_every ?snapshot ~items () in
    if Telemetry.enabled () && t.replayed > 0 then
      Telemetry.Metrics.incr m_replayed ~by:t.replayed;
    let breaker = Option.map (fun p -> (p, Retry.breaker p)) retry in
    let breaker_is_open () =
      match breaker with
      | None -> false
      | Some (_, b) -> Retry.breaker_state b = Retry.Open
    in
    let retried = ref 0 in
    (* One question's round trip to the user, through the retry policy. *)
    let ask item =
      Telemetry.with_span "interact.ask" @@ fun () ->
      let t0 = if Telemetry.enabled () then Monotonic.now () else 0. in
      let reply =
        match breaker with
        | None -> oracle item
        | Some (policy, breaker) -> (
            match
              Retry.call ~budget ~rng policy breaker
                ~classify:(function
                  | Flaky.Label _ -> `Ok
                  | Flaky.Refused | Flaky.Timed_out -> `Transient)
                (fun () -> oracle item)
            with
            | Retry.Answered (r, attempts) | Retry.Gave_up (r, attempts) ->
                retried := !retried + attempts - 1;
                if Telemetry.enabled () && attempts > 1 then
                  Telemetry.Metrics.incr m_retried ~by:(attempts - 1);
                r
            | Retry.Rejected ->
                (* Open breaker: behave like a refusal; the loop notices the
                   open breaker and finishes. *)
                Flaky.Refused)
      in
      if Telemetry.enabled () then
        Telemetry.Metrics.observe m_ask_s (Monotonic.now () -. t0);
      reply
    in
    let finish ~degraded =
      if Telemetry.enabled () then begin
        if t.pruned > 0 then Telemetry.Metrics.incr m_pruned ~by:t.pruned;
        if t.refused > 0 then Telemetry.Metrics.incr m_refused ~by:t.refused;
        if degraded then begin
          Telemetry.Metrics.incr m_degraded;
          Telemetry.Log.warn
            ~kv:
              [
                ("questions", string_of_int t.questions);
                ("pruned", string_of_int t.pruned);
                ("refused", string_of_int t.refused);
              ]
            "interactive session degraded before completion"
        end
      end;
      {
        query = S.candidate t.state;
        questions = t.questions;
        replayed = t.replayed;
        asked = List.rev t.asked;
        pruned = t.pruned;
        refused = t.refused;
        retried = !retried;
        degraded;
        breaker_open = breaker_is_open ();
        state = t.state;
      }
    in
    (* Stop after the scan, before the next [Asked] is journaled: on the
       question cap, or when the oracle is effectively down (an open
       breaker), so the caller can degrade via its fallback ladder. *)
    let stop () = t.questions >= max_questions || breaker_is_open () in
    let rec loop () =
      advance ~rng ~strategy ~stop ~budget t;
      match t.current with
      | None ->
          (* Finished, or stopped: by the cap (not degraded) or by the
             breaker (degraded). *)
          finish
            ~degraded:
              (if t.done_ then t.degraded else t.questions < max_questions)
      | Some item -> (
          match ask item with
          | exception Budget.Out_of_budget -> finish ~degraded:true
          | reply ->
              answer t reply;
              (match reply with
              | Flaky.Label _ -> Telemetry.Metrics.incr m_questions
              | Flaky.Refused | Flaky.Timed_out -> ());
              loop ())
    in
    Telemetry.with_span "interact.session"
      ~detail:("items=" ^ string_of_int (List.length items))
      loop

  let run ?rng ?strategy ?max_questions ?budget ?journal ?resume
      ?checkpoint_every ?snapshot ~oracle ~items () =
    run_flaky ?rng ?strategy ?max_questions ?budget ?journal ?resume
      ?checkpoint_every ?snapshot
      ~oracle:(fun it -> Flaky.Label (oracle it))
      ~items ()

  let cost ~price_per_question (outcome : outcome) =
    price_per_question *. float_of_int outcome.questions
end
