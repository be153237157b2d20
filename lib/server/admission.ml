module Retry = Core.Retry

type job = {
  tenant : string;
  key : string;
  trace : string option;
      (** the submitting request's trace id, captured at enqueue time and
          re-installed by the dispatcher around [run] on a pool domain *)
  run : unit -> Http.response;
  mutable result : Http.response option;
  m : Mutex.t;
  cv : Condition.t;
}

type verdict =
  | Enqueued of job
  | Shed of float
  | Tripped of float
  | Draining of float

type t = {
  max_queue : int;
  retry_after : float;
  rng : Core.Prng.t;  (** Retry-After jitter; guarded by [m] *)
  policy : Retry.policy;
  breakers : (string, Retry.breaker) Hashtbl.t;
  queues : (string, job Queue.t) Hashtbl.t;
  mutable rr : string list;  (** tenants with (possibly empty) queues, in
                                 round-robin order; cleaned lazily *)
  mutable draining : bool;
  mutable total : int;
  mutable shed : int;
  mutable tripped : int;
  mutable dispatched : int;
  m : Mutex.t;
  cv : Condition.t;
}

let create ?(retry_after = 1.0) ?policy ~max_queue () =
  if max_queue < 1 then invalid_arg "Admission.create: max_queue < 1";
  let policy =
    match policy with
    | Some p -> p
    | None ->
        Retry.policy ~breaker_threshold:8 ~cooldown:retry_after
          ~sleep:Retry.no_sleep ()
  in
  {
    max_queue;
    retry_after;
    rng = Core.Prng.create 0x5eed;
    policy;
    breakers = Hashtbl.create 16;
    queues = Hashtbl.create 16;
    rr = [];
    draining = false;
    total = 0;
    shed = 0;
    tripped = 0;
    dispatched = 0;
    m = Mutex.create ();
    cv = Condition.create ();
  }

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* The Retry-After suggestion scales with how backed up the queue is —
   an empty queue says "come right back", a full one says "stay away
   longer" — plus jitter so a thundering herd of refused clients does not
   re-arrive in lockstep.  With the default [retry_after = 1.0]: empty
   queue ∈ [0.5, 1.0), full queue ∈ [1.5, 2.0).  Callers hold [m]. *)
let suggest t =
  let depth = float_of_int t.total /. float_of_int (max 1 t.max_queue) in
  (t.retry_after *. (0.5 +. Float.min 1.0 depth))
  +. Core.Prng.float t.rng (0.5 *. t.retry_after)

let retry_suggestion t = with_lock t (fun () -> suggest t)

let breaker_of t tenant =
  match Hashtbl.find_opt t.breakers tenant with
  | Some b -> b
  | None ->
      let b = Retry.breaker t.policy in
      Hashtbl.add t.breakers tenant b;
      b

(* The drain flag lives under the queue lock so that submit-vs-drain is
   serialized: once [drain] has returned, every later [submit] refuses, so
   a job can never slip into the queue after the dispatcher's final
   "draining && pending = 0" check — which would strand its waiter. *)
let drain t =
  with_lock t (fun () ->
      t.draining <- true;
      Condition.broadcast t.cv)

let submit t ~tenant ~key run =
  with_lock t (fun () ->
      if t.draining then Draining (suggest t)
      else
      let b = breaker_of t tenant in
      match Retry.breaker_state b with
      | Retry.Open ->
          t.tripped <- t.tripped + 1;
          Core.Telemetry.Recorder.record ~detail:tenant "admission.tripped";
          Tripped (suggest t)
      | Retry.Closed | Retry.Half_open ->
          if t.total >= t.max_queue then begin
            t.shed <- t.shed + 1;
            Core.Telemetry.Recorder.record ~detail:key "admission.shed";
            Shed (suggest t)
          end
          else begin
            let job =
              {
                tenant;
                key;
                trace = Core.Telemetry.Trace.current ();
                run;
                result = None;
                m = Mutex.create ();
                cv = Condition.create ();
              }
            in
            let q =
              match Hashtbl.find_opt t.queues tenant with
              | Some q -> q
              | None ->
                  let q = Queue.create () in
                  Hashtbl.add t.queues tenant q;
                  t.rr <- t.rr @ [ tenant ];
                  q
            in
            Queue.push job q;
            t.total <- t.total + 1;
            Condition.broadcast t.cv;
            Enqueued job
          end)

let wait (job : job) =
  Mutex.lock job.m;
  let rec go () =
    match job.result with
    | Some r ->
        Mutex.unlock job.m;
        r
    | None ->
        Condition.wait job.cv job.m;
        go ()
  in
  go ()

let finish (job : job) resp =
  Mutex.lock job.m;
  job.result <- Some resp;
  Condition.broadcast job.cv;
  Mutex.unlock job.m

(* One fairness pass: visit each tenant once in rr order, popping at most
   one eligible job (key not already in the batch).  Returns jobs in visit
   order and the rotated rr. *)
let round t ~taken ~room =
  let batch = ref [] and n = ref 0 in
  let keep = ref [] in
  List.iter
    (fun tenant ->
      match Hashtbl.find_opt t.queues tenant with
      | None -> ()
      | Some q when Queue.is_empty q -> Hashtbl.remove t.queues tenant
      | Some q ->
          keep := tenant :: !keep;
          if !n < room then (
            let head = Queue.peek q in
            if not (Hashtbl.mem taken head.key) then begin
              ignore (Queue.pop q);
              Hashtbl.add taken head.key ();
              t.total <- t.total - 1;
              batch := head :: !batch;
              incr n
            end))
    t.rr;
  t.rr <- List.rev !keep;
  (List.rev !batch, !n)

let take_batch t ~max ~block =
  with_lock t (fun () ->
      if block && t.total = 0 then Condition.wait t.cv t.m;
      if t.total = 0 then []
      else begin
        let taken = Hashtbl.create 16 in
        let rec fill acc room =
          if room <= 0 then acc
          else
            let batch, n = round t ~taken ~room in
            if n = 0 then acc else fill (acc @ batch) (room - n)
        in
        let batch = fill [] max in
        (* rotate so the next batch starts with a different tenant *)
        (match t.rr with [] -> () | x :: rest -> t.rr <- rest @ [ x ]);
        t.dispatched <- t.dispatched + List.length batch;
        batch
      end)

let wake t = with_lock t (fun () -> Condition.broadcast t.cv)

let fault t ~tenant =
  with_lock t (fun () -> Retry.breaker_failure (breaker_of t tenant))

let ok t ~tenant =
  with_lock t (fun () -> Retry.breaker_success (breaker_of t tenant))

let pending t = with_lock t (fun () -> t.total)

type stats = { queued : int; shed : int; tripped : int; dispatched : int }

let stats t =
  with_lock t (fun () ->
      { queued = t.total; shed = t.shed; tripped = t.tripped;
        dispatched = t.dispatched })

type tenant_debug = {
  td_tenant : string;
  td_queued : int;
  td_breaker : string;
}

let breaker_state_string = function
  | Retry.Closed -> "closed"
  | Retry.Open -> "open"
  | Retry.Half_open -> "half-open"

(* Every tenant the admission layer has ever seen (a breaker outlives its
   queue), with its current backlog and breaker state — the /debug/tenants
   view. *)
let debug_tenants t =
  with_lock t (fun () ->
      let tenants = Hashtbl.create 16 in
      Hashtbl.iter (fun ten _ -> Hashtbl.replace tenants ten ()) t.breakers;
      Hashtbl.iter (fun ten _ -> Hashtbl.replace tenants ten ()) t.queues;
      Hashtbl.fold (fun ten () acc -> ten :: acc) tenants []
      |> List.sort compare
      |> List.map (fun ten ->
             {
               td_tenant = ten;
               td_queued =
                 (match Hashtbl.find_opt t.queues ten with
                 | Some q -> Queue.length q
                 | None -> 0);
               td_breaker =
                 breaker_state_string
                   (Retry.breaker_state (breaker_of t ten));
             }))
