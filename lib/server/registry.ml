module Journal = Core.Journal
module Budget = Core.Budget
module Error = Core.Error
module Vfs = Core.Vfs

type config = {
  dir : string;
  sync : Core.Journal.sync;
  tenants : Tenant.t;
  step_fuel : int option;
  step_timeout : float option;
  vfs : Vfs.t;
  checkpoint_every : int;  (** compact each session every N answers; 0 = off *)
  max_live : int;  (** LRU-evict beyond this many live steppers; 0 = ∞ *)
  idle_evict_after : float;  (** evict sessions idle this long; 0. = off *)
}

type session = {
  tenant : string;
  id : string;
  spec : Engines.spec;
  stepper : Stepper.t;
  path : string;
  mutable last_used : float;  (** wall clock of the last touch (LRU key) *)
}

type stats = { live : int; evicted : int; resumed : int; quarantined : int }

type t = {
  cfg : config;
  sessions : (string, session) Hashtbl.t;
  building : (string, string) Hashtbl.t;
      (** key -> tenant: slots reserved while a stepper is being built,
          resumed, or checkpointed out — concurrent requests wait on [cv] *)
  cv : Condition.t;  (** signaled whenever [building] shrinks *)
  mutable evicted : int;
  mutable resumed : int;
  mutable quarantined : int;
  m : Mutex.t;
}

let m_evicted = Core.Telemetry.Metrics.counter "learnq.serve.evicted"
let m_resumed = Core.Telemetry.Metrics.counter "learnq.serve.resumed"

let m_quarantined =
  Core.Telemetry.Metrics.counter "learnq.serve.quarantined"

let key ~tenant ~id = tenant ^ "/" ^ id

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '-' -> true
         | _ -> false)
       s

(* "." cannot appear in a valid tenant or session name, so
   [tenant ^ "." ^ id] is injective: no two (tenant, id) pairs share a
   journal file, and recovery can split the name back unambiguously.  (A
   "__" separator would be ambiguous — names may contain '_' anywhere.) *)
let journal_path cfg ~tenant ~id =
  Filename.concat cfg.dir (tenant ^ "." ^ id ^ ".journal")

let create cfg =
  (try Vfs.mkdir cfg.vfs cfg.dir
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  {
    cfg;
    sessions = Hashtbl.create 64;
    building = Hashtbl.create 8;
    cv = Condition.create ();
    evicted = 0;
    resumed = 0;
    quarantined = 0;
    m = Mutex.create ();
  }

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let tenant_count_locked t tenant =
  let live =
    Hashtbl.fold
      (fun _ s n -> if s.tenant = tenant then n + 1 else n)
      t.sessions 0
  in
  Hashtbl.fold
    (fun _ ten n -> if ten = tenant then n + 1 else n)
    t.building live

(* Per-step budget: the tenant's caps override the server-wide defaults. *)
let step_budget t tenant =
  let q = Tenant.find t.cfg.tenants tenant in
  let fuel =
    match q.Tenant.step_fuel with Some f -> Some f | None -> t.cfg.step_fuel
  in
  let timeout =
    match q.Tenant.step_timeout with
    | Some s -> Some s
    | None -> t.cfg.step_timeout
  in
  fun () -> Budget.create ?fuel ?timeout ()

(* A journal that cannot be trusted: CRC failure or an undecodable payload
   beyond the last checkpoint.  Storage and lock errors are NOT this — they
   are transient and the journal may be perfectly fine. *)
let quarantine_worthy = function
  | Error.Corrupt_journal _ -> true
  | Error.Invalid_input { what = "journal"; _ } -> true
  | _ -> false

(* Move a corrupt journal out of the recovery path so it stops crashing
   every resume attempt, keeping the bytes for forensics.  Its stale lock
   (the writer that corrupted it is gone) goes with it. *)
let quarantine t ~path =
  (try Vfs.rename t.cfg.vfs path (path ^ ".quarantine")
   with Unix.Unix_error _ -> ());
  (try Vfs.unlink t.cfg.vfs (Journal.lock_path_of path)
   with Unix.Unix_error _ -> ());
  with_lock t (fun () -> t.quarantined <- t.quarantined + 1);
  (* Freeze the last moments next to the corpse: the flight-recorder dump
     shows what the server was doing (faults, fsyncs, evictions) in the
     window before this journal went bad. *)
  Core.Telemetry.Recorder.record ~detail:path "registry.quarantine";
  if Core.Telemetry.mode () <> Core.Telemetry.Off then
    Core.Telemetry.Recorder.dump_to_file (path ^ ".quarantine.flight.json");
  if Core.Telemetry.enabled () then begin
    Core.Telemetry.Metrics.incr m_quarantined;
    Core.Telemetry.Log.warn
      ~kv:[ ("journal", path) ]
      "corrupt journal quarantined"
  end

(* Rebuild a session from its on-disk journal: recover (restoring from the
   last checkpoint when one is present — [Engines.make] wires the state
   codec), verify the spec when the caller knows what it expects, and
   continue appending.  Runs outside the registry lock. *)
let resume_session ?expect t ~tenant ~id =
  let path = journal_path t.cfg ~tenant ~id in
  match Journal.resume ~sync:t.cfg.sync ~vfs:t.cfg.vfs ~path () with
  | Error _ as e -> e
  | Ok (j, recovered) -> (
      let jclose () = try Journal.close j with Journal.Io _ -> () in
      let recorded =
        match recovered.Journal.header with
        | Some h -> Engines.spec_of_config h.Journal.config
        | None -> Error "journal has no header"
      in
      match recorded with
      | Error msg ->
          jclose ();
          Error
            (Error.invalid_input ~what:"journal"
               (Printf.sprintf "%s: %s" path msg))
      | Ok spec -> (
          match expect with
          | Some want when want <> spec ->
              jclose ();
              Error
                (Error.invalid_input ~what:"session"
                   (Printf.sprintf
                      "session %s exists with a different spec (%s)" id
                      (Engines.config_of_spec spec)))
          | _ -> (
              match
                Engines.make ~journal:j ~resume:recovered.Journal.events
                  ~step_budget:(step_budget t tenant)
                  ~checkpoint_every:t.cfg.checkpoint_every spec
              with
              | Ok stepper ->
                  Ok
                    {
                      tenant;
                      id;
                      spec;
                      stepper;
                      path;
                      last_used = Unix.gettimeofday ();
                    }
              | Error _ as e ->
                  jclose ();
                  e)))

(* Build a stepper over a fresh journal, or by resuming the one already on
   disk (spec must agree with the recorded header).  Runs outside the
   registry lock. *)
let build t ~tenant ~id spec =
  let path = journal_path t.cfg ~tenant ~id in
  let fresh () =
    match
      Journal.create_result ~sync:t.cfg.sync ~vfs:t.cfg.vfs ~path
        (Engines.header_of_spec spec)
    with
    | Error _ as e -> e
    | Ok j -> (
        match
          Engines.make ~journal:j
            ~step_budget:(step_budget t tenant)
            ~checkpoint_every:t.cfg.checkpoint_every spec
        with
        | Ok stepper ->
            Ok
              { tenant; id; spec; stepper; path; last_used = Unix.gettimeofday () }
        | Error _ as e ->
            (try Journal.close j with Journal.Io _ -> ());
            (try Vfs.unlink t.cfg.vfs path with Unix.Unix_error _ -> ());
            e)
  in
  if not (Vfs.exists t.cfg.vfs path) then fresh ()
  else resume_session ~expect:spec t ~tenant ~id

let create_session t ~tenant ~id spec =
  if not (valid_name tenant && valid_name id) then
    Error
      (Error.invalid_input ~what:"session"
         "tenant and session ids must match [A-Za-z0-9_-]+")
  else
    let k = key ~tenant ~id in
    let reserve () =
      with_lock t (fun () ->
          match Hashtbl.find_opt t.sessions k with
          | Some s ->
              if s.spec <> spec then
                Error
                  (`Err
                     (Error.invalid_input ~what:"session"
                        (Printf.sprintf
                           "session %s exists with a different spec (%s)" id
                           (Engines.config_of_spec s.spec))))
              else begin
                s.last_used <- Unix.gettimeofday ();
                Error (`Existing (s.stepper.Stepper.view ()))
              end
          | None ->
              if Hashtbl.mem t.building k then
                Error
                  (`Err
                     (Error.invalid_input ~what:"session"
                        (Printf.sprintf "session %s is being created" id)))
              else
                let q = Tenant.find t.cfg.tenants tenant in
                if tenant_count_locked t tenant >= q.Tenant.max_sessions then
                  Error
                    (`Err
                       (Error.over_quota ~tenant ~what:"max_sessions"
                          ~limit:q.Tenant.max_sessions))
                else begin
                  Hashtbl.add t.building k tenant;
                  Ok ()
                end)
    in
    match reserve () with
    | Error (`Existing view) -> Ok view
    | Error (`Err e) -> Error e
    | Ok () -> (
        let release () =
          with_lock t (fun () ->
              Hashtbl.remove t.building k;
              Condition.broadcast t.cv)
        in
        match build t ~tenant ~id spec with
        | Ok s ->
            with_lock t (fun () ->
                Hashtbl.remove t.building k;
                Hashtbl.replace t.sessions k s;
                Condition.broadcast t.cv);
            Ok (s.stepper.Stepper.view ())
        | Error e ->
            release ();
            if quarantine_worthy e then
              quarantine t ~path:(journal_path t.cfg ~tenant ~id);
            Error e
        | exception exn ->
            release ();
            raise exn)

let find t ~tenant ~id =
  with_lock t (fun () ->
      Option.map
        (fun s ->
          s.last_used <- Unix.gettimeofday ();
          s.stepper)
        (Hashtbl.find_opt t.sessions (key ~tenant ~id)))

(* [find] that sees through eviction: a key with no live stepper but a
   journal on disk is resumed — exactly once, however many requests arrive
   in the burst.  The first caller reserves the key in [building] and does
   the replay; the rest wait on [cv] and find the live stepper.  [Ok None]
   is a genuinely unknown session; a resume failure is the typed error
   (quarantining the journal when it is corrupt, so the next request gets a
   clean 404 instead of the same crash). *)
let find_or_resume t ~tenant ~id =
  let k = key ~tenant ~id in
  let path = journal_path t.cfg ~tenant ~id in
  let rec attempt () =
    let decision =
      with_lock t (fun () ->
          match Hashtbl.find_opt t.sessions k with
          | Some s ->
              s.last_used <- Unix.gettimeofday ();
              `Live s.stepper
          | None ->
              if Hashtbl.mem t.building k then `Wait
              else if Vfs.exists t.cfg.vfs path then begin
                Hashtbl.add t.building k tenant;
                `Build
              end
              else `Absent)
    in
    match decision with
    | `Live stepper -> Ok (Some stepper)
    | `Absent -> Ok None
    | `Wait ->
        with_lock t (fun () ->
            while Hashtbl.mem t.building k do
              Condition.wait t.cv t.m
            done);
        attempt ()
    | `Build -> (
        let release () =
          with_lock t (fun () ->
              Hashtbl.remove t.building k;
              Condition.broadcast t.cv)
        in
        match resume_session t ~tenant ~id with
        | Ok s ->
            with_lock t (fun () ->
                Hashtbl.remove t.building k;
                Hashtbl.replace t.sessions k s;
                t.resumed <- t.resumed + 1;
                Condition.broadcast t.cv);
            if Core.Telemetry.enabled () then
              Core.Telemetry.Metrics.incr m_resumed;
            Ok (Some s.stepper)
        | Error e ->
            release ();
            if quarantine_worthy e then quarantine t ~path;
            Error e
        | exception exn ->
            release ();
            raise exn)
  in
  attempt ()

(* LRU eviction: checkpoint + compact each victim's journal, close it, and
   drop the stepper — the journal alone resurrects it on the next touch.
   Victims are pulled out of the table and parked in [building] first, so a
   concurrent create/find waits instead of racing a stepper mid-checkpoint.
   A victim whose checkpoint fails (the disk is unwell) is put back live:
   evicting it anyway could strand buffered answers.  Called between
   dispatcher batches, when no session is mid-answer. *)
let evict_idle t =
  let cfg = t.cfg in
  if cfg.max_live <= 0 && cfg.idle_evict_after <= 0. then 0
  else begin
    let now = Unix.gettimeofday () in
    let victims =
      with_lock t (fun () ->
          let all =
            Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.sessions []
            |> List.sort (fun (_, a) (_, b) ->
                   compare a.last_used b.last_used)
          in
          let over =
            if cfg.max_live > 0 then
              max 0 (List.length all - cfg.max_live)
            else 0
          in
          let victims =
            List.filteri
              (fun idx (_, s) ->
                idx < over
                || cfg.idle_evict_after > 0.
                   && now -. s.last_used >= cfg.idle_evict_after)
              all
          in
          List.iter
            (fun (k, s) ->
              Hashtbl.remove t.sessions k;
              Hashtbl.add t.building k s.tenant)
            victims;
          victims)
    in
    let evicted =
      List.fold_left
        (fun n (k, s) ->
          let ok =
            match s.stepper.Stepper.checkpoint () with
            | Ok () ->
                s.stepper.Stepper.close ();
                Core.Telemetry.Recorder.record ~detail:k "session.evicted";
                true
            | Error _ -> false
          in
          with_lock t (fun () ->
              Hashtbl.remove t.building k;
              if ok then t.evicted <- t.evicted + 1
              else Hashtbl.replace t.sessions k s;
              Condition.broadcast t.cv);
          if ok then n + 1 else n)
        0 victims
    in
    if evicted > 0 && Core.Telemetry.enabled () then
      Core.Telemetry.Metrics.incr m_evicted ~by:evicted;
    evicted
  end

let delete t ~tenant ~id =
  let k = key ~tenant ~id in
  let path = journal_path t.cfg ~tenant ~id in
  let rec take () =
    let decision =
      with_lock t (fun () ->
          match Hashtbl.find_opt t.sessions k with
          | Some s ->
              Hashtbl.remove t.sessions k;
              `Live s
          | None -> if Hashtbl.mem t.building k then `Wait else `Disk)
    in
    match decision with
    | `Live s ->
        s.stepper.Stepper.close ();
        (try Vfs.unlink t.cfg.vfs path with Unix.Unix_error _ -> ());
        true
    | `Disk ->
        (* An evicted (or never-loaded) session lives only on disk. *)
        if Vfs.exists t.cfg.vfs path then begin
          (try Vfs.unlink t.cfg.vfs path with Unix.Unix_error _ -> ());
          (try Vfs.unlink t.cfg.vfs (Journal.lock_path_of path)
           with Unix.Unix_error _ -> ());
          true
        end
        else false
    | `Wait ->
        with_lock t (fun () ->
            while Hashtbl.mem t.building k do
              Condition.wait t.cv t.m
            done);
        take ()
  in
  take ()

let recover_all t ~pool =
  let files =
    match Vfs.readdir t.cfg.vfs t.cfg.dir with
    | files ->
        Array.to_list files
        |> List.filter (fun f -> Filename.check_suffix f ".journal")
        |> List.sort compare
    | exception Sys_error _ -> []
    | exception Unix.Unix_error _ -> []
  in
  let parse_name f =
    let base = Filename.chop_suffix f ".journal" in
    (* tenant.id — '.' is not a name character, so the first '.' is the
       separator and the mapping round-trips exactly. *)
    match String.index_opt base '.' with
    | None -> None
    | Some i ->
        let tenant = String.sub base 0 i in
        let id = String.sub base (i + 1) (String.length base - i - 1) in
        if valid_name tenant && valid_name id then Some (tenant, id)
        else None
  in
  let todo =
    List.filter_map
      (fun f ->
        match parse_name f with
        | None -> None
        | Some (tenant, id) ->
            let k = key ~tenant ~id in
            if with_lock t (fun () -> Hashtbl.mem t.sessions k) then None
            else Some (f, tenant, id))
      files
  in
  (* Replay is CPU-bound and per-file independent: one pool lane per
     journal.  Each lane only reads its own file and builds its own
     stepper; table insertion happens afterwards on the calling thread. *)
  let results =
    Core.Pool.map_list pool
      (fun (f, tenant, id) -> (f, tenant, id, resume_session t ~tenant ~id))
      todo
  in
  List.fold_left
    (fun (n, errs) (f, tenant, id, r) ->
      match r with
      | Ok s ->
          with_lock t (fun () ->
              Hashtbl.replace t.sessions (key ~tenant:s.tenant ~id:s.id) s);
          (n + 1, errs)
      | Error e ->
          (* Corrupt journals move aside so the next boot is clean; other
             failures (locked, storage) stay put for retry. *)
          if quarantine_worthy e then
            quarantine t ~path:(journal_path t.cfg ~tenant ~id);
          (n, (f, e) :: errs))
    (0, []) results

let snapshot t = with_lock t (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [])

let drain t = List.iter (fun s -> s.stepper.Stepper.close ()) (snapshot t)
let crash t = List.iter (fun s -> s.stepper.Stepper.abort ()) (snapshot t)
let count t = with_lock t (fun () -> Hashtbl.length t.sessions)
let tenant_count t tenant = with_lock t (fun () -> tenant_count_locked t tenant)

let stats t =
  with_lock t (fun () ->
      {
        live = Hashtbl.length t.sessions;
        evicted = t.evicted;
        resumed = t.resumed;
        quarantined = t.quarantined;
      })

let fold t ~init ~f =
  List.fold_left
    (fun acc s -> f acc ~tenant:s.tenant ~id:s.id s.stepper)
    init (snapshot t)

type session_debug = {
  sd_tenant : string;
  sd_id : string;
  sd_engine : string;
  sd_done : bool;
  sd_degraded : bool;
  sd_qid : int;
  sd_open : bool;
  sd_questions : int;
  sd_replayed : int;
  sd_journal_bytes : int;
  sd_idle_s : float;
}

(* The /debug/sessions view.  Uses [Stepper.peek] (counters only — no
   journal touch, no self-heal) so it is safe concurrently with the
   dispatcher mutating the same session; the numbers are weakly
   consistent, which is the right trade for a debug endpoint. *)
let debug_sessions t =
  let now = Unix.gettimeofday () in
  snapshot t
  |> List.sort (fun a b -> compare (a.tenant, a.id) (b.tenant, b.id))
  |> List.map (fun s ->
         let p = s.stepper.Stepper.peek () in
         {
           sd_tenant = s.tenant;
           sd_id = s.id;
           sd_engine = p.Stepper.p_engine;
           sd_done = p.Stepper.p_done;
           sd_degraded = p.Stepper.p_degraded;
           sd_qid = p.Stepper.p_qid;
           sd_open = p.Stepper.p_open;
           sd_questions = p.Stepper.p_questions;
           sd_replayed = p.Stepper.p_replayed;
           sd_journal_bytes =
             (try Vfs.size t.cfg.vfs s.path with
             | Unix.Unix_error _ | Sys_error _ -> 0);
           sd_idle_s = Float.max 0. (now -. s.last_used);
         })
