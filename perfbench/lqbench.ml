(* The OCaml half of the benchmark (perfbench/run.py drives it).

   [lqbench load] is the open-loop load generator for the serve
   workloads.  It is one thread driving two keep-alive connections from a
   select loop: a session's create request is due at its arrival time,
   fixed up front from the seed, and each answer is due one seeded,
   exponentially distributed think time after the previous reply.  A
   request whose connection is busy waits in the generator, and its
   latency still counts from when it was due.  It writes every request's
   due/sent/done times, every session's question sequence and learned
   query, the daemon's /stats, and (traced) the flight recorder dump.

   [lqbench replay] rebuilds the same sessions in process through
   [Engines.make] and [Stepper] with the same replies: the uninterrupted
   reference the served sessions must match.  When traced it also times
   the layers' public functions: instance build, each [Stepper.answer]
   with its allocation, [Http.feed]/[Http.step] and [Json.parse]/
   [Json.to_string] over the recorded requests, [Journal.append]/
   [compact]/[recover] over the run's journals, and registry eviction and
   resume. *)

module Json = Server.Json
module Http = Server.Http
module Engines = Server.Engines
module Stepper = Server.Stepper
module Registry = Server.Registry
module Journal = Core.Journal
module Prng = Core.Prng

let now = Core.Monotonic.now
let die fmt = Printf.ksprintf (fun s -> prerr_endline ("lqbench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Arguments and the workload constants in spec.json                  *)
(* ------------------------------------------------------------------ *)

let args =
  let tbl = Hashtbl.create 16 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | k :: _ -> die "bad argument %S" k
  in
  (match Array.to_list Sys.argv with _ :: _ :: rest -> go rest | _ -> ());
  tbl

let arg k =
  match Hashtbl.find_opt args k with Some v -> v | None -> die "missing --%s" k

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

type workload = {
  engines : string array;  (** round-robin session mix *)
  steps : (float * float) array;  (** (offered sessions/s, share of the run) *)
  think_ms : float;  (** mean think time between a reply and the next answer *)
  tenants : int;
  corpus : int;  (** distinct instance specs per engine *)
  scale : float;
  rows : int;
  cities : int;
  sync : Journal.sync;
  checkpoint_every : int;
}

type serve_consts = {
  refusal : int;  (** permille of replies *)
  timeout : int;
  noise : int;
  goals : (string * string) list;  (** engine -> simulated user's goal *)
  drain_limit : float;  (** seconds a session may run past the last arrival *)
}

let spec_json = lazy (
  match Json.parse (read_file (arg "spec")) with
  | Ok j -> j
  | Error e -> die "spec.json: %s" e)

let field path j =
  List.fold_left
    (fun j k -> match Json.mem k j with Some v -> v | None -> die "spec.json: no %s" k)
    j path

let num path = match Json.num (field path (Lazy.force spec_json)) with
  | Some f -> f | None -> die "spec.json: %s not a number" (String.concat "." path)

let int_ path = int_of_float (num path)
let strs j = match j with Json.Arr l -> List.filter_map Json.str l | _ -> []

(* A workload may override the serve-wide reply rates. *)
let consts name =
  let s = [ "serve" ] in
  let rate k =
    match Json.mem k (field [ "workloads"; name ] (Lazy.force spec_json)) with
    | Some v -> int_of_float (Option.get (Json.num v))
    | None -> int_ (s @ [ k ])
  in
  let goals =
    match field (s @ [ "goals" ]) (Lazy.force spec_json) with
    | Json.Obj kv -> List.filter_map (fun (k, v) -> Option.map (fun g -> (k, g)) (Json.str v)) kv
    | _ -> die "spec.json: serve.goals"
  in
  {
    refusal = rate "refusal_permille";
    timeout = rate "timeout_permille";
    noise = rate "noise_permille";
    goals;
    drain_limit = num (s @ [ "drain_limit_s" ]);
  }

let workload name =
  let w = [ "workloads"; name ] in
  let j = field w (Lazy.force spec_json) in
  let steps =
    match field [ "steps" ] j with
    | Json.Arr l ->
        Array.of_list
          (List.map
             (fun st ->
               ( Option.get (Json.get_num "rate_sps" st),
                 Option.get (Json.get_num "share" st) ))
             l)
    | _ -> die "spec.json: %s.steps" name
  in
  let flag f = (* the workload's own serve flags *)
    let rec go = function
      | k :: v :: _ when k = f -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go (strs (field [ "serve_flags" ] j))
  in
  {
    engines = Array.of_list (strs (field [ "engines" ] j));
    steps;
    think_ms = num (w @ [ "think_ms" ]);
    tenants = int_ (w @ [ "tenants" ]);
    corpus = int_ (w @ [ "corpus" ]);
    scale = num (w @ [ "scale" ]);
    rows = int_ (w @ [ "rows" ]);
    cities = int_ (w @ [ "cities" ]);
    sync =
      Option.value ~default:Journal.Batch
        (Option.bind (flag "--journal-sync") Journal.sync_of_string);
    checkpoint_every =
      Option.value ~default:0 (Option.bind (flag "--checkpoint-every") int_of_string_opt);
  }

(* ------------------------------------------------------------------ *)
(* The session plan: a pure function of (workload, seed, seconds)     *)
(* ------------------------------------------------------------------ *)

type sess = {
  idx : int;
  id : string;
  tenant : string;
  spec : Engines.spec;
  arrive : float;  (** seconds after the run starts *)
  step : int;  (** ladder step the arrival belongs to *)
}

(* Instances come from a fixed corpus of [corpus] specs per engine, used
   round-robin, so every seed serves the same instances: the seed moves
   only arrival times and think times. *)
let spec_for wl engine j =
  { Engines.engine; seed = j + 1; scale = wl.scale; rows = wl.rows; cities = wl.cities }

(* (start, duration, offered rate) of each ladder step. *)
let step_bounds wl ~seconds =
  let t = ref 0.0 in
  Array.map
    (fun (rate, share) ->
      let d = share *. seconds in
      let b = (!t, d, rate) in
      t := !t +. d;
      b)
    wl.steps

(* Each step's arrival count is fixed (rate × duration); their instants
   are uniform in the step — a Poisson process conditioned on its count,
   so every seed offers exactly the nominal load. *)
let plan wl ~seed ~seconds =
  let g = Prng.create seed in
  let arrivals =
    Array.to_list (step_bounds wl ~seconds)
    |> List.mapi (fun k (start, d, rate) ->
           let n = max 1 (int_of_float (Float.round (rate *. d))) in
           let times = Array.init n (fun _ -> start +. Prng.float g d) in
           Array.sort compare times;
           Array.to_list (Array.map (fun at -> (at, k)) times))
    |> List.concat
  in
  let ne = Array.length wl.engines in
  List.mapi
    (fun i (arrive, step) ->
      let engine = wl.engines.(i mod ne) in
      {
        idx = i;
        id = Printf.sprintf "s%05d" i;
        tenant = Printf.sprintf "t%d" (i mod wl.tenants);
        spec = spec_for wl engine (i / ne mod wl.corpus);
        arrive;
        step;
      })
    arrivals
  |> Array.of_list

(* The simulated user: the same question always gets the same reply. *)
let truths = Hashtbl.create 16

let truth c (spec : Engines.spec) =
  match Hashtbl.find_opt truths spec with
  | Some f -> f
  | None ->
      let goal = List.assoc spec.engine c.goals in
      let f =
        match Engines.oracle spec ~goal with
        | Ok f -> f
        | Error e -> die "bad goal %s: %s" goal (Core.Error.to_string e)
      in
      Hashtbl.add truths spec f;
      f

let reply_for c (spec : Engines.spec) key =
  let g = Prng.create (spec.seed lxor Hashtbl.hash key) in
  let roll = Prng.int g 1000 in
  if roll < c.refusal then Core.Flaky.Refused
  else if roll < c.refusal + c.timeout then Core.Flaky.Timed_out
  else
    let label = truth c spec key in
    Core.Flaky.Label (if Prng.int g 1000 < c.noise then not label else label)

let json_of_reply = function
  | Core.Flaky.Label b -> Json.Bool b
  | Core.Flaky.Refused -> Json.Str "refused"
  | Core.Flaky.Timed_out -> Json.Str "timed_out"

let think wl ~seed (s : sess) qid =
  let g = Prng.create (Hashtbl.hash (seed, s.idx, qid)) in
  let u = min (Prng.float g 1.0) 0.999_999 in
  -.(wl.think_ms /. 1000.) *. log (1.0 -. u)

(* ------------------------------------------------------------------ *)
(* A raw HTTP/1.1 keep-alive connection, driven from the select loop  *)
(* ------------------------------------------------------------------ *)

type response = { status : int; body : string }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let request_bytes ~meth ~path ~tenant ~trace body =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: learnq\r\nx-learnq-tenant: %s\r\n%sContent-Length: %d\r\n\r\n%s"
    meth path tenant
    (match trace with Some t -> "X-Learnq-Trace: " ^ t ^ "\r\n" | None -> "")
    (String.length body) body

let rec write_all fd b off =
  if off < Bytes.length b then
    match Unix.write fd b off (Bytes.length b - off) with
    | k -> write_all fd b (off + k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off

let find_sub hay needle from =
  let hn = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > hn then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go from

(* A complete response at the front of [buf], if one has arrived. *)
let take_response buf =
  let s = Buffer.contents buf in
  match find_sub s "\r\n\r\n" 0 with
  | None -> None
  | Some i ->
      let lines = String.split_on_char '\n' (String.sub s 0 i) in
      let status =
        match String.split_on_char ' ' (List.hd lines) with
        | _ :: code :: _ -> int_of_string code
        | _ -> die "bad status line"
      in
      let len =
        List.fold_left
          (fun acc line ->
            match String.index_opt line ':' with
            | Some j when String.lowercase_ascii (String.sub line 0 j) = "content-length" ->
                int_of_string (String.trim (String.sub line (j + 1) (String.length line - j - 1)))
            | _ -> acc)
          0 lines
      in
      if String.length s < i + 4 + len then None
      else begin
        Buffer.clear buf;
        Buffer.add_string buf (String.sub s (i + 4 + len) (String.length s - i - 4 - len));
        Some { status; body = String.sub s (i + 4) len }
      end

(* Blocking round trip on an idle connection (the end-of-run scrapes). *)
let round_trip fd ~path =
  let buf = Buffer.create 4096 in
  write_all fd (Bytes.of_string (request_bytes ~meth:"GET" ~path ~tenant:"bench" ~trace:None "")) 0;
  let chunk = Bytes.create 65536 in
  let rec go () =
    match take_response buf with
    | Some r -> r
    | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> die "connection closed during %s" path
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ())
  in
  go ()

(* ------------------------------------------------------------------ *)
(* lqbench load                                                        *)
(* ------------------------------------------------------------------ *)

type op = Create | Answer of int * string * Core.Flaky.reply

type pending = { p_sess : int; p_op : op; p_due : float }

type record = {
  r_sess : int;
  r_kind : char;  (** 'c' create, 'a' answer *)
  r_due : float;
  r_ready : float;  (** when a connection was free to send it *)
  r_sent : float;
  r_done : float;
  r_status : int;  (** 0 = transport error *)
  r_trace : string;
}

type state = {
  mutable questions : (int * string) list;  (** newest first *)
  mutable finished : float option;
  mutable query : string option;
  mutable completed : bool;  (** the server said done *)
  mutable nops : int;
}

type conn = {
  mutable fd : Unix.file_descr option;
  inbuf : Buffer.t;
  mutable busy : (pending * float * float * string) option;
      (** op, ready time, sent time, trace id *)
  mutable free_at : float;
}

module Q = Set.Make (struct
  type t = float * int * pending

  let compare (a, i, _) (b, j, _) = compare (a, i) (b, j)
end)

let load () =
  let c = consts (arg "workload") in
  let wl = workload (arg "workload") in
  let seed = int_of_string (arg "seed") in
  let seconds = float_of_string (arg "seconds") in
  let traced = arg "trace" = "1" in
  let port = int_of_string (arg "port") in
  let sess = plan wl ~seed ~seconds in
  let n = Array.length sess in
  (* Build every simulated user before the clock starts. *)
  Array.iter (fun s -> ignore (truth c s.spec : string -> bool)) sess;
  let st =
    Array.init n (fun _ -> { questions = []; finished = None; query = None; completed = false; nops = 0 })
  in
  let records = ref [] and raw_requests = ref [] and raw_bodies = ref [] in
  let q = ref Q.empty and seq = ref 0 in
  let push p =
    incr seq;
    q := Q.add (p.p_due, !seq, p) !q
  in
  Array.iter (fun s -> push { p_sess = s.idx; p_op = Create; p_due = s.arrive }) sess;
  let conns = Array.init 2 (fun _ -> { fd = None; inbuf = Buffer.create 4096; busy = None; free_at = 0.0 }) in
  let t0 = now () +. 0.05 in
  let clock () = now () -. t0 in
  let last_arrival = sess.(n - 1).arrive in
  let deadline = last_arrival +. c.drain_limit in
  let live = ref n in
  let finish i t =
    if st.(i).finished = None then begin
      st.(i).finished <- Some t;
      decr live
    end
  in
  let on_view i ~at body =
    match Json.parse body with
    | Error _ -> finish i at
    | Ok j ->
        let s = st.(i) in
        if Json.get_bool "done" j = Some true then begin
          s.query <- Json.get_str "query" j;
          s.completed <- true;
          finish i at
        end
        else
          match (Json.get_int "qid" j, Json.get_str "question" j) with
          | Some qid, Some key ->
              (match s.questions with
              | (q', _) :: _ when q' >= qid -> ()
              | _ -> s.questions <- (qid, key) :: s.questions);
              push
                {
                  p_sess = i;
                  p_op = Answer (qid, key, reply_for c sess.(i).spec key);
                  p_due = at +. think wl ~seed sess.(i) qid;
                }
          | _ -> finish i at
  in
  let send conn (p : pending) ~ready =
    let s = sess.(p.p_sess) in
    st.(p.p_sess).nops <- st.(p.p_sess).nops + 1;
    let trace = if traced then Some (Printf.sprintf "%s-%d" s.id st.(p.p_sess).nops) else None in
    let meth, path, body =
      match p.p_op with
      | Create ->
          let fields = match Engines.json_of_spec s.spec with Json.Obj f -> f | _ -> [] in
          ("POST", "/v1/sessions", Json.to_string (Json.Obj (("id", Json.Str s.id) :: fields)))
      | Answer (qid, _, reply) ->
          ( "POST",
            "/v1/sessions/" ^ s.id ^ "/answers",
            Json.to_string (Json.Obj [ ("qid", Json.of_int qid); ("reply", json_of_reply reply) ]) )
    in
    let bytes = request_bytes ~meth ~path ~tenant:s.tenant ~trace body in
    if traced then begin
      raw_requests := bytes :: !raw_requests;
      if body <> "" then raw_bodies := body :: !raw_bodies
    end;
    let fd = match conn.fd with Some fd -> fd | None -> let fd = connect port in conn.fd <- Some fd; fd in
    let sent = clock () in
    (try write_all fd (Bytes.of_string bytes) 0
     with Unix.Unix_error _ -> ());
    conn.busy <- Some (p, ready, sent, Option.value ~default:"" trace)
  in
  let complete conn status body =
    match conn.busy with
    | None -> ()
    | Some (p, ready, sent, trace) ->
        conn.busy <- None;
        let at = clock () in
        conn.free_at <- at;
        let kind = match p.p_op with Create -> 'c' | Answer _ -> 'a' in
        records :=
          { r_sess = p.p_sess; r_kind = kind; r_due = p.p_due; r_ready = ready; r_sent = sent;
            r_done = at; r_status = status; r_trace = trace }
          :: !records;
        if traced && body <> "" then raw_bodies := body :: !raw_bodies;
        let i = p.p_sess in
        match status with
        | 200 -> on_view i ~at body
        | 0 | 429 | 500 | 502 | 503 | 504 | 507 ->
            (* counted as a failure; the user retries shortly *)
            push { p with p_due = at +. 0.1 }
        | _ -> finish i at
  in
  let chunk = Bytes.create 65536 in
  let late_max = ref 0.0 in
  let rec loop () =
    let t = clock () in
    if !live > 0 && t < deadline then begin
      (* Hand every due request to a free connection. *)
      Array.iter
        (fun conn ->
          if conn.busy = None then
            match Q.min_elt_opt !q with
            | Some ((due, _, p) as e) when due <= t ->
                q := Q.remove e !q;
                let ready = Float.max due conn.free_at in
                send conn p ~ready;
                (match conn.busy with
                | Some (_, ready, sent, _) -> late_max := Float.max !late_max (sent -. ready)
                | None -> ())
            | _ -> ())
        conns;
      let busy = Array.to_list conns |> List.filter (fun c -> c.busy <> None) in
      let timeout =
        if List.length busy = Array.length conns then 0.5
        else
          match Q.min_elt_opt !q with
          | Some (due, _, _) -> Float.max 0.0 (due -. clock ())
          | None -> 0.5
      in
      let fds = List.filter_map (fun c -> c.fd) busy in
      let ready, _, _ =
        try Unix.select fds [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun conn ->
          match conn.fd with
          | Some fd when List.mem fd ready -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 | (exception Unix.Unix_error _) ->
                  (try Unix.close fd with Unix.Unix_error _ -> ());
                  conn.fd <- None;
                  Buffer.clear conn.inbuf;
                  complete conn 0 ""
              | k -> (
                  Buffer.add_subbytes conn.inbuf chunk 0 k;
                  match take_response conn.inbuf with
                  | Some r -> complete conn r.status r.body
                  | None -> ()))
          | _ -> ())
        busy;
      loop ()
    end
  in
  loop ();
  (* Scrapes after the measured window, on a fresh connection once both
     load connections are closed, so at most two are ever open. *)
  Array.iter (fun c -> Option.iter Unix.close c.fd) conns;
  let fd = connect port in
  let stats = round_trip fd ~path:"/stats" in
  (if traced then
     let fr = round_trip fd ~path:"/debug/flightrecorder" in
     write_file (arg "flight") fr.body);
  Unix.close fd;
  let threads =
    In_channel.with_open_text "/proc/self/status" In_channel.input_lines
    |> List.find_map (fun l -> Scanf.sscanf_opt l "Threads: %d" Fun.id)
    |> Option.value ~default:0
  in
  let f x = Json.Num x in
  (* Times as whole microseconds: the printer keeps only 6 digits of a
     fraction. *)
  let us x = Json.Num (Float.round (x *. 1e6)) in
  let out =
    Json.Obj
      [
        ("steps", Json.Arr (Array.to_list (Array.map (fun (a, d, r) -> Json.Arr [ f a; f d; f r ]) (step_bounds wl ~seconds))));
        ("sched_late_max_us", us !late_max);
        ("gen_threads", Json.of_int threads);
        ("gen_connections", Json.of_int (Array.length conns));
        ("stats", (match Json.parse stats.body with Ok j -> j | Error _ -> Json.Null));
        ( "sessions",
          Json.Arr
            (Array.to_list
               (Array.map
                  (fun s ->
                    let r = st.(s.idx) in
                    Json.Obj
                      [
                        ("id", Json.Str s.id);
                        ("engine", Json.Str s.spec.engine);
                        ("spec_seed", Json.of_int s.spec.seed);
                        ("step", Json.of_int s.step);
                        ("arrive", us s.arrive);
                        ("finish", Json.of_opt us r.finished);
                        ("done", Json.Bool r.completed);
                        ("query", Json.of_opt (fun q -> Json.Str q) r.query);
                        ( "questions",
                          Json.Arr (List.rev_map (fun (qid, key) -> Json.Arr [ Json.of_int qid; Json.Str key ]) r.questions) );
                      ])
                  sess)) );
        ( "ops",
          Json.Arr
            (List.rev_map
               (fun r ->
                 Json.Arr
                   [
                     Json.of_int r.r_sess; Json.Str (String.make 1 r.r_kind); us r.r_due; us r.r_ready;
                     us r.r_sent; us r.r_done; Json.of_int r.r_status; Json.Str r.r_trace;
                   ])
               !records) );
      ]
  in
  write_file (arg "out") (Json.to_string out);
  if traced then
    write_file (arg "wire")
      (Json.to_string
         (Json.Obj
            [
              ("requests", Json.Arr (List.rev_map (fun s -> Json.Str s) !raw_requests));
              ("bodies", Json.Arr (List.rev_map (fun s -> Json.Str s) !raw_bodies));
            ]))

(* ------------------------------------------------------------------ *)
(* lqbench replay                                                      *)
(* ------------------------------------------------------------------ *)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s -> List.nth s (List.length s / 2)

let pct p l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else a.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* Words allocated so far by this domain: the minor-heap count is exact,
   and direct major allocations are added from [Gc.quick_stat]. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let fail_err what e = die "%s: %s" what (Core.Error.to_string e)

type reference = {
  spec : Engines.spec;
  make_s : float;
  answers : (int * string) list;  (** questions posed, in order *)
  query : string option;
  answer_s : float list;
  answer_words : float list;
}

(* One uninterrupted session: build the instance, then answer every
   question with the simulated user's reply. *)
let reference c spec =
  let t = now () in
  let st = match Engines.make spec with Ok st -> st | Error e -> fail_err "make" e in
  let make_s = now () -. t in
  let rec go acc times words =
    let v = st.Stepper.view () in
    match (v.Stepper.done_, v.Stepper.question) with
    | false, Some key -> (
        let reply = reply_for c spec key in
        let w = alloc_words () in
        let t = now () in
        match st.Stepper.answer ~qid:v.Stepper.qid reply with
        | Ok _ ->
            let dt = now () -. t in
            go ((v.Stepper.qid, key) :: acc) (dt :: times) ((alloc_words () -. w) :: words)
        | Error e -> fail_err "answer" e)
    | _ ->
        { spec; make_s; answers = List.rev acc; query = v.Stepper.query; answer_s = times; answer_words = words }
  in
  go [] [] []

(* Median per-item microseconds of [f] over [items], best of [reps]. *)
let per_item_us ~reps items f =
  let n = List.length items in
  if n = 0 then 0.0
  else
    median
      (List.init reps (fun _ ->
           let t = now () in
           List.iter f items;
           (now () -. t) *. 1e6 /. float_of_int n))

let journals dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".journal")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* Journal layer: recover the run's journals, replay their events through
   [Journal.append] under the workload's sync policy, compact each copy. *)
let journal_layer wl ~state_dir ~scratch =
  let files = journals state_dir in
  let recover_ms = ref [] and recovered = ref [] in
  List.iter
    (fun path ->
      let t = now () in
      match Journal.recover ~path with
      | Ok r ->
          recover_ms := ((now () -. t) *. 1e3) :: !recover_ms;
          recovered := r :: !recovered
      | Error e -> fail_err "recover" e)
    files;
  rm_rf scratch;
  Unix.mkdir scratch 0o755;
  let budget = ref 1500 in
  let append_s = ref 0.0 and appends = ref 0 and compact_ms = ref [] in
  List.iteri
    (fun i (r : Journal.recovered) ->
      match r.header with
      | Some header when !budget > 0 ->
          let path = Filename.concat scratch (Printf.sprintf "r%04d.journal" i) in
          let j = Journal.create ~sync:wl.sync ~path header in
          let answered = ref [] and questions = ref 0 in
          List.iter
            (fun ev ->
              if !budget > 0 then begin
                decr budget;
                (match ev with
                | Journal.Answered (k, Core.Flaky.Label _) ->
                    answered := k :: !answered;
                    incr questions
                | _ -> ());
                let t = now () in
                Journal.append j ev;
                append_s := !append_s +. (now () -. t);
                incr appends
              end)
            r.events;
          let ck =
            {
              Journal.ck_qid = !questions;
              ck_questions = !questions;
              ck_pruned = 0;
              ck_refused = 0;
              ck_answered = List.rev !answered;
              ck_state = "";
            }
          in
          let t = now () in
          (match Journal.compact j ck with Ok () -> () | Error e -> fail_err "compact" e);
          compact_ms := ((now () -. t) *. 1e3) :: !compact_ms;
          Journal.close j
      | _ -> ())
    (List.rev !recovered);
  rm_rf scratch;
  [
    ("journal.append_us", (if !appends = 0 then 0.0 else !append_s *. 1e6 /. float_of_int !appends), "us");
    ("journal.compact_ms", median !compact_ms, "ms");
    ("journal.recover_ms", median !recover_ms, "ms");
  ]

(* Registry layer: drive each distinct instance halfway, evict it
   (checkpoint + compact + close), resume it on demand, and finish it —
   the resumed session must still learn the reference's query. *)
let registry_layer c wl refs ~scratch =
  rm_rf scratch;
  let reg =
    Registry.create
      {
        Registry.dir = scratch;
        sync = wl.sync;
        tenants = Server.Tenant.make [];
        step_fuel = None;
        step_timeout = None;
        vfs = Core.Vfs.real;
        checkpoint_every = wl.checkpoint_every;
        max_live = 0;
        idle_evict_after = 1e-9;
      }
  in
  let evict_ms = ref [] and resume_ms = ref [] in
  List.iteri
    (fun i r ->
      let id = Printf.sprintf "r%d" i in
      (match Registry.create_session reg ~tenant:"bench" ~id r.spec with
      | Ok _ -> ()
      | Error e -> fail_err "create_session" e);
      let half = List.length r.answers / 2 in
      let drive st k =
        let rec go k =
          let v = st.Stepper.view () in
          match (k, v.Stepper.done_, v.Stepper.question) with
          | 0, _, _ | _, true, _ | _, _, None -> v
          | _, false, Some key -> (
              match st.Stepper.answer ~qid:v.Stepper.qid (reply_for c r.spec key) with
              | Ok _ -> go (k - 1)
              | Error e -> fail_err "answer" e)
        in
        go k
      in
      let find () =
        match Registry.find_or_resume reg ~tenant:"bench" ~id with
        | Ok (Some st) -> st
        | Ok None -> die "session %s vanished" id
        | Error e -> fail_err "find_or_resume" e
      in
      ignore (drive (find ()) half);
      Unix.sleepf 0.001;
      let t = now () in
      ignore (Registry.evict_idle reg);
      evict_ms := ((now () -. t) *. 1e3) :: !evict_ms;
      let t = now () in
      let st = find () in
      resume_ms := ((now () -. t) *. 1e3) :: !resume_ms;
      let v = drive st max_int in
      if v.Stepper.query <> r.query then die "resumed %s learned %s, reference %s" id
          (Option.value ~default:"-" v.Stepper.query) (Option.value ~default:"-" r.query);
      ignore (Registry.delete reg ~tenant:"bench" ~id : bool))
    refs;
  Registry.drain reg;
  rm_rf scratch;
  [ ("registry.evict_ms", median !evict_ms, "ms"); ("registry.resume_ms", median !resume_ms, "ms") ]

(* Wire layer: the exact request bytes and JSON bodies of the run. *)
let wire_layer path =
  let j = match Json.parse (read_file path) with Ok j -> j | Error e -> die "wire: %s" e in
  let strings k = strs (Option.value ~default:(Json.Arr []) (Json.mem k j)) in
  let requests = strings "requests" and bodies = strings "bodies" in
  let parse r =
    let p = Http.incremental () in
    Http.feed p r;
    match Http.step p with `Request _ -> () | _ -> die "recorded request does not parse"
  in
  let codec b = match Json.parse b with Ok v -> ignore (Json.to_string v) | Error e -> die "body: %s" e in
  [
    ("http.parse_us", per_item_us ~reps:7 requests parse, "us");
    ("json.codec_us", per_item_us ~reps:7 bodies codec, "us");
  ]

let replay () =
  let name = arg "workload" in
  let c = consts name in
  let wl = workload name in
  let seed = int_of_string (arg "seed") in
  let seconds = float_of_string (arg "seconds") in
  let traced = arg "trace" = "1" in
  let specs =
    plan wl ~seed ~seconds |> Array.to_list
    |> List.map (fun (s : sess) -> s.spec)
    |> List.sort_uniq compare
  in
  let refs = List.map (reference c) specs in
  let layer =
    if not traced then []
    else
      let per_engine =
        Array.to_list wl.engines
        |> List.concat_map (fun e ->
               let rs = List.filter (fun r -> r.spec.engine = e) refs in
               let times = List.concat_map (fun r -> r.answer_s) rs in
               let words = List.concat_map (fun r -> r.answer_words) rs in
               [
                 ("engines.make_ms." ^ e, median (List.map (fun r -> r.make_s *. 1e3) rs), "ms");
                 ("stepper.answer_p50_us." ^ e, pct 0.5 times *. 1e6, "us");
                 ("stepper.answer_p99_ms." ^ e, pct 0.99 times *. 1e3, "ms");
                 ( "stepper.alloc_mw_per_answer." ^ e,
                   List.fold_left ( +. ) 0.0 words /. float_of_int (max 1 (List.length words)) /. 1e6,
                   "Mwords" );
               ])
      in
      let scratch = arg "scratch" in
      per_engine
      @ wire_layer (arg "wire")
      @ journal_layer wl ~state_dir:(arg "state-dir") ~scratch
      @ registry_layer c wl refs ~scratch
  in
  let out =
    Json.Obj
      [
        ( "references",
          Json.Arr
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("engine", Json.Str r.spec.engine);
                     ("spec_seed", Json.of_int r.spec.seed);
                     ("query", Json.of_opt (fun q -> Json.Str q) r.query);
                     ( "questions",
                       Json.Arr (List.map (fun (qid, key) -> Json.Arr [ Json.of_int qid; Json.Str key ]) r.answers) );
                   ])
               refs) );
        ( "layers",
          Json.Obj (List.map (fun (k, v, u) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])) layer) );
      ]
  in
  write_file (arg "out") (Json.to_string out)

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match Sys.argv with
  | [| _ |] -> die "usage: lqbench (load|replay) --key value ..."
  | _ -> (
      match Sys.argv.(1) with
      | "load" -> load ()
      | "replay" -> replay ()
      | cmd -> die "unknown command %S" cmd)
