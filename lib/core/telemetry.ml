(* Locking, by structure: a counter increment writes the calling domain's
   shard (Domain.DLS) with no lock, and export sums the shards; per-thread
   state, the flight ring, histograms, span rollups and the label registry
   take short mutex sections, never per counter increment. *)

type mode = Off | Ring | Full

let mode_ = ref Ring
let mode () = !mode_
let set_mode m = mode_ := m
let enabled () = !mode_ = Full

let ctx : (string * string) list ref = ref []

let set_context kvs =
  let keys = List.map fst kvs in
  ctx := kvs @ List.filter (fun (k, _) -> not (List.mem k keys)) !ctx

(* The source revision, probed once at first export: a telemetry file names
   the code that produced it.  Failure (no git, no repo) degrades to
   "unknown" rather than an exception — exporters run inside at_exit. *)
let git_describe =
  lazy
    (try
       let ic =
         Unix.open_process_in "git describe --always --dirty 2>/dev/null"
       in
       let line = try input_line ic with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

let context () =
  if List.mem_assoc "git" !ctx then !ctx
  else ("git", Lazy.force git_describe) :: !ctx

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_kvs kvs =
  let kv (k, v) =
    Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v)
  in
  String.concat ", " (List.map kv kvs)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* Per-thread state: the trace id and the open span stack              *)
(* ------------------------------------------------------------------ *)

(* An open span, kept as the completed span once closed; [child_ns]
   accumulates closed children so self time = duration - child_ns. *)
type frame = {
  sid : int;
  parent : int;  (* -1 for roots *)
  name : string;
  detail : string;
  dom : int;
  start_ns : int64;
  mutable dur_ns : int64;
  mutable child_ns : int64;
}

type thread_state = {
  mutable trace : string option;
  mutable stack : frame list;
}

(* Keyed by (domain, thread): systhreads within the main domain get
   distinct records, and a worker domain re-installing a captured trace
   around a session job gets its own.  Only the owning thread mutates its
   record; one mutex guards the table. *)
module Tbl = Hashtbl.Make (struct
  include Int

  let hash = Fun.id
end)

let tmu = Mutex.create ()
let threads : thread_state Tbl.t = Tbl.create 64
let key () = ((Domain.self () :> int) lsl 40) lor Thread.id (Thread.self ())

let find_state () =
  let k = key () in
  Mutex.lock tmu;
  let s = Tbl.find_opt threads k in
  Mutex.unlock tmu;
  s

let state () =
  match find_state () with
  | Some s -> s
  | None ->
      let s = { trace = None; stack = [] } and k = key () in
      Mutex.protect tmu (fun () -> Tbl.replace threads k s);
      s

(* Forget an idle thread, so threads that come and go leave no record. *)
let release s =
  if s.trace = None && s.stack = [] then
    let k = key () in
    Mutex.protect tmu (fun () -> Tbl.remove threads k)

module Trace = struct
  let ctr = Atomic.make 0

  let mint () =
    let n = Atomic.fetch_and_add ctr 1 in
    Printf.sprintf "t%04x-%06x" (Unix.getpid () land 0xffff) n

  let valid id =
    id <> ""
    && String.length id <= 64
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
           | _ -> false)
         id

  let current () =
    match find_state () with Some s -> s.trace | None -> None

  let set id =
    let s = state () in
    s.trace <- id;
    release s

  let with_trace id f =
    let prev = current () in
    set (Some id);
    Fun.protect ~finally:(fun () -> set prev) f
end

(* One Chrome trace_event writer for both exports.  An event is
   [(name, phase, ts_us, dur_us, tid, args)]: phase "X" is a complete
   event (with a duration), "B"/"E" a span's begin/end, "i" an instant. *)
let chrome_json ~cat ~header evs =
  let buf = Buffer.create (1024 + (128 * List.length evs)) in
  Buffer.add_string buf ("{\n" ^ header ^ ",\n\"traceEvents\": [");
  List.iteri
    (fun i (name, ph, ts, dur, tid, args) ->
      Printf.bprintf buf
        "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",%s\"ts\":%.3f,\
         %s\"pid\":1,\"tid\":%d,\"args\":{%s}}"
        (if i > 0 then "," else "")
        (json_escape name) cat ph
        (if ph = "i" then "\"s\":\"t\"," else "")
        ts
        (if ph = "X" then Printf.sprintf "\"dur\":%.3f," dur else "")
        tid (json_kvs args))
    evs;
  Buffer.add_string buf "\n]\n}\n";
  Buffer.contents buf

let us_since t0 ns = Int64.to_float (Int64.sub ns t0) /. 1e3

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

module Recorder = struct
  type phase = Instant | Begin | End

  type event = {
    ev_ns : int64;
    ev_dom : int;
    ev_trace : string option;
    ev_name : string;
    ev_detail : string;
    ev_phase : phase;
  }

  (* Slots spread writer contention: a writer locks only the slot its
     domain hashes to, so pool domains never contend with the accept loop.
     Within the main domain all connection systhreads share slot 0 — the
     critical section is a couple of array stores. *)
  let nslots = 8

  type slot = {
    s_mu : Mutex.t;
    mutable s_buf : event option array;
    mutable s_pos : int;
  }

  let per_slot total = max 4 (total / nslots)

  let slots =
    Array.init nslots (fun _ ->
        {
          s_mu = Mutex.create ();
          s_buf = Array.make (per_slot 4096) None;
          s_pos = 0;
        })

  let refill n =
    Array.iter
      (fun s ->
        Mutex.protect s.s_mu (fun () ->
            s.s_buf <- Array.make n None;
            s.s_pos <- 0))
      slots

  let set_capacity total = refill (per_slot total)
  let clear () = refill (Array.length slots.(0).s_buf)

  let push trace detail phase name =
    let dom = (Domain.self () :> int) in
    let ev =
      {
        ev_ns = Monotonic.now_ns ();
        ev_dom = dom;
        ev_trace = trace;
        ev_name = name;
        ev_detail = detail;
        ev_phase = phase;
      }
    in
    let s = slots.(dom mod nslots) in
    (* Two stores that cannot raise: no need for [Mutex.protect]'s handler. *)
    Mutex.lock s.s_mu;
    s.s_buf.(s.s_pos) <- Some ev;
    s.s_pos <- (s.s_pos + 1) mod Array.length s.s_buf;
    Mutex.unlock s.s_mu

  let record ?(detail = "") name =
    if !mode_ <> Off then push (Trace.current ()) detail Instant name

  let events () =
    Array.to_list slots
    |> List.concat_map (fun s ->
           Mutex.protect s.s_mu (fun () ->
               (* Oldest first within a slot, so timestamp ties keep order. *)
               let n = Array.length s.s_buf in
               List.init n (fun i -> s.s_buf.((s.s_pos + i) mod n))
               |> List.filter_map Fun.id))
    |> List.stable_sort (fun a b -> Int64.compare a.ev_ns b.ev_ns)

  let trace_events trace =
    List.filter (fun e -> e.ev_trace = Some trace) (events ())

  let dump_json () =
    let evs = events () in
    let t0 = match evs with [] -> 0L | e :: _ -> e.ev_ns in
    let phase = function Instant -> "i" | Begin -> "B" | End -> "E" in
    let args e =
      (match e.ev_trace with Some t -> [ ("trace", t) ] | None -> [])
      @ if e.ev_detail = "" then [] else [ ("detail", e.ev_detail) ]
    in
    chrome_json ~cat:"flight" ~header:"\"displayTimeUnit\": \"ms\""
      (List.map
         (fun e ->
           ( e.ev_name,
             phase e.ev_phase,
             us_since t0 e.ev_ns,
             0.,
             e.ev_dom,
             args e ))
         evs)

  let dump_to_file path =
    try write_file path (dump_json ()) with Sys_error _ -> ()
end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Completed spans (for --trace, capped) and the per-name rollup of
   (count, total, self) (uncapped), shared by every domain under [smu]. *)
let max_recorded_spans = 400_000
let smu = Mutex.create ()
let next_sid = Atomic.make 0
let recorded : frame list ref = ref []  (* reversed completion order *)
let recorded_count = ref 0
let dropped = ref 0
let aggregates : (string, int * int64 * int64) Hashtbl.t = Hashtbl.create 64
let span_count () = Mutex.protect smu (fun () -> !recorded_count)

let current_span_id () =
  match find_state () with
  | Some { stack = f :: _; _ } -> Some f.sid
  | _ -> None

(* Pop [f] off its thread's stack — with anything a raise left above it —
   then account it to its parent's child time, its name's rollup and the
   --trace buffer, and end it in the ring. *)
let close_frame s f =
  let rec pop = function
    | top :: rest -> if top == f then rest else pop rest
    | [] -> []
  in
  s.stack <- pop s.stack;
  f.dur_ns <- Int64.sub (Monotonic.now_ns ()) f.start_ns;
  (match s.stack with
  | p :: _ -> p.child_ns <- Int64.add p.child_ns f.dur_ns
  | [] -> ());
  Mutex.protect smu (fun () ->
      let n, total, self =
        Hashtbl.find_opt aggregates f.name
        |> Option.value ~default:(0, 0L, 0L)
      in
      Hashtbl.replace aggregates f.name
        ( n + 1,
          Int64.add total f.dur_ns,
          Int64.add self (Int64.sub f.dur_ns f.child_ns) );
      if !recorded_count < max_recorded_spans then begin
        recorded := f :: !recorded;
        incr recorded_count
      end
      else incr dropped);
  release s;
  Recorder.push s.trace "" Recorder.End f.name

(* The ring gets paired begin/end events rather than frames: each event
   stands alone, so the ring survives wraparound, and Chrome's B/E phases
   reassemble the tree per domain lane.  Only [Full] keeps the frame. *)
let with_span ?(detail = "") name f =
  match !mode_ with
  | Off -> f ()
  | Ring ->
      let trace = Trace.current () in
      Recorder.push trace detail Recorder.Begin name;
      Fun.protect
        ~finally:(fun () -> Recorder.push trace "" Recorder.End name)
        f
  | Full ->
      let s = state () in
      let frame =
        {
          sid = Atomic.fetch_and_add next_sid 1;
          parent = (match s.stack with [] -> -1 | p :: _ -> p.sid);
          name;
          detail;
          dom = (Domain.self () :> int);
          start_ns = Monotonic.now_ns ();
          dur_ns = 0L;
          child_ns = 0L;
        }
      in
      s.stack <- frame :: s.stack;
      Recorder.push s.trace detail Recorder.Begin name;
      Fun.protect ~finally:(fun () -> close_frame s frame) f

let span_aggregates () =
  let sec ns = Int64.to_float ns *. 1e-9 in
  Mutex.protect smu (fun () ->
      Hashtbl.fold
        (fun name (n, total, self) acc ->
          (name, n, sec total, sec self) :: acc)
        aggregates [])
  |> List.sort (fun (_, _, t1, _) (_, _, t2, _) -> compare t2 t1)

let trace_json () =
  let spans, dropped =
    Mutex.protect smu (fun () -> (List.rev !recorded, !dropped))
  in
  let t0 =
    List.fold_left (fun t s -> Int64.min t s.start_ns) Int64.max_int spans
  in
  let other =
    context ()
    @
    if dropped > 0 then [ ("dropped_spans", string_of_int dropped) ] else []
  in
  let args s =
    ("span_id", string_of_int s.sid)
    :: (if s.parent < 0 then [] else [ ("parent", string_of_int s.parent) ])
    @ if s.detail = "" then [] else [ ("detail", s.detail) ]
  in
  chrome_json ~cat:"learnq"
    ~header:("\"otherData\": { " ^ json_kvs other ^ " }")
    (List.map
       (fun s ->
         ( s.name,
           "X",
           us_since t0 s.start_ns,
           Int64.to_float s.dur_ns /. 1e3,
           s.dom,
           args s ))
       spans)

(* ------------------------------------------------------------------ *)
(* Metrics: one registry of counters, gauges and histograms            *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  (* Log-scale buckets: 2 per octave starting at 1e-9, so ~70 octaves cover
     one nanosecond up to ~6e11 — any latency or size this system sees. *)
  let nbuckets = 142
  let bucket_lo = 1e-9
  let per_octave = 2.

  (* One histogram window.  [epoch] names the span-sized interval of time
     its data belongs to; a writer that finds a stale epoch replaces the
     window first (lazy rotation — no ticker thread).  A since-boot
     histogram is a single window whose epoch never changes. *)
  type hist = {
    epoch : int;
    mutable n : int;
    mutable sum : float;
    mutable lo : float;
    mutable hi : float;
    b : int array;
  }

  let hist epoch =
    let b = Array.make nbuckets 0 in
    { epoch; n = 0; sum = 0.; lo = infinity; hi = neg_infinity; b }

  (* Fold [w]'s samples into [h]; [add] is the one-sample case. *)
  let merge h w =
    h.n <- h.n + w.n;
    h.sum <- h.sum +. w.sum;
    h.lo <- Float.min h.lo w.lo;
    h.hi <- Float.max h.hi w.hi;
    Array.iteri (fun i c -> h.b.(i) <- h.b.(i) + c) w.b

  let add h v =
    h.n <- h.n + 1;
    h.sum <- h.sum +. v;
    h.lo <- Float.min h.lo v;
    h.hi <- Float.max h.hi v;
    let i =
      if v <= bucket_lo then 0
      else
        min (nbuckets - 1)
          (1 + int_of_float (Float.log2 (v /. bucket_lo) *. per_octave))
    in
    h.b.(i) <- h.b.(i) + 1

  (* The nearest-rank sample's bucket, reported at its geometric midpoint.
     Clamping to the observed range makes single-sample and all-equal
     series exact instead of bucket-quantized. *)
  let quantile h p =
    if h.n = 0 then 0.
    else if p <= 0. then h.lo
    else if p >= 1. then h.hi
    else
      let rank =
        max 1 (min h.n (int_of_float (ceil (p *. float_of_int h.n))))
      in
      let rec find i cum =
        if i >= nbuckets then h.hi
        else
          let cum = cum + h.b.(i) in
          if cum < rank then find (i + 1) cum
          else if i = 0 then bucket_lo
          else bucket_lo *. Float.exp2 ((float_of_int i -. 0.5) /. per_octave)
      in
      Float.min h.hi (Float.max h.lo (find 0 0))

  (* A histogram is since-boot ([Hist]: one window) or sliding ([Window]:
     the last [windows] sub-windows of [window_span] seconds each). *)
  type kind = Counter | Gauge | Hist | Window

  let windows = 6
  let window_span = 10.

  (* One label set of a family.  A counter's value lives in the domain
     shards at [slot]; a gauge's in [value]; a histogram's in [wins]. *)
  type series = {
    labels : (string * string) list;
    slot : int;
    mutable value : float;
    wins : hist array;
  }

  (* Series by label key, newest first. *)
  type family = { kind : kind; mutable series : (string * series) list }
  type counter = series
  type gauge = series
  type histogram = series

  (* [mu] guards the registry, every histogram and [shards]. *)
  let mu = Mutex.create ()
  let families : (string, family) Hashtbl.t = Hashtbl.create 64
  let order : string list ref = ref []  (* family names, newest first *)
  let next_slot = ref 0

  (* Cardinality guard: a tenant-labeled family can't grow without bound
     just because tenants can name themselves freely.  Past the cap all
     new label sets collapse into one overflow series, which also makes
     the overflow visible instead of silently dropping samples. *)
  let max_series = ref 64

  (* Test hook: a settable clock drives window rotation deterministically.
     Production uses the monotonic clock. *)
  let clock : (unit -> float) option ref = ref None

  (* A domain's counter cells, indexed by slot.  Only the owning domain
     writes them; readers sum every shard under [mu].  A shard joins
     [shards] at its domain's first increment and stays after the domain
     exits, so a worker's counts outlive the worker. *)
  type shard = { mutable cells : int array }

  let shards : shard list ref = ref []

  let shard_key =
    Domain.DLS.new_key (fun () ->
        let s = { cells = [||] } in
        Mutex.protect mu (fun () -> shards := s :: !shards);
        s)

  let grow s slot =
    Mutex.protect mu (fun () ->
        let old = s.cells in
        let len = max 64 (max (slot + 1) (2 * Array.length old)) in
        let a = Array.make len 0 in
        Array.blit old 0 a 0 (Array.length old);
        s.cells <- a;
        a)

  let bump slot by =
    let s = Domain.DLS.get shard_key in
    let a = if slot < Array.length s.cells then s.cells else grow s slot in
    a.(slot) <- a.(slot) + by

  let total slot =
    List.fold_left
      (fun acc { cells } ->
        acc + if slot < Array.length cells then cells.(slot) else 0)
      0 !shards

  (* ---- The registry, under [mu] ---- *)

  let series_key labels =
    List.sort (fun (a, _) (b, _) -> compare a b) labels
    |> List.map (fun (k, v) -> k ^ "\x01" ^ v)
    |> String.concat "\x00"

  let family name kind =
    match Hashtbl.find_opt families name with
    | Some f when f.kind = kind -> f
    | Some _ -> invalid_arg ("Telemetry.Metrics: " ^ name ^ " has another kind")
    | None ->
        let f = { kind; series = [] } in
        Hashtbl.add families name f;
        order := name :: !order;
        f

  let series f labels =
    let labels =
      if
        List.mem_assoc (series_key labels) f.series
        || List.length f.series < !max_series
      then labels
      else [ ("overflow", "true") ]
    in
    let k = series_key labels in
    match List.assoc_opt k f.series with
    | Some s -> s
    | None ->
        let slot =
          if f.kind = Counter then begin
            incr next_slot;
            !next_slot - 1
          end
          else -1
        in
        let nw = match f.kind with Hist -> 1 | Window -> windows | _ -> 0 in
        let wins = Array.init nw (fun _ -> hist min_int) in
        let s = { labels; slot; value = 0.; wins } in
        f.series <- (k, s) :: f.series;
        s

  let find name labels =
    Option.bind (Hashtbl.find_opt families name) (fun f ->
        List.assoc_opt (series_key labels) f.series)

  let epoch s =
    if Array.length s.wins = 1 then 0
    else
      let now = match !clock with Some f -> f () | None -> Monotonic.now () in
      int_of_float (now /. window_span)

  (* Rotate-then-use: the sub-window owning the current instant is
     replaced by an empty one if its data belongs to an older epoch. *)
  let live_win s =
    let e = epoch s in
    let i = e mod Array.length s.wins in
    if s.wins.(i).epoch <> e then s.wins.(i) <- hist e;
    s.wins.(i)

  (* Every sub-window inside the sliding window ending now, merged.  Stale
     sub-windows (not yet rotated over) are excluded by the epoch test,
     which is what makes lazy rotation sound. *)
  let view s =
    let e = epoch s and nw = Array.length s.wins in
    let acc = hist e in
    Array.iter
      (fun w -> if w.epoch > e - nw && w.epoch <= e then merge acc w)
      s.wins;
    acc

  (* ---- Engine handles: the unlabeled series, recorded in [Full] ---- *)

  let register kind name =
    Mutex.protect mu (fun () -> series (family name kind) [])

  let counter = register Counter
  let gauge = register Gauge
  let histogram = register Hist
  let incr ?(by = 1) c = if !mode_ = Full then bump c.slot by
  let counter_value c = Mutex.protect mu (fun () -> total c.slot)
  let set g v = if !mode_ = Full then g.value <- v
  let gauge_value g = g.value

  let observe h v =
    if !mode_ = Full then Mutex.protect mu (fun () -> add (live_win h) v)

  let hist_count h = Mutex.protect mu (fun () -> (view h).n)
  let hist_sum h = Mutex.protect mu (fun () -> (view h).sum)
  let percentile h p = Mutex.protect mu (fun () -> quantile (view h) p)

  (* ---- Exporters ---- *)

  type reading = C of int | G of float | H of hist

  (* The unlabeled series in registration order: the flat since-boot view
     the JSON export and the summary table print. *)
  let unlabeled () =
    let read f s =
      match f.kind with
      | Counter -> C (total s.slot)
      | Gauge -> G s.value
      | Hist | Window -> H (view s)
    in
    Mutex.protect mu (fun () ->
        List.rev !order
        |> List.filter_map (fun name ->
               let f = Hashtbl.find families name in
               List.assoc_opt "" f.series
               |> Option.map (fun s -> (name, read f s))))

  let float_json v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
    else Printf.sprintf "%.9g" v

  let metrics_json () =
    let rs = unlabeled () in
    let entry n v = Printf.sprintf "\n    \"%s\": %s" (json_escape n) v in
    let entries render =
      List.filter_map (fun (n, r) -> Option.map (entry n) (render r)) rs
      |> String.concat ","
    in
    let hist_json h =
      let q p = float_json (quantile h p) in
      let ends v = float_json (if h.n = 0 then 0. else v) in
      Printf.sprintf
        "{ \"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, \
         \"p50\": %s, \"p90\": %s, \"p99\": %s }"
        h.n (float_json h.sum) (ends h.lo) (ends h.hi) (q 0.5) (q 0.9)
        (q 0.99)
    in
    let span_json (name, n, total, self) =
      Printf.sprintf "{ \"count\": %d, \"total_s\": %.6f, \"self_s\": %.6f }"
        n total self
      |> entry name
    in
    Printf.sprintf
      "{\n  \"header\": { %s },\n  \"counters\": {%s\n  },\n\
      \  \"gauges\": {%s\n  },\n  \"histograms\": {%s\n  },\n\
      \  \"spans\": {%s\n  }\n}\n"
      (json_kvs (context ()))
      (entries (function C v -> Some (string_of_int v) | _ -> None))
      (entries (function G v -> Some (float_json v) | _ -> None))
      (entries (function H h -> Some (hist_json h) | _ -> None))
      (String.concat "," (List.map span_json (span_aggregates ())))

  let prom_name name =
    String.map
      (function
        | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
      name

  let prom_labels = function
    | [] -> ""
    | labels ->
        let esc v =
          String.concat "\\\\" (String.split_on_char '\\' v)
          |> String.split_on_char '"' |> String.concat "\\\""
          |> String.split_on_char '\n' |> String.concat "\\n"
        in
        let label (k, v) = Printf.sprintf "%s=\"%s\"" (prom_name k) (esc v) in
        "{" ^ String.concat "," (List.map label labels) ^ "}"

  let metrics_prometheus () =
    let buf = Buffer.create 4096 in
    let pr fmt = Printf.bprintf buf fmt in
    let summary n s =
      let h = view s and l = prom_labels s.labels in
      List.iter
        (fun q ->
          let ql = ("quantile", Printf.sprintf "%g" q) in
          pr "%s%s %.9g\n" n (prom_labels (s.labels @ [ ql ])) (quantile h q))
        [ 0.5; 0.9; 0.99 ];
      pr "%s_sum%s %.9g\n%s_count%s %d\n" n l h.sum n l h.n
    in
    pr "# learnq metrics export (Prometheus text exposition)\n";
    pr "# TYPE learnq_run_info gauge\nlearnq_run_info%s 1\n"
      (prom_labels (context ()));
    Mutex.protect mu (fun () ->
        List.iter
          (fun name ->
            let f = Hashtbl.find families name and n = prom_name name in
            let each fn = List.iter (fun (_, s) -> fn s) (List.rev f.series) in
            match f.kind with
            | Counter ->
                pr "# TYPE %s counter\n" n;
                each (fun s ->
                    pr "%s%s %d\n" n (prom_labels s.labels) (total s.slot))
            | Gauge ->
                pr "# TYPE %s gauge\n" n;
                each (fun s ->
                    pr "%s%s %.9g\n" n (prom_labels s.labels) s.value)
            | Hist | Window ->
                pr "# TYPE %s summary\n" n;
                if f.kind = Window then
                  pr "# window: %gs sliding (%d x %gs)\n"
                    (window_span *. float_of_int windows)
                    windows window_span;
                each (summary n))
          (List.rev !order));
    Buffer.contents buf

  (* Zero every value and forget every label set; unlabeled handles stay
     registered and valid. *)
  let reset () =
    Mutex.protect mu (fun () ->
        List.iter (fun s -> Array.fill s.cells 0 (Array.length s.cells) 0)
          !shards;
        Hashtbl.iter
          (fun _ f ->
            f.series <- List.filter (fun (k, _) -> k = "") f.series;
            List.iter
              (fun (_, s) ->
                s.value <- 0.;
                Array.iteri (fun i _ -> s.wins.(i) <- hist min_int) s.wins)
              f.series)
          families;
        max_series := 64;
        clock := None)
end

(* Labeled families: dimensioned counters and sliding-window histograms,
   addressed by name and always recorded, whatever the mode. *)
module Labeled = struct
  open Metrics

  let incr ?(by = 1) name labels =
    let s = Mutex.protect mu (fun () -> series (family name Counter) labels) in
    bump s.slot by

  let counter_value name labels =
    Mutex.protect mu (fun () ->
        Option.fold ~none:0 ~some:(fun s -> total s.slot) (find name labels))

  let observe name labels v =
    Mutex.protect mu (fun () ->
        add (live_win (series (family name Window) labels)) v)

  let window_stats name labels =
    let stats s =
      let h = view s in
      (h.n, h.sum, quantile h 0.5, quantile h 0.9, quantile h 0.99)
    in
    Mutex.protect mu (fun () -> Option.map stats (find name labels))

  let window_percentile name labels p =
    Mutex.protect mu (fun () ->
        find name labels
        |> Option.fold ~none:0. ~some:(fun s -> quantile (view s) p))

  let series_count name =
    Mutex.protect mu (fun () ->
        Hashtbl.find_opt families name
        |> Option.fold ~none:0 ~some:(fun f -> List.length f.series))

  let set_max_series n = Mutex.protect mu (fun () -> max_series := max 1 n)
  let set_clock c = Mutex.protect mu (fun () -> clock := c)
end

(* ------------------------------------------------------------------ *)
(* Logging                                                             *)
(* ------------------------------------------------------------------ *)

type level = Debug | Info | Warn | Error  (* in order of severity *)

let levels =
  [ ("debug", Debug); ("info", Info); ("warn", Warn); ("error", Error) ]

let level_of_string s =
  match String.lowercase_ascii s with
  | "warning" -> Some Warn
  | s -> List.assoc_opt s levels

module Log = struct
  let current : level option ref = ref (Some Warn)
  let ppf = ref Format.err_formatter
  let set_level l = current := l
  let level () = !current
  let set_formatter f = ppf := f
  let epoch = lazy (Monotonic.now ())

  let emit l kv msg =
    (* Correlate with the active span and with the request being served:
       the trace id the daemon installed on this thread, if any. *)
    let span =
      Option.map (fun i -> ("span", string_of_int i)) (current_span_id ())
    in
    let trace = Option.map (fun t -> ("trace", t)) (Trace.current ()) in
    let kv = kv @ Option.to_list span @ Option.to_list trace in
    let kvs =
      String.concat ""
        (List.map
           (fun (k, v) ->
             let v = if String.contains v ' ' then "\"" ^ v ^ "\"" else v in
             Printf.sprintf " %s=%s" k v)
           kv)
    in
    Format.fprintf !ppf "learnq: [%7.3f %-5s] %s%s@."
      (Monotonic.now () -. Lazy.force epoch)
      (fst (List.find (fun (_, x) -> x = l) levels))
      msg kvs

  let log l ?(kv = []) msg =
    match !current with Some min when l >= min -> emit l kv msg | _ -> ()

  let debug ?kv msg = log Debug ?kv msg
  let info ?kv msg = log Info ?kv msg
  let warn ?kv msg = log Warn ?kv msg
  let error ?kv msg = log Error ?kv msg
end

(* Non-zero counters and gauges, histogram quantiles, and the span rollup. *)
let pp_summary ppf () =
  Format.fprintf ppf "@[<v>── telemetry summary ──@,";
  List.iter (fun (k, v) -> Format.fprintf ppf "  %s: %s@," k v) (context ());
  let block title = function
    | [] -> ()
    | lines ->
        Format.fprintf ppf "%s:@," title;
        List.iter (Format.fprintf ppf "  %s@,") lines
  in
  let rs = Metrics.unlabeled () and q = Metrics.quantile in
  let rows pick =
    List.filter_map
      (fun (n, r) -> Option.map (Printf.sprintf "%-42s %s" n) (pick r))
      rs
  in
  block "counters"
    (rows (function
      | Metrics.C v when v <> 0 -> Some (string_of_int v)
      | _ -> None));
  block "gauges"
    (rows (function
      | Metrics.G v when v <> 0. -> Some (Printf.sprintf "%g" v)
      | _ -> None));
  block "histograms (p50 / p90 / p99)"
    (rows (function
      | Metrics.H h when h.n > 0 ->
          Some
            (Printf.sprintf "n=%d  %.3g / %.3g / %.3g" h.n (q h 0.5) (q h 0.9)
               (q h 0.99))
      | _ -> None));
  block "spans (count, total, self)"
    (List.map
       (fun (name, n, t, self) ->
         Printf.sprintf "%-42s %7d  %8.3f ms  %8.3f ms" name n (t *. 1e3)
           (self *. 1e3))
       (span_aggregates ()));
  Format.fprintf ppf "@]"

let reset () =
  Recorder.clear ();
  Mutex.protect smu (fun () ->
      recorded := [];
      recorded_count := 0;
      dropped := 0;
      Atomic.set next_sid 0;
      Hashtbl.reset aggregates);
  Mutex.protect tmu (fun () -> Tbl.iter (fun _ s -> s.stack <- []) threads);
  Metrics.reset ();
  ctx := [];
  mode_ := Ring

let configure ?trace ?metrics ?log_level ?(summary = false) () =
  (match log_level with Some l -> Log.set_level l | None -> ());
  if trace <> None || metrics <> None || summary then begin
    set_mode Full;
    at_exit (fun () ->
        (* Close any span the exiting thread left open (an early [exit])
           so its time is accounted before export. *)
        find_state ()
        |> Option.iter (fun s -> List.iter (close_frame s) s.stack);
        let write path s = try write_file path s with Sys_error _ -> () in
        Option.iter (fun path -> write path (trace_json ())) trace;
        Option.iter
          (fun path ->
            write path (Metrics.metrics_json ());
            write (path ^ ".prom") (Metrics.metrics_prometheus ()))
          metrics;
        if summary then Format.eprintf "%a@." pp_summary ())
  end
