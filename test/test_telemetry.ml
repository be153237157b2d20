(* Tests for Core.Telemetry: the zero-cost disabled path, counter/gauge
   semantics, log-scale histogram percentiles (including every edge case the
   exporters rely on), span nesting and exception safety, exporter output,
   work recorded off the main domain, trace ids, the flight recorder ring
   (wraparound, concurrent writers, dump on quarantine), labeled
   sliding-window metrics (rotation edges, empty windows, cardinality cap),
   and the journal's group-commit sync policies. *)

module T = Core.Telemetry
module Json = Server.Json
module Engines = Server.Engines
module Stepper = Server.Stepper
module Registry = Server.Registry
module Tenant = Server.Tenant

(* Telemetry state is global; every test runs against a clean registry in
   [Full] mode and leaves the default mode for the next one. *)
let with_telemetry f =
  T.reset ();
  T.set_mode T.Full;
  Fun.protect ~finally:T.reset f

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)
(* ------------------------------------------------------------------ *)

let test_counter_disabled_is_noop () =
  T.reset ();
  let c = T.Metrics.counter "test.noop" in
  T.Metrics.incr c;
  T.Metrics.incr c ~by:100;
  Alcotest.(check int) "disabled incr does nothing" 0 (T.Metrics.counter_value c)

let test_counter_incr () =
  with_telemetry @@ fun () ->
  let c = T.Metrics.counter "test.counter" in
  T.Metrics.incr c;
  T.Metrics.incr c ~by:41;
  Alcotest.(check int) "incr and incr ~by accumulate" 42
    (T.Metrics.counter_value c);
  Alcotest.(check bool) "registration is idempotent" true
    (T.Metrics.counter_value (T.Metrics.counter "test.counter") = 42)

let test_reset_keeps_registrations () =
  with_telemetry @@ fun () ->
  let c = T.Metrics.counter "test.reset" in
  T.Metrics.incr c ~by:7;
  T.reset ();
  T.set_mode T.Full;
  Alcotest.(check int) "reset zeroes the value" 0 (T.Metrics.counter_value c);
  T.Metrics.incr c;
  Alcotest.(check int) "the handle still works" 1 (T.Metrics.counter_value c)

let test_gauge () =
  with_telemetry @@ fun () ->
  let g = T.Metrics.gauge "test.gauge" in
  T.Metrics.set g 3.5;
  T.Metrics.set g 2.5;
  Alcotest.(check (float 1e-9)) "last set wins" 2.5 (T.Metrics.gauge_value g)

(* ------------------------------------------------------------------ *)
(* Histogram percentiles: the edge cases                               *)
(* ------------------------------------------------------------------ *)

let test_hist_empty () =
  with_telemetry @@ fun () ->
  let h = T.Metrics.histogram "test.hist.empty" in
  Alcotest.(check int) "count" 0 (T.Metrics.hist_count h);
  Alcotest.(check (float 1e-12)) "sum" 0. (T.Metrics.hist_sum h);
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "empty percentile p=%g" p)
        0.
        (T.Metrics.percentile h p))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_hist_single_sample () =
  with_telemetry @@ fun () ->
  let h = T.Metrics.histogram "test.hist.single" in
  T.Metrics.observe h 0.042;
  (* The [min,max] clamp makes a single sample exact at every quantile,
     not bucket-quantized. *)
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "single sample exact at p=%g" p)
        0.042
        (T.Metrics.percentile h p))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

let test_hist_all_equal () =
  with_telemetry @@ fun () ->
  let h = T.Metrics.histogram "test.hist.equal" in
  for _ = 1 to 1000 do
    T.Metrics.observe h 7.25
  done;
  Alcotest.(check int) "count" 1000 (T.Metrics.hist_count h);
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "all-equal exact at p=%g" p)
        7.25
        (T.Metrics.percentile h p))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_hist_extreme_p () =
  with_telemetry @@ fun () ->
  let h = T.Metrics.histogram "test.hist.extremes" in
  List.iter (T.Metrics.observe h) [ 0.001; 0.01; 0.1; 1.0; 10.0 ];
  Alcotest.(check (float 1e-12)) "p<=0 is the exact minimum" 0.001
    (T.Metrics.percentile h 0.0);
  Alcotest.(check (float 1e-12)) "negative p clamps to the minimum" 0.001
    (T.Metrics.percentile h (-1.0));
  Alcotest.(check (float 1e-12)) "p>=1 is the exact maximum" 10.0
    (T.Metrics.percentile h 1.0);
  Alcotest.(check (float 1e-12)) "p>1 clamps to the maximum" 10.0
    (T.Metrics.percentile h 2.0)

let test_hist_bucket_boundaries () =
  with_telemetry @@ fun () ->
  let h = T.Metrics.histogram "test.hist.bounds" in
  (* Below the first bucket's lower bound (and zero): both land in bucket 0,
     whose midpoint (1e-9) lies above every sample — the [min,max] clamp pulls
     the estimate back inside the observed range. *)
  T.Metrics.observe h 0.;
  T.Metrics.observe h 1e-12;
  Alcotest.(check (float 1e-15)) "sub-bucket estimate clamped into range" 1e-12
    (T.Metrics.percentile h 0.5);
  Alcotest.(check (float 1e-15)) "p=0 still the exact minimum" 0.
    (T.Metrics.percentile h 0.0);
  (* Beyond the last bucket: lands in the overflow bucket, max stays exact. *)
  let h2 = T.Metrics.histogram "test.hist.overflow" in
  T.Metrics.observe h2 1e40;
  Alcotest.(check (float 1e25)) "overflow value reported via max clamp" 1e40
    (T.Metrics.percentile h2 0.5)

let test_hist_accuracy () =
  with_telemetry @@ fun () ->
  let h = T.Metrics.histogram "test.hist.accuracy" in
  for i = 1 to 100 do
    T.Metrics.observe h (float_of_int i)
  done;
  (* 2 buckets per octave: a bucket spans a factor of sqrt 2, so the reported
     midpoint is within sqrt 2 of the true quantile. *)
  let p50 = T.Metrics.percentile h 0.5 in
  let lo = 50. /. sqrt 2. and hi = 50. *. sqrt 2. in
  Alcotest.(check bool)
    (Printf.sprintf "p50=%g within one bucket factor of 50" p50)
    true
    (p50 >= lo && p50 <= hi);
  Alcotest.(check (float 1e-9)) "sum" 5050. (T.Metrics.hist_sum h)

let test_hist_disabled_is_noop () =
  T.reset ();
  let h = T.Metrics.histogram "test.hist.disabled" in
  T.Metrics.observe h 1.0;
  Alcotest.(check int) "disabled observe does nothing" 0
    (T.Metrics.hist_count h)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_telemetry @@ fun () ->
  let inner_parent = ref None in
  let result =
    T.with_span "outer" (fun () ->
        let outer_id = T.current_span_id () in
        T.with_span "inner" (fun () -> inner_parent := outer_id);
        17)
  in
  Alcotest.(check int) "with_span is transparent" 17 result;
  Alcotest.(check int) "both spans recorded" 2 (T.span_count ());
  Alcotest.(check bool) "inner saw outer open" true (!inner_parent <> None);
  Alcotest.(check bool) "no span open afterwards" true
    (T.current_span_id () = None);
  let names = List.map (fun (n, _, _, _) -> n) (T.span_aggregates ()) in
  Alcotest.(check bool) "aggregates hold both names" true
    (List.mem "outer" names && List.mem "inner" names)

exception Boom

let test_span_closes_on_exception () =
  with_telemetry @@ fun () ->
  (match T.with_span "raises" (fun () -> raise Boom) with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Boom -> ());
  Alcotest.(check int) "span closed despite the raise" 1 (T.span_count ());
  Alcotest.(check bool) "stack unwound" true (T.current_span_id () = None)

let test_span_disabled_records_nothing () =
  T.reset ();
  let r = T.with_span "off" (fun () -> 5) in
  Alcotest.(check int) "transparent when disabled" 5 r;
  Alcotest.(check int) "nothing recorded" 0 (T.span_count ())

let test_span_aggregate_self_time () =
  with_telemetry @@ fun () ->
  T.with_span "parent" (fun () -> T.with_span "child" (fun () -> ()));
  let find n =
    List.find (fun (name, _, _, _) -> name = n) (T.span_aggregates ())
  in
  let _, _, p_total, p_self = find "parent" in
  let _, _, c_total, _ = find "child" in
  Alcotest.(check bool) "self excludes the child" true
    (p_self <= p_total -. c_total +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let test_trace_json () =
  with_telemetry @@ fun () ->
  T.set_context [ ("seed", "7") ];
  T.with_span "traced.work" (fun () -> ());
  let json = T.trace_json () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("trace has " ^ needle) true
        (contains ~needle json))
    [ "\"traceEvents\""; "\"traced.work\""; "\"ph\":\"X\""; "\"seed\""; "otherData" ]

let test_metrics_exports () =
  with_telemetry @@ fun () ->
  T.set_context [ ("seed", "9") ];
  let c = T.Metrics.counter "test.export.hits" in
  T.Metrics.incr c ~by:3;
  let h = T.Metrics.histogram "test.export.lat_s" in
  T.Metrics.observe h 0.25;
  let json = T.Metrics.metrics_json () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true
        (contains ~needle json))
    [ "\"test.export.hits\": 3"; "\"test.export.lat_s\""; "\"seed\": \"9\"" ];
  let prom = T.Metrics.metrics_prometheus () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("prom has " ^ needle) true
        (contains ~needle prom))
    [
      "test_export_hits 3";
      "# TYPE test_export_hits counter";
      "quantile=\"0.5\"";
      "learnq_run_info";
    ]

(* ------------------------------------------------------------------ *)
(* Work off the main domain                                            *)
(* ------------------------------------------------------------------ *)

(* Each task bumps a counter, observes a histogram and opens a span; the
   totals must cover every task wherever it ran — on a spawned domain, or
   on either lane of a two-lane pool. *)
let test_worker_domains_counted () =
  let n = 200 in
  let c = T.Metrics.counter "test.worker.tasks" in
  let h = T.Metrics.histogram "test.worker.lat_s" in
  let task i =
    T.with_span "test.worker.task" (fun () ->
        T.Metrics.incr c ~by:i;
        T.Metrics.observe h (float_of_int i *. 1e-3))
  in
  let check where =
    Alcotest.(check int)
      (where ^ ": full counter total")
      (n * (n + 1) / 2)
      (T.Metrics.counter_value c);
    Alcotest.(check int)
      (where ^ ": histogram count")
      n (T.Metrics.hist_count h);
    Alcotest.(check int)
      (where ^ ": span-aggregate count")
      n
      (List.fold_left
         (fun acc (name, k, _, _) ->
           if name = "test.worker.task" then k else acc)
         0 (T.span_aggregates ()))
  in
  with_telemetry (fun () ->
      Domain.join
        (Domain.spawn (fun () ->
             for i = 1 to n do
               task i
             done));
      check "spawned domain");
  with_telemetry (fun () ->
      let pool = Core.Pool.create 2 in
      Fun.protect
        ~finally:(fun () -> Core.Pool.shutdown pool)
        (fun () ->
          ignore
            (Core.Pool.map_array_chunked pool ~chunk:1 task
               (Array.init n (fun i -> i + 1))));
      check "two-lane pool")

(* A session job re-installs its request's trace on a pool domain: the
   engine spans it opens there land in the ring under that trace. *)
let test_worker_spans_reach_ring () =
  T.reset ();
  Domain.join
    (Domain.spawn (fun () ->
         T.Trace.with_trace "req-w" (fun () ->
             T.with_span "engine.work" ignore)));
  Alcotest.(check (list string))
    "begin and end under the request's trace"
    [ "engine.work"; "engine.work" ]
    (List.map
       (fun e -> e.T.Recorder.ev_name)
       (T.Recorder.trace_events "req-w"));
  T.reset ()

let with_temp_dir f =
  let path = Filename.temp_file "learnq_telemetry" ".d" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun e ->
             try Sys.remove (Filename.concat path e) with Sys_error _ -> ())
           (Sys.readdir path)
       with Sys_error _ -> ());
      try Unix.rmdir path with Unix.Unix_error _ -> ())
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Trace ids                                                           *)
(* ------------------------------------------------------------------ *)

let test_trace_mint_and_valid () =
  let a = T.Trace.mint () and b = T.Trace.mint () in
  Alcotest.(check bool) "minted ids are distinct" true (a <> b);
  Alcotest.(check bool) "minted ids are valid" true
    (T.Trace.valid a && T.Trace.valid b);
  Alcotest.(check bool) "empty rejected" false (T.Trace.valid "");
  Alcotest.(check bool) "spaces rejected" false (T.Trace.valid "a b");
  Alcotest.(check bool) "header-injection rejected" false
    (T.Trace.valid "x\r\nSet-Cookie: n");
  Alcotest.(check bool) "over-long rejected" false
    (T.Trace.valid (String.make 65 'a'));
  Alcotest.(check bool) "64 chars accepted" true
    (T.Trace.valid (String.make 64 'a'))

let test_trace_with_trace_restores () =
  T.Trace.set None;
  Alcotest.(check (option string)) "no ambient trace" None
    (T.Trace.current ());
  let inner =
    T.Trace.with_trace "outer" (fun () ->
        let o = T.Trace.current () in
        let i =
          T.Trace.with_trace "inner" (fun () -> T.Trace.current ())
        in
        (o, i, T.Trace.current ()))
  in
  Alcotest.(check (option string)) "outer installed" (Some "outer")
    (let o, _, _ = inner in
     o);
  Alcotest.(check (option string)) "inner shadows" (Some "inner")
    (let _, i, _ = inner in
     i);
  Alcotest.(check (option string)) "outer restored after inner"
    (Some "outer")
    (let _, _, r = inner in
     r);
  Alcotest.(check (option string)) "cleared after with_trace" None
    (T.Trace.current ());
  (* Restoration survives a raise. *)
  (try
     T.Trace.with_trace "doomed" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (option string)) "cleared after raise" None
    (T.Trace.current ())

let test_trace_per_thread () =
  T.Trace.set None;
  let seen = ref None in
  T.Trace.with_trace "main-trace" (fun () ->
      let t =
        Thread.create (fun () -> seen := T.Trace.current ()) ()
      in
      Thread.join t;
      Alcotest.(check (option string)) "other thread sees no trace" None !seen;
      Alcotest.(check (option string)) "main thread keeps its trace"
        (Some "main-trace") (T.Trace.current ()))

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let ev_names evs = List.map (fun e -> e.T.Recorder.ev_name) evs

let test_recorder_wraparound () =
  T.reset ();
  (* 32 total over 8 slots = 4 per slot; a single-domain writer lands
     every event in its own slot, so only the last 4 survive. *)
  T.Recorder.set_capacity 32;
  for i = 0 to 9 do
    T.Recorder.record (Printf.sprintf "ev%d" i)
  done;
  Alcotest.(check (list string)) "oldest overwritten, order kept"
    [ "ev6"; "ev7"; "ev8"; "ev9" ]
    (ev_names (T.Recorder.events ()));
  T.Recorder.set_capacity 4096;
  T.reset ()

let test_recorder_disabled_is_silent () =
  T.reset ();
  T.set_mode T.Off;
  T.Recorder.record "invisible";
  ignore (T.with_span "quiet" (fun () -> 42));
  Alcotest.(check int) "nothing retained" 0
    (List.length (T.Recorder.events ()));
  T.reset ()

let test_recorder_span_pairing_and_trace_filter () =
  T.reset ();
  T.Trace.with_trace "req-1" (fun () ->
      T.with_span ~detail:"outer work" "outer" (fun () ->
          T.Recorder.record ~detail:"d" "tick"));
  T.Trace.with_trace "req-2" (fun () -> T.Recorder.record "other");
  T.Recorder.record "untraced";
  let req1 = T.Recorder.trace_events "req-1" in
  Alcotest.(check (list string)) "span tree of one request"
    [ "outer"; "tick"; "outer" ] (ev_names req1);
  (match List.map (fun e -> e.T.Recorder.ev_phase) req1 with
  | [ T.Recorder.Begin; T.Recorder.Instant; T.Recorder.End ] -> ()
  | _ -> Alcotest.fail "expected Begin/Instant/End phases");
  Alcotest.(check (list string)) "other request filtered separately"
    [ "other" ]
    (ev_names (T.Recorder.trace_events "req-2"));
  Alcotest.(check int) "all events retained" 5
    (List.length (T.Recorder.events ()));
  (* The span closes even when the body raises. *)
  (try T.with_span "doomed" (fun () -> failwith "boom")
   with Failure _ -> ());
  let doomed =
    List.filter
      (fun e -> e.T.Recorder.ev_name = "doomed")
      (T.Recorder.events ())
  in
  (match List.map (fun e -> e.T.Recorder.ev_phase) doomed with
  | [ T.Recorder.Begin; T.Recorder.End ] -> ()
  | _ -> Alcotest.fail "span not closed on raise");
  T.reset ()

let test_recorder_concurrent_domains () =
  T.reset ();
  T.Recorder.set_capacity 1024;
  let per_domain = 500 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              T.Recorder.record ~detail:(string_of_int i)
                (Printf.sprintf "dom%d" d)
            done))
  in
  List.iter Domain.join domains;
  let evs = T.Recorder.events () in
  Alcotest.(check bool) "ring retained something" true (List.length evs > 0);
  Alcotest.(check bool) "ring never exceeds capacity" true
    (List.length evs <= 1024);
  List.iter
    (fun e ->
      if not (String.length e.T.Recorder.ev_name > 3) then
        Alcotest.fail "torn event name")
    evs;
  (* The dump is valid JSON even with events from many domains. *)
  (match Json.parse (T.Recorder.dump_json ()) with
  | Ok (Json.Obj kvs) ->
      (match List.assoc_opt "traceEvents" kvs with
      | Some (Json.Arr l) ->
          Alcotest.(check int) "dump covers every retained event"
            (List.length evs) (List.length l)
      | _ -> Alcotest.fail "no traceEvents array")
  | Ok _ -> Alcotest.fail "dump is not an object"
  | Error e -> Alcotest.failf "dump does not parse: %s" e);
  T.Recorder.set_capacity 4096;
  T.reset ()

(* A corrupt journal's quarantine drops a flight-recorder dump next to the
   corpse, for the post-mortem. *)
let test_recorder_dump_on_quarantine () =
  T.reset ();
  let spec =
    { Engines.default_spec with Engines.engine = "join"; seed = 5; rows = 5 }
  in
  let truth =
    match Engines.oracle spec ~goal:"planted" with
    | Ok t -> t
    | Error e -> Alcotest.failf "oracle: %s" (Core.Error.to_string e)
  in
  with_temp_dir (fun dir ->
      let cfg =
        {
          Registry.dir;
          sync = Core.Journal.Always;
          tenants = Tenant.make [];
          step_fuel = None;
          step_timeout = None;
          vfs = Core.Vfs.real;
          checkpoint_every = 0;
          max_live = 0;
          idle_evict_after = 0.;
        }
      in
      let reg = Registry.create cfg in
      (match Registry.create_session reg ~tenant:"t" ~id:"s" spec with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "create: %s" (Core.Error.to_string e));
      let st = Option.get (Registry.find reg ~tenant:"t" ~id:"s") in
      let rec answer n =
        if n > 0 then
          let v = st.Stepper.view () in
          match v.Stepper.question with
          | Some key when not v.Stepper.done_ ->
              (match
                 st.Stepper.answer ~qid:v.Stepper.qid
                   (Core.Flaky.Label (truth key))
               with
              | Ok _ -> answer (n - 1)
              | Error e ->
                  Alcotest.failf "answer: %s" (Core.Error.to_string e))
          | _ -> ()
      in
      answer 2;
      Registry.drain reg;
      (* Flip a byte of the journal tail; recovery must quarantine it and
         leave a flight dump beside the quarantined bytes. *)
      let jpath =
        match
          Array.to_list (Sys.readdir dir)
          |> List.filter (fun e -> Filename.check_suffix e ".journal")
        with
        | [ name ] -> Filename.concat dir name
        | l -> Alcotest.failf "expected one journal, got %d" (List.length l)
      in
      let ic = open_in_bin jpath in
      let bytes =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let b = Bytes.of_string bytes in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      let oc = open_out_bin jpath in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_bytes oc b);
      let reg2 = Registry.create cfg in
      let pool = Core.Pool.create 1 in
      let _recovered, _errors =
        Fun.protect
          ~finally:(fun () -> Core.Pool.shutdown pool)
          (fun () -> Registry.recover_all reg2 ~pool)
      in
      Registry.drain reg2;
      Alcotest.(check int) "quarantined" 1
        (Registry.stats reg2).Registry.quarantined;
      let dump = jpath ^ ".quarantine.flight.json" in
      Alcotest.(check bool) "flight dump written" true (Sys.file_exists dump);
      let ic = open_in_bin dump in
      let raw =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (match Json.parse raw with
      | Ok (Json.Obj _) -> ()
      | Ok _ -> Alcotest.fail "dump is not a JSON object"
      | Error e -> Alcotest.failf "dump does not parse: %s" e);
      (* The dump's event stream names the quarantine itself. *)
      Alcotest.(check bool) "dump mentions the quarantine" true
        (let evs = T.Recorder.events () in
         List.exists
           (fun e -> e.T.Recorder.ev_name = "registry.quarantine")
           evs);
      Sys.remove dump);
  T.reset ()

(* ------------------------------------------------------------------ *)
(* Labeled metrics: sliding windows                                    *)
(* ------------------------------------------------------------------ *)

let test_labeled_counters () =
  T.reset ();
  T.Labeled.incr "reqs" [ ("route", "/a"); ("outcome", "2xx") ];
  T.Labeled.incr "reqs" [ ("outcome", "2xx"); ("route", "/a") ];
  T.Labeled.incr ~by:3 "reqs" [ ("route", "/a"); ("outcome", "5xx") ];
  Alcotest.(check int) "label order is canonical" 2
    (T.Labeled.counter_value "reqs" [ ("outcome", "2xx"); ("route", "/a") ]);
  Alcotest.(check int) "by" 3
    (T.Labeled.counter_value "reqs" [ ("route", "/a"); ("outcome", "5xx") ]);
  Alcotest.(check int) "unknown series reads 0" 0
    (T.Labeled.counter_value "reqs" [ ("route", "/b") ]);
  Alcotest.(check int) "two series" 2 (T.Labeled.series_count "reqs");
  T.reset ()

let lbl = [ ("tenant", "t") ]

let window_count name labels =
  match T.Labeled.window_stats name labels with
  | Some (c, _, _, _, _) -> c
  | None -> 0

let test_window_rotation_edges () =
  T.reset ();
  let t = ref 0. in
  T.Labeled.set_clock (Some (fun () -> !t));
  (* 6 sub-windows x 10 s: a sample stays visible for the rest of its own
     sub-window plus five more — 60 s from the epoch boundary. *)
  for _ = 1 to 5 do
    T.Labeled.observe "lat" lbl 0.050
  done;
  Alcotest.(check int) "live immediately" 5 (window_count "lat" lbl);
  t := 59.9;
  Alcotest.(check int) "still live at the window edge" 5
    (window_count "lat" lbl);
  t := 60.;
  Alcotest.(check int) "gone one tick past the window" 0
    (window_count "lat" lbl);
  (* Partial expiry: samples rotate out sub-window by sub-window. *)
  t := 100.;
  T.Labeled.observe "lat" lbl 0.010;
  t := 110.;
  T.Labeled.observe "lat" lbl 0.020;
  Alcotest.(check int) "both sub-windows live" 2
    (window_count "lat" lbl);
  t := 160.;
  Alcotest.(check int) "older sub-window expired" 1
    (window_count "lat" lbl);
  t := 170.;
  Alcotest.(check int) "then the newer one" 0
    (window_count "lat" lbl);
  (* Lazy rotation: writing at a much later epoch reuses (and zeroes) the
     slot of a long-dead sub-window rather than resurrecting its data. *)
  t := 1000.;
  T.Labeled.observe "lat" lbl 0.300;
  Alcotest.(check int) "only the fresh sample" 1
    (window_count "lat" lbl);
  T.reset ()

let test_window_percentiles () =
  T.reset ();
  let t = ref 0. in
  T.Labeled.set_clock (Some (fun () -> !t));
  Alcotest.(check (float 0.)) "empty window reads p99 = 0" 0.
    (T.Labeled.window_percentile "lat2" lbl 0.99);
  for i = 1 to 100 do
    T.Labeled.observe "lat2" lbl (0.001 *. float_of_int i)
  done;
  let p50 = T.Labeled.window_percentile "lat2" lbl 0.5 in
  let p99 = T.Labeled.window_percentile "lat2" lbl 0.99 in
  Alcotest.(check bool) "p50 in the middle of the samples" true
    (p50 > 0.02 && p50 < 0.09);
  Alcotest.(check bool) "p99 near the top, clamped to max" true
    (p99 > p50 && p99 <= 0.1);
  (match T.Labeled.window_stats "lat2" lbl with
  | Some (count, sum, _, _, _) ->
      Alcotest.(check int) "count" 100 count;
      Alcotest.(check bool) "sum" true (Float.abs (sum -. 5.05) < 1e-9)
  | None -> Alcotest.fail "known series must report stats");
  Alcotest.(check bool) "unknown series reports None" true
    (T.Labeled.window_stats "lat2" [ ("tenant", "ghost") ] = None);
  (* After the window slides away, percentiles return to 0. *)
  t := 3600.;
  Alcotest.(check (float 0.)) "expired window reads 0" 0.
    (T.Labeled.window_percentile "lat2" lbl 0.99);
  T.reset ()

let test_label_cardinality_cap () =
  T.reset ();
  T.Labeled.set_max_series 4;
  for i = 1 to 10 do
    T.Labeled.incr "capped" [ ("tenant", Printf.sprintf "t%d" i) ]
  done;
  Alcotest.(check int) "capped at max + overflow" 5
    (T.Labeled.series_count "capped");
  Alcotest.(check int) "overflow absorbs the excess" 6
    (T.Labeled.counter_value "capped" [ ("overflow", "true") ]);
  Alcotest.(check int) "pre-cap series still addressable" 1
    (T.Labeled.counter_value "capped" [ ("tenant", "t1") ]);
  (* Existing series keep counting after the cap. *)
  T.Labeled.incr "capped" [ ("tenant", "t1") ];
  Alcotest.(check int) "pre-cap series not frozen" 2
    (T.Labeled.counter_value "capped" [ ("tenant", "t1") ]);
  T.reset ()

let test_prometheus_exposition () =
  T.reset ();
  T.Labeled.incr "learnq_requests_total"
    [ ("route", "/v1/sessions"); ("outcome", "2xx"); ("tenant", "t") ];
  T.Labeled.observe "learnq_request_seconds" [ ("tenant", "t") ] 0.025;
  let text = T.Metrics.metrics_prometheus () in
  let has needle =
    let nn = String.length needle and hn = String.length text in
    let rec go i =
      i + nn <= hn && (String.sub text i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "counter series with labels" true
    (has "learnq_requests_total{");
  Alcotest.(check bool) "counter value" true (has "} 1");
  Alcotest.(check bool) "summary type" true
    (has "# TYPE learnq_request_seconds summary");
  Alcotest.(check bool) "quantile label" true (has "quantile=\"0.99\"");
  Alcotest.(check bool) "window count" true
    (has "learnq_request_seconds_count{tenant=\"t\"} 1");
  T.reset ()

(* ------------------------------------------------------------------ *)
(* Logging                                                             *)
(* ------------------------------------------------------------------ *)

let with_log_buffer f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let saved = T.Log.level () in
  T.Log.set_formatter ppf;
  Fun.protect
    ~finally:(fun () ->
      T.Log.set_level saved;
      T.Log.set_formatter Format.err_formatter)
    (fun () ->
      f ();
      Format.pp_print_flush ppf ();
      Buffer.contents buf)

let test_log_levels () =
  let out =
    with_log_buffer (fun () ->
        T.Log.set_level (Some T.Warn);
        T.Log.debug "hidden debug";
        T.Log.info "hidden info";
        T.Log.warn ~kv:[ ("k", "v") ] "visible warning";
        T.Log.error "visible error")
  in
  Alcotest.(check bool) "debug suppressed at warn" false
    (contains ~needle:"hidden debug" out);
  Alcotest.(check bool) "info suppressed at warn" false
    (contains ~needle:"hidden info" out);
  Alcotest.(check bool) "warn emitted" true
    (contains ~needle:"visible warning" out);
  Alcotest.(check bool) "key=value rendered" true (contains ~needle:"k=v" out);
  Alcotest.(check bool) "error emitted" true
    (contains ~needle:"visible error" out)

let test_log_quiet () =
  let out =
    with_log_buffer (fun () ->
        T.Log.set_level None;
        T.Log.error "nothing at all")
  in
  Alcotest.(check string) "level None silences everything" "" out

let test_level_of_string () =
  Alcotest.(check bool) "warn parses" true
    (T.level_of_string "warn" = Some T.Warn);
  Alcotest.(check bool) "DEBUG parses" true
    (T.level_of_string "DEBUG" = Some T.Debug);
  Alcotest.(check bool) "junk rejected" true (T.level_of_string "loud" = None)

(* ------------------------------------------------------------------ *)
(* Journal sync policies (group commit)                                *)
(* ------------------------------------------------------------------ *)

let with_temp f =
  let path = Filename.temp_file "learnq_telemetry" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let file_size path = (Unix.stat path).Unix.st_size

let header = { Core.Journal.seed = 5; engine = "learn-test"; config = "c" }

let test_batch_buffers_until_flush () =
  with_temp (fun path ->
      let j = Core.Journal.create ~sync:Core.Journal.Batch ~path header in
      let after_header = file_size path in
      (* Fewer than the group size: stays in the write buffer. *)
      for i = 1 to 3 do
        Core.Journal.append j (Core.Journal.Asked (string_of_int i))
      done;
      Alcotest.(check int) "records below the group size are buffered"
        after_header (file_size path);
      Core.Journal.flush j;
      Alcotest.(check bool) "flush writes them out" true
        (file_size path > after_header);
      Core.Journal.close j;
      let r =
        match Core.Journal.recover ~path with
        | Ok r -> r
        | Error e -> Alcotest.failf "recover: %s" (Core.Error.to_string e)
      in
      Alcotest.(check int) "all records survive" 3 (List.length r.events))

let test_batch_group_boundary () =
  with_temp (fun path ->
      let j = Core.Journal.create ~sync:Core.Journal.Batch ~path header in
      let after_header = file_size path in
      (* Exactly one group: the 8th append forces the write. *)
      for i = 1 to 8 do
        Core.Journal.append j (Core.Journal.Asked (string_of_int i))
      done;
      Alcotest.(check bool) "a full group is written without close" true
        (file_size path > after_header);
      (* A crash here (no close) must still see the full group. *)
      let r =
        match Core.Journal.recover ~path with
        | Ok r -> r
        | Error e -> Alcotest.failf "recover: %s" (Core.Error.to_string e)
      in
      Alcotest.(check int) "the whole group is durable" 8
        (List.length r.events);
      Core.Journal.close j)

let test_batch_flushes_on_completed () =
  with_temp (fun path ->
      let j = Core.Journal.create ~sync:Core.Journal.Batch ~path header in
      Core.Journal.append j (Core.Journal.Asked "x");
      Core.Journal.append j Core.Journal.Completed;
      (* Completed is a durability milestone: visible before close. *)
      let r =
        match Core.Journal.recover ~path with
        | Ok r -> r
        | Error e -> Alcotest.failf "recover: %s" (Core.Error.to_string e)
      in
      Alcotest.(check bool) "completed record flushed" true
        (List.mem Core.Journal.Completed r.events);
      Core.Journal.close j)

let test_sync_policy_recorded_in_header () =
  List.iter
    (fun sync ->
      with_temp (fun path ->
          let j = Core.Journal.create ~sync ~path header in
          Core.Journal.append j (Core.Journal.Asked "q");
          Core.Journal.close j;
          match Core.Journal.recover ~path with
          | Error e -> Alcotest.failf "recover: %s" (Core.Error.to_string e)
          | Ok r ->
              Alcotest.(check bool) "header fields survive" true
                (r.header = Some header);
              Alcotest.(check string)
                ("policy " ^ Core.Journal.sync_to_string sync ^ " recorded")
                (Core.Journal.sync_to_string sync)
                (Core.Journal.sync_to_string r.recorded_sync)))
    [ Core.Journal.Always; Core.Journal.Batch; Core.Journal.Off ]

(* A journal written before the sync-policy field existed: header payload
   without the trailing "sync=…" token must decode with [Always]. *)
let test_old_header_defaults_to_always () =
  let le32 v =
    let b = Bytes.create 4 in
    for i = 0 to 3 do
      Bytes.set b i (Char.chr ((v lsr (8 * i)) land 0xff))
    done;
    Bytes.to_string b
  in
  let frame payload =
    le32 (String.length payload) ^ le32 (Core.Journal.crc32 payload) ^ payload
  in
  let bytes = "LQJRNL1\n" ^ frame "H42\x00learn-old\x00k=3" ^ frame "?item" in
  match Core.Journal.parse ~source:"old" bytes with
  | Error e -> Alcotest.failf "old journal rejected: %s" (Core.Error.to_string e)
  | Ok r ->
      Alcotest.(check bool) "header decodes" true
        (r.header
        = Some { Core.Journal.seed = 42; engine = "learn-old"; config = "k=3" });
      Alcotest.(check string) "missing policy field means always" "always"
        (Core.Journal.sync_to_string r.recorded_sync);
      Alcotest.(check int) "events decode" 1 (List.length r.events)

let test_resume_keeps_recorded_policy () =
  with_temp (fun path ->
      let j = Core.Journal.create ~sync:Core.Journal.Batch ~path header in
      Core.Journal.append j (Core.Journal.Asked "q");
      Core.Journal.close j;
      match Core.Journal.resume ~path () with
      | Error e -> Alcotest.failf "resume: %s" (Core.Error.to_string e)
      | Ok (j2, r) ->
          Alcotest.(check string) "recovered policy is batch" "batch"
            (Core.Journal.sync_to_string r.recorded_sync);
          (* The resumed writer batches too: a single append stays pending. *)
          let before = file_size path in
          Core.Journal.append j2 (Core.Journal.Asked "more");
          Alcotest.(check int) "resumed writer buffers like the original"
            before (file_size path);
          Core.Journal.close j2;
          Alcotest.(check bool) "close flushes it" true
            (file_size path > before))

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter disabled" `Quick
            test_counter_disabled_is_noop;
          Alcotest.test_case "counter incr" `Quick test_counter_incr;
          Alcotest.test_case "reset keeps registrations" `Quick
            test_reset_keeps_registrations;
          Alcotest.test_case "gauge" `Quick test_gauge;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "single sample" `Quick test_hist_single_sample;
          Alcotest.test_case "all equal" `Quick test_hist_all_equal;
          Alcotest.test_case "p=0 and p=1" `Quick test_hist_extreme_p;
          Alcotest.test_case "bucket boundaries" `Quick
            test_hist_bucket_boundaries;
          Alcotest.test_case "accuracy" `Quick test_hist_accuracy;
          Alcotest.test_case "disabled" `Quick test_hist_disabled_is_noop;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "closes on exception" `Quick
            test_span_closes_on_exception;
          Alcotest.test_case "disabled" `Quick
            test_span_disabled_records_nothing;
          Alcotest.test_case "self time" `Quick test_span_aggregate_self_time;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "trace json" `Quick test_trace_json;
          Alcotest.test_case "metrics json + prometheus" `Quick
            test_metrics_exports;
        ] );
      ( "domains",
        [
          Alcotest.test_case "worker-domain work is counted" `Quick
            test_worker_domains_counted;
          Alcotest.test_case "worker spans reach the ring" `Quick
            test_worker_spans_reach_ring;
        ] );
      ( "trace",
        [
          Alcotest.test_case "mint and validate" `Quick
            test_trace_mint_and_valid;
          Alcotest.test_case "with_trace restores" `Quick
            test_trace_with_trace_restores;
          Alcotest.test_case "traces are per-thread" `Quick
            test_trace_per_thread;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "wraparound keeps the newest" `Quick
            test_recorder_wraparound;
          Alcotest.test_case "disabled recorder is silent" `Quick
            test_recorder_disabled_is_silent;
          Alcotest.test_case "span pairing and trace filter" `Quick
            test_recorder_span_pairing_and_trace_filter;
          Alcotest.test_case "concurrent writers across domains" `Quick
            test_recorder_concurrent_domains;
          Alcotest.test_case "dump on quarantine" `Quick
            test_recorder_dump_on_quarantine;
        ] );
      ( "labeled",
        [
          Alcotest.test_case "counters and label order" `Quick
            test_labeled_counters;
          Alcotest.test_case "window rotation edges" `Quick
            test_window_rotation_edges;
          Alcotest.test_case "window percentiles" `Quick
            test_window_percentiles;
          Alcotest.test_case "label cardinality cap" `Quick
            test_label_cardinality_cap;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
        ] );
      ( "log",
        [
          Alcotest.test_case "levels" `Quick test_log_levels;
          Alcotest.test_case "quiet" `Quick test_log_quiet;
          Alcotest.test_case "level parsing" `Quick test_level_of_string;
        ] );
      ( "journal sync",
        [
          Alcotest.test_case "batch buffers" `Quick
            test_batch_buffers_until_flush;
          Alcotest.test_case "group boundary" `Quick test_batch_group_boundary;
          Alcotest.test_case "completed flushes" `Quick
            test_batch_flushes_on_completed;
          Alcotest.test_case "policy recorded" `Quick
            test_sync_policy_recorded_in_header;
          Alcotest.test_case "old header" `Quick
            test_old_header_defaults_to_always;
          Alcotest.test_case "resume keeps policy" `Quick
            test_resume_keeps_recorded_policy;
        ] );
    ]
