(* Process-wide values built on first use, raced by their first users.
   Each is built once per process, so these checks need a process of their
   own: this executable touches nothing else before them. *)

(* Run [f] on [n] threads released together by a barrier; each result is
   the value or the exception it raised. *)
let race n f =
  let m = Mutex.create () and released = Condition.create () in
  let arrived = ref 0 in
  let results = Array.make n (Error "never ran") in
  let body i =
    Mutex.lock m;
    incr arrived;
    if !arrived = n then Condition.broadcast released
    else
      while !arrived < n do
        Condition.wait released m
      done;
    Mutex.unlock m;
    results.(i) <- (try Ok (f ()) with e -> Error (Printexc.to_string e))
  in
  List.iter Thread.join (List.init n (Thread.create body));
  Array.to_list results

(* `learnq serve` answers GET /metrics on mux worker threads, and every
   export names the source revision.  The first scrapes of a fresh daemon
   all ask for it while the one `git describe` child is still running. *)
let test_concurrent_first_scrapes () =
  let scrapes = race 4 Core.Telemetry.Metrics.metrics_prometheus in
  let bodies =
    List.mapi
      (fun i -> function
        | Ok body -> body
        | Error e -> Alcotest.failf "scrape %d raised %s" i e)
      scrapes
  in
  List.iter
    (fun body ->
      Alcotest.(check string) "every scrape sees the same export"
        (List.hd bodies) body)
    bodies

let () =
  Alcotest.run "first-use"
    [
      ( "telemetry",
        [
          Alcotest.test_case "concurrent first /metrics scrapes" `Quick
            test_concurrent_first_scrapes;
        ] );
    ]
