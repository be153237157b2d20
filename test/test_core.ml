(* Tests for the learning-framework kernel: PRNG, multisets, examples,
   interactive loop, identification in the limit, statistics. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let g1 = Core.Prng.create 42 and g2 = Core.Prng.create 42 in
  let xs1 = List.init 20 (fun _ -> Core.Prng.int g1 1000) in
  let xs2 = List.init 20 (fun _ -> Core.Prng.int g2 1000) in
  check (Alcotest.list Alcotest.int) "same seed, same stream" xs1 xs2

let test_prng_seed_sensitivity () =
  let g1 = Core.Prng.create 1 and g2 = Core.Prng.create 2 in
  let xs1 = List.init 20 (fun _ -> Core.Prng.int g1 1_000_000) in
  let xs2 = List.init 20 (fun _ -> Core.Prng.int g2 1_000_000) in
  Alcotest.(check bool) "different seeds diverge" false (xs1 = xs2)

let prop_prng_int_bounds =
  QCheck.Test.make ~name:"Prng.int stays within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Core.Prng.create seed in
      let x = Core.Prng.int g bound in
      x >= 0 && x < bound)

let test_prng_int_in () =
  let g = Core.Prng.create 7 in
  for _ = 1 to 100 do
    let x = Core.Prng.int_in g 5 9 in
    Alcotest.(check bool) "in range" true (x >= 5 && x <= 9)
  done

let test_prng_invalid_bounds () =
  let g = Core.Prng.create 7 in
  let expect_invalid name fragment f =
    match f () with
    | (_ : int) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument msg ->
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool)
          (name ^ " names the offending value")
          true (contains msg fragment)
  in
  expect_invalid "int 0" "got 0" (fun () -> Core.Prng.int g 0);
  expect_invalid "int -3" "got -3" (fun () -> Core.Prng.int g (-3));
  expect_invalid "int_in 5 4" "[5, 4]" (fun () -> Core.Prng.int_in g 5 4)

let test_prng_shuffle_permutation () =
  let g = Core.Prng.create 3 in
  let xs = List.init 30 Fun.id in
  let shuffled = Core.Prng.shuffle g xs in
  check
    (Alcotest.list Alcotest.int)
    "same multiset" xs
    (List.sort compare shuffled)

let test_prng_sample_distinct () =
  let g = Core.Prng.create 5 in
  let xs = List.init 20 Fun.id in
  let s = Core.Prng.sample g 8 xs in
  Alcotest.(check int) "8 drawn" 8 (List.length s);
  Alcotest.(check int) "distinct" 8 (List.length (List.sort_uniq compare s))

let test_prng_sample_exhaust () =
  let g = Core.Prng.create 5 in
  let s = Core.Prng.sample g 99 [ 1; 2; 3 ] in
  check (Alcotest.list Alcotest.int) "whole list" [ 1; 2; 3 ]
    (List.sort compare s)

let test_prng_split_independent () =
  let g = Core.Prng.create 11 in
  let h = Core.Prng.split g in
  let a = List.init 10 (fun _ -> Core.Prng.int g 1000) in
  let b = List.init 10 (fun _ -> Core.Prng.int h 1000) in
  Alcotest.(check bool) "streams differ" false (a = b)

let prop_prng_chance_extremes =
  QCheck.Test.make ~name:"Prng.chance at 0 and 1" ~count:200 QCheck.small_int
    (fun seed ->
      let g = Core.Prng.create seed in
      (not (Core.Prng.chance g 0.0)) && Core.Prng.chance g 1.0)

(* ------------------------------------------------------------------ *)
(* Multiset                                                            *)
(* ------------------------------------------------------------------ *)

module MS = Core.Multiset.Make (String)

let test_multiset_basic () =
  let m = MS.of_list [ "a"; "b"; "a"; "c"; "a" ] in
  Alcotest.(check int) "count a" 3 (MS.count "a" m);
  Alcotest.(check int) "count b" 1 (MS.count "b" m);
  Alcotest.(check int) "count absent" 0 (MS.count "z" m);
  Alcotest.(check int) "cardinal" 5 (MS.cardinal m);
  Alcotest.(check int) "distinct" 3 (MS.distinct m);
  Alcotest.(check (list string)) "support" [ "a"; "b"; "c" ] (MS.support m)

let test_multiset_remove () =
  let m = MS.of_list [ "a"; "a" ] in
  let m = MS.remove "a" m in
  Alcotest.(check int) "one left" 1 (MS.count "a" m);
  let m = MS.remove "a" m in
  Alcotest.(check bool) "empty" true (MS.is_empty m)

let test_multiset_add_count () =
  let m = MS.add ~count:5 "x" MS.empty in
  Alcotest.(check int) "five" 5 (MS.count "x" m);
  Alcotest.(check bool) "zero add is id" true
    (MS.equal m (MS.add ~count:0 "y" m))

let test_multiset_elements () =
  let m = MS.of_list [ "b"; "a"; "b" ] in
  Alcotest.(check (list string)) "elements" [ "a"; "b"; "b" ] (MS.elements m)

let small_multiset =
  QCheck.map MS.of_list QCheck.(list_of_size Gen.(0 -- 8) (printable_string_of_size (Gen.return 1)))

let prop_multiset_sum_cardinal =
  QCheck.Test.make ~name:"sum adds cardinals" ~count:200
    (QCheck.pair small_multiset small_multiset)
    (fun (a, b) ->
      MS.cardinal (MS.sum a b) = MS.cardinal a + MS.cardinal b)

let prop_multiset_subset_refl =
  QCheck.Test.make ~name:"subset is reflexive" ~count:200 small_multiset
    (fun m -> MS.subset m m)

let prop_multiset_subset_sum =
  QCheck.Test.make ~name:"a ⊆ a + b" ~count:200
    (QCheck.pair small_multiset small_multiset)
    (fun (a, b) -> MS.subset a (MS.sum a b))

(* ------------------------------------------------------------------ *)
(* Example                                                             *)
(* ------------------------------------------------------------------ *)

let test_example_partition () =
  let exs =
    [
      Core.Example.positive 1;
      Core.Example.negative 2;
      Core.Example.positive 3;
    ]
  in
  let pos, neg = Core.Example.partition exs in
  check (Alcotest.list Alcotest.int) "positives" [ 1; 3 ] pos;
  check (Alcotest.list Alcotest.int) "negatives" [ 2 ] neg

let test_example_consistency () =
  let selects threshold x = x > threshold in
  let exs = [ Core.Example.positive 5; Core.Example.negative 1 ] in
  Alcotest.(check bool) "threshold 3 consistent" true
    (Core.Example.consistent_with selects 3 exs);
  Alcotest.(check bool) "threshold 0 selects the negative" false
    (Core.Example.consistent_with selects 0 exs);
  Alcotest.(check bool) "threshold 7 misses the positive" false
    (Core.Example.consistent_with selects 7 exs)

(* ------------------------------------------------------------------ *)
(* Interact: a toy number-guessing session                             *)
(* ------------------------------------------------------------------ *)

(* Concept class: thresholds t; an int item is positive iff item >= t.
   Determined: an item above a known positive is positive; below a known
   negative is negative. *)
module Threshold_session = struct
  type query = int
  type item = int
  type state = { min_pos : int option; max_neg : int option }

  let init _ = { min_pos = None; max_neg = None }

  let record st item label =
    if label then
      { st with min_pos = Some (match st.min_pos with None -> item | Some m -> min m item) }
    else
      { st with max_neg = Some (match st.max_neg with None -> item | Some m -> max m item) }

  let determined st item =
    match (st.min_pos, st.max_neg) with
    | Some p, _ when item >= p -> Some true
    | _, Some n when item <= n -> Some false
    | _ -> None

  let candidate st =
    match st.min_pos with Some p -> Some p | None -> None

  let pp_item = Format.pp_print_int
  let pp_query = Format.pp_print_int
end

module Threshold_loop = Core.Interact.Make (Threshold_session)

let test_interact_convergence () =
  let goal = 13 in
  let items = List.init 30 Fun.id in
  let outcome =
    Threshold_loop.run ~oracle:(fun i -> i >= goal) ~items ()
  in
  (match outcome.query with
  | Some q -> Alcotest.(check int) "learned threshold" goal q
  | None -> Alcotest.fail "no candidate");
  Alcotest.(check int) "everything asked or pruned" 30
    (outcome.questions + outcome.pruned)

let test_interact_prunes () =
  let items = List.init 100 Fun.id in
  let outcome = Threshold_loop.run ~oracle:(fun i -> i >= 50) ~items () in
  Alcotest.(check bool) "pruning happened" true (outcome.pruned > 0)

let test_interact_max_questions () =
  let items = List.init 100 Fun.id in
  let outcome =
    Threshold_loop.run ~max_questions:3 ~oracle:(fun i -> i >= 50) ~items ()
  in
  Alcotest.(check bool) "at most 3 questions" true (outcome.questions <= 3)

let test_interact_cost () =
  let items = List.init 10 Fun.id in
  let outcome = Threshold_loop.run ~oracle:(fun i -> i >= 5) ~items () in
  let cost = Threshold_loop.cost ~price_per_question:0.05 outcome in
  Alcotest.(check (float 1e-9)) "cost is price × questions"
    (0.05 *. float_of_int outcome.questions)
    cost

let test_interact_random_strategy () =
  let items = List.init 40 Fun.id in
  let outcome =
    Threshold_loop.run
      ~rng:(Core.Prng.create 1)
      ~strategy:Core.Interact.random_strategy
      ~oracle:(fun i -> i >= 20)
      ~items ()
  in
  match outcome.query with
  | Some q -> Alcotest.(check int) "still converges" 20 q
  | None -> Alcotest.fail "no candidate"

(* ------------------------------------------------------------------ *)
(* Limit                                                               *)
(* ------------------------------------------------------------------ *)

let test_limit_converges () =
  (* Learner: max of positives seen so far; target 7 with stream containing
     a 7 at position 3 (1-indexed). *)
  let learn xs = match xs with [] -> None | _ -> Some (List.fold_left max 0 xs) in
  let verdict =
    Core.Limit.run ~learn ~equiv:Int.equal ~target:7 ~stream:[ 3; 5; 7; 2; 6 ]
  in
  Alcotest.(check (option int)) "converges at 3" (Some 3) verdict.converged_at;
  Alcotest.(check bool) "converged" true (Core.Limit.converged verdict)

let test_limit_no_convergence () =
  let learn xs = match xs with [] -> None | _ -> Some (List.fold_left max 0 xs) in
  let verdict =
    Core.Limit.run ~learn ~equiv:Int.equal ~target:9 ~stream:[ 1; 2; 3 ]
  in
  Alcotest.(check (option int)) "never" None verdict.converged_at

let test_limit_unstable_hypothesis () =
  (* The hypothesis equals the target mid-stream but moves away again: the
     convergence point must not count it. *)
  let learn xs = Some (List.fold_left ( + ) 0 xs) in
  let verdict =
    Core.Limit.run ~learn ~equiv:Int.equal ~target:6 ~stream:[ 6; -1; 1 ]
  in
  Alcotest.(check (option int)) "only stable convergence counts" (Some 3)
    verdict.converged_at

(* ------------------------------------------------------------------ *)
(* Pac: learning thresholds over integers                              *)
(* ------------------------------------------------------------------ *)

(* Concept: x >= t for t in [0, 100); learner: the smallest positive seen
   (consistent, most specific). *)
let threshold_setup =
  {
    Core.Pac.learn =
      (fun examples ->
        match Core.Example.positives examples with
        | [] -> None
        | xs -> Some (List.fold_left min max_int xs));
    selects = (fun t x -> x >= t);
    sample = (fun rng -> Core.Prng.int rng 100);
    target = (fun x -> x >= 42);
  }

let test_pac_error_of_target () =
  let rng = Core.Prng.create 3 in
  Alcotest.(check (float 1e-9)) "target has zero error" 0.
    (Core.Pac.error threshold_setup rng 42 ~samples:500)

let test_pac_error_of_bad_hypothesis () =
  let rng = Core.Prng.create 4 in
  let e = Core.Pac.error threshold_setup rng 90 ~samples:2000 in
  (* Threshold 90 misclassifies x in [42, 90): about 48%. *)
  Alcotest.(check bool) "substantial error" true (e > 0.3 && e < 0.7)

let test_pac_learning_curve_decreases () =
  let curve =
    Core.Pac.learning_curve threshold_setup ~seed:5 ~sizes:[ 2; 64 ]
      ~trials:10 ~test_samples:300 ()
  in
  match curve with
  | [ small; large ] ->
      Alcotest.(check bool) "more data, less error" true
        (large.mean_error <= small.mean_error);
      Alcotest.(check bool) "large sample near-exact" true
        (large.mean_error < 0.05)
  | _ -> Alcotest.fail "two points expected"

let test_pac_sample_complexity () =
  match
    Core.Pac.sample_complexity threshold_setup ~seed:6 ~epsilon:0.1 ~delta:0.2
      ~trials:10 ~test_samples:300 ()
  with
  | None -> Alcotest.fail "threshold class is PAC-learnable"
  | Some m -> Alcotest.(check bool) "reasonable m" true (m >= 2 && m <= 256)

(* ------------------------------------------------------------------ *)
(* Budget deadlines (monotonic clock)                                  *)
(* ------------------------------------------------------------------ *)

let test_budget_remaining () =
  let b = Core.Budget.create ~timeout:5.0 () in
  (match Core.Budget.remaining b with
  | None -> Alcotest.fail "deadline budget has remaining time"
  | Some r -> Alcotest.(check bool) "within (0, 5]" true (r > 0. && r <= 5.));
  Alcotest.(check (option (float 0.))) "no deadline, no remaining" None
    (Core.Budget.remaining (Core.Budget.unlimited ()))

let test_budget_remaining_expired () =
  let b = Core.Budget.create ~timeout:0.0 () in
  (match Core.Budget.remaining b with
  | None -> Alcotest.fail "deadline budget has remaining time"
  | Some r -> Alcotest.(check bool) "spent" true (r <= 0.));
  Alcotest.(check bool) "exhausted" true (Core.Budget.exhausted b)

(* ------------------------------------------------------------------ *)
(* Retry: backoff, classification, circuit breaker                     *)
(* ------------------------------------------------------------------ *)

let retry_policy ?(max_attempts = 3) ?(breaker_threshold = 5) ?(cooldown = 60.)
    () =
  Core.Retry.policy ~max_attempts ~base_delay:0.001 ~max_delay:0.002
    ~breaker_threshold ~cooldown ~sleep:Core.Retry.no_sleep ()

let test_retry_transient_then_ok () =
  let p = retry_policy ~max_attempts:5 () in
  let b = Core.Retry.breaker p in
  let n = ref 0 in
  let f () = incr n; !n in
  let classify v = if v < 3 then `Transient else `Ok in
  (match Core.Retry.call ~rng:(Core.Prng.create 1) p b ~classify f with
  | Core.Retry.Answered (3, 3) -> ()
  | Core.Retry.Answered (v, a) -> Alcotest.failf "answered (%d, %d)" v a
  | _ -> Alcotest.fail "expected Answered");
  Alcotest.(check bool) "breaker stays closed" true
    (Core.Retry.breaker_state b = Core.Retry.Closed)

let test_retry_gives_up () =
  let p = retry_policy ~max_attempts:3 () in
  let b = Core.Retry.breaker p in
  let n = ref 0 in
  match
    Core.Retry.call ~rng:(Core.Prng.create 1) p b
      ~classify:(fun _ -> `Transient)
      (fun () -> incr n)
  with
  | Core.Retry.Gave_up ((), 3) -> Alcotest.(check int) "3 invocations" 3 !n
  | _ -> Alcotest.fail "expected Gave_up after max_attempts"

let test_retry_permanent_stops () =
  let p = retry_policy ~max_attempts:5 () in
  let b = Core.Retry.breaker p in
  let n = ref 0 in
  match
    Core.Retry.call ~rng:(Core.Prng.create 1) p b
      ~classify:(fun _ -> `Permanent)
      (fun () -> incr n)
  with
  | Core.Retry.Gave_up ((), 1) -> Alcotest.(check int) "1 invocation" 1 !n
  | _ -> Alcotest.fail "permanent reply must not be retried"

let test_retry_breaker_opens () =
  let p = retry_policy ~max_attempts:1 ~breaker_threshold:2 () in
  let b = Core.Retry.breaker p in
  let calls = ref 0 in
  let fail () =
    Core.Retry.call ~rng:(Core.Prng.create 1) p b
      ~classify:(fun _ -> `Transient)
      (fun () -> incr calls)
  in
  ignore (fail ());
  Alcotest.(check bool) "closed below threshold" true
    (Core.Retry.breaker_state b = Core.Retry.Closed);
  ignore (fail ());
  Alcotest.(check bool) "open at threshold" true
    (Core.Retry.breaker_state b = Core.Retry.Open);
  (match fail () with
  | Core.Retry.Rejected -> ()
  | _ -> Alcotest.fail "open breaker must reject");
  Alcotest.(check int) "oracle never invoked when open" 2 !calls

let test_retry_half_open_probe () =
  (* cooldown 0: the breaker is half-open as soon as it opens; a successful
     probe closes it, a failed probe reopens it. *)
  let p = retry_policy ~max_attempts:1 ~breaker_threshold:1 ~cooldown:0. () in
  let b = Core.Retry.breaker p in
  ignore
    (Core.Retry.call ~rng:(Core.Prng.create 1) p b
       ~classify:(fun _ -> `Transient)
       (fun () -> ()));
  Alcotest.(check bool) "half-open after cooldown" true
    (Core.Retry.breaker_state b = Core.Retry.Half_open);
  (match
     Core.Retry.call ~rng:(Core.Prng.create 1) p b
       ~classify:(fun _ -> `Ok)
       (fun () -> "probe")
   with
  | Core.Retry.Answered ("probe", 1) -> ()
  | _ -> Alcotest.fail "half-open breaker allows one probe");
  Alcotest.(check bool) "probe success closes" true
    (Core.Retry.breaker_state b = Core.Retry.Closed)

let test_retry_half_open_failed_probe_reopens () =
  (* Regression: a failed half-open probe must re-open the breaker, not
     flap it closed — the server feeds probe outcomes via breaker_failure. *)
  let p = retry_policy ~max_attempts:1 ~breaker_threshold:1 ~cooldown:0. () in
  let b = Core.Retry.breaker p in
  ignore
    (Core.Retry.call ~rng:(Core.Prng.create 1) p b
       ~classify:(fun _ -> `Transient)
       (fun () -> ()));
  Alcotest.(check bool) "half-open after cooldown" true
    (Core.Retry.breaker_state b = Core.Retry.Half_open);
  (match
     Core.Retry.call ~rng:(Core.Prng.create 1) p b
       ~classify:(fun _ -> `Transient)
       (fun () -> ())
   with
  | Core.Retry.Gave_up ((), 1) -> ()
  | _ -> Alcotest.fail "half-open breaker allows exactly one probe");
  (* cooldown is 0, so a re-opened breaker presents as Half_open again; the
     tell is that the *next* failed probe still only gets one attempt and
     the state never reads Closed. *)
  Alcotest.(check bool) "failed probe does not close" true
    (Core.Retry.breaker_state b <> Core.Retry.Closed);
  Core.Retry.breaker_failure b;
  Alcotest.(check bool) "fed failure keeps it open" true
    (Core.Retry.breaker_state b <> Core.Retry.Closed)

let test_retry_half_open_two_probes () =
  (* half_open_probes = 2: one success is not enough to close; two are. *)
  let p =
    Core.Retry.policy ~max_attempts:1 ~base_delay:0.001 ~max_delay:0.002
      ~breaker_threshold:1 ~cooldown:0. ~half_open_probes:2
      ~sleep:Core.Retry.no_sleep ()
  in
  let b = Core.Retry.breaker p in
  Core.Retry.breaker_failure b;
  Alcotest.(check bool) "open after threshold" true
    (Core.Retry.breaker_state b <> Core.Retry.Closed);
  Core.Retry.breaker_success b;
  Alcotest.(check bool) "one success of two keeps it half-open" true
    (Core.Retry.breaker_state b <> Core.Retry.Closed);
  Core.Retry.breaker_success b;
  Alcotest.(check bool) "second success closes" true
    (Core.Retry.breaker_state b = Core.Retry.Closed);
  (* and a failure mid-probe-count resets: open again, one success is not
     enough afterwards either *)
  Core.Retry.breaker_failure b;
  Core.Retry.breaker_success b;
  Alcotest.(check bool) "probe count resets on failure" true
    (Core.Retry.breaker_state b <> Core.Retry.Closed)

let test_retry_budget_stops_retrying () =
  (* An exhausted budget turns a transient reply into an immediate give-up:
     retrying must never outlive the deadline. *)
  let p = retry_policy ~max_attempts:10 () in
  let b = Core.Retry.breaker p in
  let bud = Core.Budget.create ~timeout:0.0 () in
  let n = ref 0 in
  match
    Core.Retry.call ~budget:bud ~rng:(Core.Prng.create 1) p b
      ~classify:(fun _ -> `Transient)
      (fun () -> incr n)
  with
  | Core.Retry.Gave_up ((), 1) -> Alcotest.(check int) "1 invocation" 1 !n
  | _ -> Alcotest.fail "exhausted budget must stop the retry loop"

(* ------------------------------------------------------------------ *)
(* Flaky: the one simulated user                                       *)
(* ------------------------------------------------------------------ *)

let flaky_truth key = String.length key mod 2 = 0
let flaky_keys = List.init 300 (Printf.sprintf "q%d")

let flaky_user ?attempt ?(refusal = 200) ?(timeout = 100) ?(noise = 100) key =
  Core.Flaky.user ~seed:41 ~truth:flaky_truth ~refusal ~timeout ~noise
    ?attempt key

(* A reply is a pure function of (seed, question), so crash and re-ask in
   any order and the answers never change. *)
let test_flaky_user_keyed () =
  let forward = List.map flaky_user flaky_keys in
  let backward = List.rev (List.map flaky_user (List.rev flaky_keys)) in
  Alcotest.(check bool) "same replies in any call order" true
    (forward = backward);
  Alcotest.(check bool) "refusals, timeouts and noise all drawn" true
    (List.mem Core.Flaky.Refused forward
    && List.mem Core.Flaky.Timed_out forward
    && List.exists2
         (fun k r -> r = Core.Flaky.Label (not (flaky_truth k)))
         flaky_keys forward)

(* A re-issued question re-rolls its refusal and timeout only: some
   question refused at attempt 0 is answered later, and every answer at
   any attempt is the label drawn with no refusal at all.  Zero and full
   rates decide every attempt. *)
let test_flaky_retry_rerolls_refusal_only () =
  let answered k r = r = flaky_user ~refusal:0 ~timeout:0 k in
  let rescued =
    List.filter
      (fun k ->
        let replies = List.init 4 (fun attempt -> flaky_user ~attempt k) in
        List.iteri
          (fun attempt r ->
            let at = flaky_user ~attempt in
            Alcotest.(check bool) ("one answer for " ^ k) true
              ((r = Core.Flaky.Refused || r = Core.Flaky.Timed_out
               || answered k r)
              && at ~refusal:0 ~timeout:0 ~noise:0 k
                 = Core.Flaky.Label (flaky_truth k)
              && at ~refusal:0 ~timeout:0 ~noise:1000 k
                 = Core.Flaky.Label (not (flaky_truth k))
              && at ~refusal:1000 k = Core.Flaky.Refused
              && at ~refusal:0 ~timeout:1000 k = Core.Flaky.Timed_out))
          replies;
        List.hd replies = Core.Flaky.Refused
        && List.exists (answered k) replies)
      flaky_keys
  in
  Alcotest.(check bool) "a retry rescues some refusals" true (rescued <> [])

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Core.Stats.mean [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (float 1e-9)) "median odd" 2. (Core.Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Core.Stats.median [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (float 1e-9)) "empty mean" 0. (Core.Stats.mean []);
  Alcotest.(check (float 1e-9)) "min" 1. (Core.Stats.minimum [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "max" 3. (Core.Stats.maximum [ 3.; 1.; 2. ])

let test_stats_stddev () =
  Alcotest.(check (float 1e-9)) "constant has zero stddev" 0.
    (Core.Stats.stddev [ 5.; 5.; 5. ]);
  Alcotest.(check (float 1e-6)) "known stddev" 2.
    (Core.Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50. (Core.Stats.percentile 0.5 xs);
  Alcotest.(check (float 1e-9)) "p99" 99. (Core.Stats.percentile 0.99 xs)

let test_stats_percentile_edges () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  (* The rank clamp makes the extremes exact, not out-of-range. *)
  Alcotest.(check (float 1e-9)) "p=0 is the minimum" 1.
    (Core.Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p=1 is the maximum" 100.
    (Core.Stats.percentile 1.0 xs);
  Alcotest.(check (float 1e-9)) "empty series" 0.
    (Core.Stats.percentile 0.5 []);
  Alcotest.(check (float 1e-9)) "single sample, p=0" 7.
    (Core.Stats.percentile 0.0 [ 7. ]);
  Alcotest.(check (float 1e-9)) "single sample, p=1" 7.
    (Core.Stats.percentile 1.0 [ 7. ]);
  Alcotest.(check (float 1e-9)) "all equal" 3.
    (Core.Stats.percentile 0.9 [ 3.; 3.; 3.; 3. ])

let test_stats_time () =
  let x, dt = Core.Stats.time (fun () -> 42) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check bool) "non-negative" true (dt >= 0.)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map_preserves_order () =
  let xs = Array.init 1000 Fun.id in
  let expect = Array.map (fun x -> x * x) xs in
  List.iter
    (fun size ->
      let pool = Core.Pool.create size in
      Fun.protect
        ~finally:(fun () -> Core.Pool.shutdown pool)
        (fun () ->
          check
            (Alcotest.array Alcotest.int)
            (Printf.sprintf "input order at size %d" size)
            expect
            (Core.Pool.map_array pool (fun x -> x * x) xs);
          (* The pool is persistent: a second job reuses the same workers. *)
          check
            (Alcotest.list Alcotest.int)
            (Printf.sprintf "reuse at size %d" size)
            (List.init 100 (fun i -> i + 1))
            (Core.Pool.map_list pool succ (List.init 100 Fun.id))))
    [ 1; 2; 4 ]

let test_pool_empty_and_singleton () =
  let pool = Core.Pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Core.Pool.shutdown pool)
    (fun () ->
      check (Alcotest.array Alcotest.int) "empty" [||]
        (Core.Pool.map_array pool succ [||]);
      check (Alcotest.array Alcotest.int) "singleton" [| 8 |]
        (Core.Pool.map_array pool succ [| 7 |]))

let test_pool_exception_propagates () =
  let pool = Core.Pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Core.Pool.shutdown pool)
    (fun () ->
      let xs = Array.init 1000 Fun.id in
      (* Several items raise; the lowest input index must win, so the
         behavior matches the sequential map. *)
      (match
         Core.Pool.map_array pool
           (fun x -> if x >= 500 then failwith (string_of_int x) else x)
           xs
       with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
          check Alcotest.string "lowest-index exception" "500" msg);
      (* The pool survives a failed job. *)
      check (Alcotest.array Alcotest.int) "usable after failure"
        (Array.map succ xs)
        (Core.Pool.map_array pool succ xs))

let test_pool_chunked_deterministic () =
  let xs = Array.init 257 Fun.id in
  let expect = Array.map (fun x -> x * 3) xs in
  List.iter
    (fun size ->
      let pool = Core.Pool.create size in
      Fun.protect
        ~finally:(fun () -> Core.Pool.shutdown pool)
        (fun () ->
          List.iter
            (fun chunk ->
              check
                (Alcotest.array Alcotest.int)
                (Printf.sprintf "pool %d chunk %d" size chunk)
                expect
                (Core.Pool.map_array_chunked pool ~chunk (fun x -> x * 3) xs))
            (* 0 exercises the clamp; 1000 exceeds the input length. *)
            [ 0; 1; 3; 64; 1000 ];
          check
            (Alcotest.array Alcotest.int)
            (Printf.sprintf "empty at pool %d" size)
            [||]
            (Core.Pool.map_array_chunked pool ~chunk:4 succ [||])))
    [ 1; 2; 4 ]

let test_pool_chunked_exception_propagates () =
  let pool = Core.Pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Core.Pool.shutdown pool)
    (fun () ->
      let xs = Array.init 100 Fun.id in
      (match
         Core.Pool.map_array_chunked pool ~chunk:7
           (fun x -> if x >= 40 then failwith (string_of_int x) else x)
           xs
       with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
          check Alcotest.string "lowest-index exception" "40" msg);
      check (Alcotest.array Alcotest.int) "usable after failure"
        (Array.map succ xs)
        (Core.Pool.map_array_chunked pool ~chunk:7 succ xs))

let test_pool_default_resize () =
  let before = Core.Pool.default_size () in
  Fun.protect
    ~finally:(fun () -> Core.Pool.set_default_size before)
    (fun () ->
      Core.Pool.set_default_size 3;
      check Alcotest.int "resized" 3 (Core.Pool.default_size ());
      check Alcotest.int "default pool has the size" 3
        (Core.Pool.size (Core.Pool.default ()));
      Core.Pool.set_default_size 0;
      check Alcotest.int "clamped to 1" 1 (Core.Pool.default_size ());
      Alcotest.(check bool) "recommended size positive" true
        (Core.Pool.recommended_size () >= 1))

let () =
  Alcotest.run "core"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int_in" `Quick test_prng_int_in;
          Alcotest.test_case "invalid bounds" `Quick test_prng_invalid_bounds;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "sample distinct" `Quick test_prng_sample_distinct;
          Alcotest.test_case "sample exhaust" `Quick test_prng_sample_exhaust;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          qcheck prop_prng_int_bounds;
          qcheck prop_prng_chance_extremes;
        ] );
      ( "multiset",
        [
          Alcotest.test_case "basic" `Quick test_multiset_basic;
          Alcotest.test_case "remove" `Quick test_multiset_remove;
          Alcotest.test_case "add count" `Quick test_multiset_add_count;
          Alcotest.test_case "elements" `Quick test_multiset_elements;
          qcheck prop_multiset_sum_cardinal;
          qcheck prop_multiset_subset_refl;
          qcheck prop_multiset_subset_sum;
        ] );
      ( "example",
        [
          Alcotest.test_case "partition" `Quick test_example_partition;
          Alcotest.test_case "consistency" `Quick test_example_consistency;
        ] );
      ( "interact",
        [
          Alcotest.test_case "convergence" `Quick test_interact_convergence;
          Alcotest.test_case "prunes" `Quick test_interact_prunes;
          Alcotest.test_case "max questions" `Quick test_interact_max_questions;
          Alcotest.test_case "cost" `Quick test_interact_cost;
          Alcotest.test_case "random strategy" `Quick test_interact_random_strategy;
        ] );
      ( "limit",
        [
          Alcotest.test_case "converges" `Quick test_limit_converges;
          Alcotest.test_case "no convergence" `Quick test_limit_no_convergence;
          Alcotest.test_case "unstable hypothesis" `Quick test_limit_unstable_hypothesis;
        ] );
      ( "pac",
        [
          Alcotest.test_case "target error" `Quick test_pac_error_of_target;
          Alcotest.test_case "bad hypothesis error" `Quick test_pac_error_of_bad_hypothesis;
          Alcotest.test_case "curve decreases" `Quick test_pac_learning_curve_decreases;
          Alcotest.test_case "sample complexity" `Quick test_pac_sample_complexity;
        ] );
      ( "budget",
        [
          Alcotest.test_case "remaining" `Quick test_budget_remaining;
          Alcotest.test_case "remaining expired" `Quick
            test_budget_remaining_expired;
        ] );
      ( "retry",
        [
          Alcotest.test_case "transient then ok" `Quick
            test_retry_transient_then_ok;
          Alcotest.test_case "gives up" `Quick test_retry_gives_up;
          Alcotest.test_case "permanent stops" `Quick test_retry_permanent_stops;
          Alcotest.test_case "breaker opens" `Quick test_retry_breaker_opens;
          Alcotest.test_case "half-open probe" `Quick test_retry_half_open_probe;
          Alcotest.test_case "failed half-open probe re-opens" `Quick
            test_retry_half_open_failed_probe_reopens;
          Alcotest.test_case "half_open_probes=2 needs two successes" `Quick
            test_retry_half_open_two_probes;
          Alcotest.test_case "budget stops retrying" `Quick
            test_retry_budget_stops_retrying;
        ] );
      ( "flaky",
        [
          Alcotest.test_case "simulated user is keyed by the question" `Quick
            test_flaky_user_keyed;
          Alcotest.test_case "a retry re-rolls only the refusal" `Quick
            test_flaky_retry_rerolls_refusal_only;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick
            test_pool_map_preserves_order;
          Alcotest.test_case "empty and singleton" `Quick
            test_pool_empty_and_singleton;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "chunked determinism" `Quick
            test_pool_chunked_deterministic;
          Alcotest.test_case "chunked exception propagates" `Quick
            test_pool_chunked_exception_propagates;
          Alcotest.test_case "default resize" `Quick test_pool_default_resize;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile edges" `Quick
            test_stats_percentile_edges;
          Alcotest.test_case "time" `Quick test_stats_time;
        ] );
    ]
