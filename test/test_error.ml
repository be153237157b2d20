(* The robustness layer: budgets, structured errors at the input boundary,
   and fault injection for interactive sessions. *)

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)
(* ------------------------------------------------------------------ *)

let test_budget_fuel () =
  let b = Core.Budget.create ~fuel:10 () in
  for _ = 1 to 9 do
    Core.Budget.tick b
  done;
  Alcotest.(check bool) "not yet exhausted" false (Core.Budget.exhausted b);
  Core.Budget.tick b;
  (* The fuel is spent: the next tick will raise. *)
  Alcotest.(check bool) "spent" true (Core.Budget.exhausted b);
  (match Core.Budget.tick b with
  | exception Core.Budget.Out_of_budget -> ()
  | () -> Alcotest.fail "tick 11 must raise");
  (* Once tripped, every later tick raises too. *)
  match Core.Budget.tick b with
  | exception Core.Budget.Out_of_budget -> ()
  | () -> Alcotest.fail "a tripped budget stays tripped"

let test_budget_cost () =
  let b = Core.Budget.create ~fuel:10 () in
  Core.Budget.tick ~cost:7 b;
  Core.Budget.tick ~cost:3 b;
  match Core.Budget.tick b with
  | exception Core.Budget.Out_of_budget ->
      Alcotest.(check int) "fuel accounted" 11 (Core.Budget.stats b).fuel_spent
  | () -> Alcotest.fail "cost must count against fuel"

let test_budget_timeout () =
  (* A deadline already in the past trips on the first clock check. *)
  let b = Core.Budget.create ~timeout:0.0 () in
  match
    for _ = 1 to 100_000 do
      Core.Budget.tick b
    done
  with
  | exception Core.Budget.Out_of_budget -> ()
  | () -> Alcotest.fail "expired deadline must trip"

let test_budget_cancel () =
  let b = Core.Budget.unlimited () in
  Alcotest.(check bool) "unlimited" true (Core.Budget.is_unlimited b);
  Core.Budget.tick b;
  Core.Budget.cancel b;
  match Core.Budget.tick b with
  | exception Core.Budget.Out_of_budget -> ()
  | () -> Alcotest.fail "cancelled budget must trip"

let test_budget_run () =
  let b = Core.Budget.create ~fuel:5 () in
  (match Core.Budget.run b (fun () -> 42) with
  | Core.Budget.Done 42 -> ()
  | _ -> Alcotest.fail "normal return is Done");
  let acc = ref [] in
  match
    Core.Budget.run b
      ~partial:(fun () -> Some !acc)
      (fun () ->
        for i = 1 to 100 do
          Core.Budget.tick b;
          acc := i :: !acc
        done;
        !acc)
  with
  | Core.Budget.Exhausted { partial = Some [ 5; 4; 3; 2; 1 ]; spent } ->
      Alcotest.(check bool) "spent counted" true (spent.fuel_spent > 5)
  | _ -> Alcotest.fail "exhaustion must surface the partial accumulator"

(* ------------------------------------------------------------------ *)
(* Error values and exit codes                                         *)
(* ------------------------------------------------------------------ *)

let test_position_of_offset () =
  let input = "ab\ncde\nf" in
  let check name offset line column =
    let p = Core.Error.position_of_offset input offset in
    Alcotest.(check (pair int int)) name (line, column) (p.line, p.column)
  in
  check "start" 0 1 1;
  check "before newline" 2 1 3;
  check "after newline" 3 2 1;
  check "last line" 7 3 1;
  check "clamped" 99 3 2

let test_exit_codes () =
  let parse = Core.Error.parse_error ~source:"x" "bad" in
  let inval = Core.Error.invalid_input ~what:"csv" "dup" in
  let spent = Core.Budget.stats (Core.Budget.unlimited ()) in
  let budget = Core.Error.budget_exhausted ~engine:"twig" spent in
  Alcotest.(check int) "parse → 64" 64 (Core.Error.exit_code parse);
  Alcotest.(check int) "invalid → 64" 64 (Core.Error.exit_code inval);
  Alcotest.(check int) "budget → 3" 3 (Core.Error.exit_code budget);
  Alcotest.(check int) "degraded constant" 2 Core.Error.exit_degraded

(* ------------------------------------------------------------------ *)
(* Parser _result variants: structured errors with positions           *)
(* ------------------------------------------------------------------ *)

let error_position = function
  | Error (Core.Error.Parse { position; _ }) -> position
  | Error e -> Alcotest.fail ("unexpected error: " ^ Core.Error.to_string e)
  | Ok _ -> Alcotest.fail "expected an error"

let test_twig_result () =
  (match Twig.Parse.query_result "//a[b]/c" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Core.Error.to_string e));
  match error_position (Twig.Parse.query_result "//a[b") with
  | Some p -> Alcotest.(check int) "column points into the query" 6 p.column
  | None -> Alcotest.fail "twig errors must carry a position"

let test_csv_result_ragged () =
  let csv = "a,b\n1,2\n3\n" in
  match Relational.Csv.parse_result ~name:"t" csv with
  | Ok _ -> Alcotest.fail "ragged row must be rejected"
  | Error (Core.Error.Parse { position = Some p; message; _ }) ->
      Alcotest.(check int) "offending line" 3 p.line;
      Alcotest.(check bool) "message mentions the row" true
        (String.length message > 0)
  | Error e -> Alcotest.fail ("unexpected error: " ^ Core.Error.to_string e)

let test_csv_result_unterminated_and_dup () =
  (match Relational.Csv.parse_result ~name:"t" "a,b\n\"x,2\n" with
  | Error (Core.Error.Parse { position = Some p; _ }) ->
      Alcotest.(check int) "quote error line" 2 p.line
  | _ -> Alcotest.fail "unterminated quote must position its line");
  match Relational.Csv.parse_result ~name:"t" "a,a\n1,2\n" with
  | Error (Core.Error.Parse _) -> ()
  | _ -> Alcotest.fail "duplicate headers must be a structured error"

let test_schema_result () =
  (match Uschema.Schema.parse_result "root: r\nr -> a" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Core.Error.to_string e));
  (match Uschema.Schema.parse_result "not a root line" with
  | Error (Core.Error.Parse { position = Some p; _ }) ->
      Alcotest.(check int) "root error line" 1 p.line
  | _ -> Alcotest.fail "missing root line must be positioned");
  match Uschema.Schema.parse_result "root: r\nr -> a\nbroken rule" with
  | Error (Core.Error.Parse { position = Some p; _ }) ->
      Alcotest.(check int) "rule error line" 3 p.line
  | _ -> Alcotest.fail "missing '->' must be positioned"

(* Arbitrary junk yields Error, never an exception, at every entry point. *)
let prop_results_never_raise =
  QCheck.Test.make ~name:"_result parsers never raise" ~count:300
    QCheck.(string_of_size Gen.(0 -- 30))
    (fun s ->
      let ok = function Ok _ | Error (Core.Error.Parse _) -> true | _ -> false in
      ok (Twig.Parse.query_result s)
      && ok (Relational.Csv.parse_result ~name:"t" s)
      && ok (Uschema.Schema.parse_result s))

(* ------------------------------------------------------------------ *)
(* Flaky oracles and sessions that survive them                        *)
(* ------------------------------------------------------------------ *)

let test_flaky_profile_validation () =
  (match Core.Flaky.profile ~noise:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "noise > 1 must be rejected");
  match Core.Flaky.profile ~refusal:0.7 ~timeout:0.7 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "refusal + timeout > 1 must be rejected"

let join_instance seed =
  let rng = Core.Prng.create seed in
  Relational.Generator.pair_instance ~rng ~left_rows:6 ~right_rows:6 ()

let test_session_survives_refusals () =
  let inst = join_instance 11 in
  let space =
    Joinlearn.Signature.space
      ~left_arity:(Relational.Relation.arity inst.left)
      ~right_arity:(Relational.Relation.arity inst.right)
  in
  let outcome =
    Joinlearn.Interactive.Loop.run_flaky
      ~oracle:(fun _ -> Core.Flaky.Refused)
      ~items:(Joinlearn.Interactive.items_of space inst.left inst.right)
      ()
  in
  Alcotest.(check int) "nothing asked" 0 outcome.questions;
  Alcotest.(check bool) "refusals counted" true (outcome.refused > 0);
  Alcotest.(check bool) "still produces a candidate" true
    (outcome.query <> None)

let test_session_budget_degrades () =
  let inst = join_instance 12 in
  let budget = Core.Budget.create ~fuel:3 () in
  let outcome =
    Joinlearn.Interactive.run_with_goal ~budget ~left:inst.left
      ~right:inst.right ~goal:inst.planted ()
  in
  Alcotest.(check bool) "degraded flag" true outcome.degraded

(* ------------------------------------------------------------------ *)
(* Join fallback: exact → robust under budget/inconsistency            *)
(* ------------------------------------------------------------------ *)

let test_join_fallback () =
  let inst = join_instance 13 in
  let space =
    Joinlearn.Signature.space
      ~left_arity:(Relational.Relation.arity inst.left)
      ~right_arity:(Relational.Relation.arity inst.right)
  in
  let goal = Joinlearn.Signature.of_predicate space inst.planted in
  let examples =
    Joinlearn.Interactive.items_of space inst.left inst.right
    |> List.map (fun (it : Joinlearn.Interactive.item) ->
           Core.Example.of_labeled
             (it.mask, Joinlearn.Signature.subset goal it.mask))
  in
  let exact = Joinlearn.Fallback.learn space examples in
  Alcotest.(check bool) "consistent sample: exact rung" false exact.degraded;
  Alcotest.(check int) "no training errors" 0 exact.training_errors;
  let starved = Joinlearn.Fallback.learn ~budget:(Core.Budget.create ~fuel:0 ()) space examples in
  Alcotest.(check bool) "starved budget: robust rung" true starved.degraded

let () =
  Alcotest.run "error"
    [
      ( "budget",
        [
          Alcotest.test_case "fuel" `Quick test_budget_fuel;
          Alcotest.test_case "cost" `Quick test_budget_cost;
          Alcotest.test_case "timeout" `Quick test_budget_timeout;
          Alcotest.test_case "cancel" `Quick test_budget_cancel;
          Alcotest.test_case "run/partial" `Quick test_budget_run;
        ] );
      ( "error",
        [
          Alcotest.test_case "position_of_offset" `Quick test_position_of_offset;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
        ] );
      ( "parsers",
        [
          Alcotest.test_case "twig result" `Quick test_twig_result;
          Alcotest.test_case "csv ragged" `Quick test_csv_result_ragged;
          Alcotest.test_case "csv quote/dup" `Quick
            test_csv_result_unterminated_and_dup;
          Alcotest.test_case "schema result" `Quick test_schema_result;
          qcheck prop_results_never_raise;
        ] );
      ( "flaky",
        [
          Alcotest.test_case "profile validation" `Quick
            test_flaky_profile_validation;
          Alcotest.test_case "session survives refusals" `Quick
            test_session_survives_refusals;
          Alcotest.test_case "session budget degrades" `Quick
            test_session_budget_degrades;
        ] );
      ( "fallback",
        [ Alcotest.test_case "join exact→robust" `Quick test_join_fallback ] );
    ]
