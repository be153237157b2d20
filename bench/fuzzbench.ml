(* Fuzzing-harness throughput (PR 5): cases per second for every
   differential oracle at the CI configuration (seed 42, sizes 1–10).

   The number that matters operationally is how many iterations the
   fuzz-smoke CI lane can afford: this bench writes per-oracle rates to
   BENCH_PR5.json so the lane's --iters budget is sized from data rather
   than folklore.  A green run is also asserted — a failing oracle would
   make its rate meaningless (the runner stops an oracle at its first
   counterexample). *)

let iters = 60
let seed = 42

let run () =
  let rows =
    List.map
      (fun oracle ->
        let name = Fuzz.Oracle.name oracle in
        let report, elapsed =
          Util.time (fun () ->
              Fuzz.Runner.run ~oracles:[ oracle ] ~iters ~seed ())
        in
        let stats = List.hd report.Fuzz.Runner.stats in
        let rate =
          if elapsed > 0.0 then float_of_int stats.Fuzz.Runner.runs /. elapsed
          else infinity
        in
        Printf.printf "%-18s %6d cases  %8.1f cases/s%s\n%!" name
          stats.Fuzz.Runner.runs rate
          (if stats.Fuzz.Runner.failures > 0 then "  COUNTEREXAMPLE" else "");
        (name, stats.Fuzz.Runner.failures, rate))
      Fuzz.Oracle.all
  in
  let all_green = List.for_all (fun (_, failures, _) -> failures = 0) rows in
  let oc = open_out "BENCH_PR5.json" in
  Printf.fprintf oc "{\n  \"iters\": %d,\n  \"seed\": %d,\n" iters seed;
  Printf.fprintf oc "  \"all_oracles_green\": %b,\n  \"cases_per_sec\": {\n"
    all_green;
  List.iteri
    (fun i (name, _, rate) ->
      Printf.fprintf oc "    %S: %.1f%s\n" name rate
        (if i < List.length rows - 1 then "," else ""))
    rows;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_PR5.json (all green: %b)\n%!" all_green
