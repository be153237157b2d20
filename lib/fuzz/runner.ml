type stats = { oracle : string; runs : int; failures : int }
type counterexample = { artifact : Artifact.t; path : string option }

type report = {
  stats : stats list;
  counterexamples : counterexample list;
  interrupted : bool;
}

(* Stable string hash (FNV-1a, truncated): per-oracle seed derivation must
   not depend on [Hashtbl.hash]'s compiler-version-specific behavior, or
   recorded artifacts would stop replaying across toolchains. *)
let fnv s =
  String.fold_left
    (fun h c -> (h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    0x811C9DC5 s

let safe_check check x =
  match check x with
  | r -> r
  | exception Core.Budget.Out_of_budget -> raise Core.Budget.Out_of_budget
  | exception e -> Error ("exception: " ^ Printexc.to_string e)

let m_cases = Core.Telemetry.Metrics.counter "learnq.fuzz.cases"
let m_failures = Core.Telemetry.Metrics.counter "learnq.fuzz.failures"
let m_shrink_steps = Core.Telemetry.Metrics.counter "learnq.fuzz.shrink_steps"

let run_oracle (Oracle.Spec o) ~budget ~dir ~max_size ~iters ~seed =
  Core.Telemetry.with_span ("fuzz." ^ o.Oracle.name) @@ fun () ->
  let stream = Core.Prng.create (seed + fnv o.Oracle.name) in
  let runs = ref 0 in
  let result = ref None in
  (try
     for i = 0 to iters - 1 do
       if !result = None then begin
         Core.Budget.tick budget;
         incr runs;
         Core.Telemetry.Metrics.incr m_cases;
         let case_seed =
           Int64.to_int (Core.Prng.next_int64 stream) land max_int
         in
         let size = 1 + (i mod max_size) in
         let g = Core.Prng.create case_seed in
         match o.Oracle.generate g ~size with
         | exception e ->
             result :=
               Some
                 { Artifact.oracle = o.Oracle.name;
                   seed = case_seed;
                   size;
                   steps = 0;
                   shrunk_size = 0;
                   reason = "generator raised: " ^ Printexc.to_string e;
                   input = "<generator raised before producing an input>";
                 }
         | x -> (
             match safe_check o.Oracle.check x with
             | Ok () -> ()
             | Error reason0 ->
                 let still_failing y =
                   Result.is_error (safe_check o.Oracle.check y)
                 in
                 let shrunk, steps =
                   Shrink.minimize ~candidates:o.Oracle.candidates
                     ~still_failing x
                 in
                 Core.Telemetry.Metrics.incr ~by:steps m_shrink_steps;
                 let reason =
                   match safe_check o.Oracle.check shrunk with
                   | Error r -> r
                   | Ok () -> reason0
                 in
                 result :=
                   Some
                     { Artifact.oracle = o.Oracle.name;
                       seed = case_seed;
                       size;
                       steps;
                       shrunk_size = o.Oracle.size_of shrunk;
                       reason;
                       input = o.Oracle.print shrunk;
                     })
       end
     done;
     Ok ()
   with Core.Budget.Out_of_budget -> Error ())
  |> fun outcome ->
  let failure =
    match !result with
    | None -> []
    | Some artifact ->
        Core.Telemetry.Metrics.incr m_failures;
        Core.Telemetry.Log.warn
          ~kv:
            [ ("oracle", o.Oracle.name);
              ("seed", string_of_int artifact.Artifact.seed);
              ("shrunk_size", string_of_int artifact.Artifact.shrunk_size);
            ]
          ("fuzz counterexample: " ^ artifact.Artifact.reason);
        let path = Option.map (fun d -> Artifact.write ~dir:d artifact) dir in
        [ { artifact; path } ]
  in
  ( { oracle = o.Oracle.name; runs = !runs; failures = List.length failure },
    failure,
    Result.is_error outcome )

let run_sequential ~oracles ~budget ~dir ~max_size ~iters ~seed =
  let interrupted = ref false in
  let stats, cexs =
    List.fold_left
      (fun (stats, cexs) oracle ->
        if !interrupted then (stats, cexs)
        else
          let st, cex, hit_budget =
            run_oracle oracle ~budget ~dir ~max_size ~iters ~seed
          in
          if hit_budget then interrupted := true;
          (st :: stats, cex @ cexs))
      ([], []) oracles
  in
  { stats = List.rev stats;
    counterexamples = List.rev cexs;
    interrupted = !interrupted;
  }

(* Parallel mode: oracles are independent jobs — each owns its PRNG
   stream (derived from the master seed and its name, exactly as in
   sequential mode), its own temp files, and its own Domain.DLS caches —
   so running them on a pool changes nothing about any oracle's cases.
   Oracles flagged {!Oracle.serial} mutate process-global state and run
   on the calling domain after the parallel batch.  Stats keep the
   input oracle order.  The only observable difference from jobs=1 is
   under a budget: sequential mode stops scheduling oracles once the
   fuel runs out, while parallel mode reports a (possibly interrupted)
   entry for every oracle. *)
let run_parallel ~oracles ~budget ~dir ~max_size ~iters ~seed ~jobs =
  let arr = Array.of_list oracles in
  let results = Array.make (Array.length arr) None in
  let parallel, serial =
    List.partition
      (fun i -> not (Oracle.serial arr.(i)))
      (List.init (Array.length arr) Fun.id)
  in
  let pool = Core.Pool.create jobs in
  Fun.protect
    ~finally:(fun () -> Core.Pool.shutdown pool)
    (fun () ->
      let par = Array.of_list parallel in
      let out =
        Core.Pool.map_array pool
          (fun i -> run_oracle arr.(i) ~budget ~dir ~max_size ~iters ~seed)
          par
      in
      Array.iteri (fun k i -> results.(i) <- Some out.(k)) par;
      List.iter
        (fun i ->
          results.(i) <-
            Some (run_oracle arr.(i) ~budget ~dir ~max_size ~iters ~seed))
        serial);
  let stats = ref [] and cexs = ref [] and interrupted = ref false in
  for i = Array.length arr - 1 downto 0 do
    match results.(i) with
    | None -> ()
    | Some (st, cex, hit_budget) ->
        if hit_budget then interrupted := true;
        stats := st :: !stats;
        cexs := cex @ !cexs
  done;
  { stats = !stats; counterexamples = !cexs; interrupted = !interrupted }

let run ?(oracles = Oracle.all) ?budget ?dir ?(max_size = 10) ?(jobs = 1)
    ~iters ~seed () =
  let budget =
    match budget with Some b -> b | None -> Core.Budget.unlimited ()
  in
  if jobs <= 1 then run_sequential ~oracles ~budget ~dir ~max_size ~iters ~seed
  else run_parallel ~oracles ~budget ~dir ~max_size ~iters ~seed ~jobs

let replay (a : Artifact.t) =
  match Oracle.find a.Artifact.oracle with
  | None -> `Unknown_oracle a.Artifact.oracle
  | Some (Oracle.Spec o) -> (
      let g = Core.Prng.create a.Artifact.seed in
      match o.Oracle.generate g ~size:a.Artifact.size with
      | exception e -> `Failed ("generator raised: " ^ Printexc.to_string e)
      | x -> (
          match safe_check o.Oracle.check x with
          | Ok () -> `Passed
          | Error r -> `Failed r))
