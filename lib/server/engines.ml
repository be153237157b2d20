module Error = Core.Error

type spec = {
  engine : string;
  seed : int;
  scale : float;
  rows : int;
  cities : int;
}

let default_spec = { engine = "twig"; seed = 0; scale = 0.1; rows = 12; cities = 12 }

let config_of_spec s =
  Printf.sprintf "engine=%s seed=%d scale=%g rows=%d cities=%d" s.engine s.seed
    s.scale s.rows s.cities

let valid_engine = function "twig" | "join" | "path" -> true | _ -> false

(* Instance-size ceilings.  Specs arrive over the wire (POST /v1/sessions)
   and are replayed verbatim from journal headers at startup, so both entry
   points must bound them: an unbounded [rows] or [scale] lets one request
   allocate a pool domain to death — and, once persisted in a header, crash
   the daemon again on every recovery until the journal is deleted. *)
let max_scale = 2.0
let max_rows = 512
let max_cities = 512

let validate s =
  if not (valid_engine s.engine) then
    Error (Printf.sprintf "unknown engine %S (twig|join|path)" s.engine)
  else if not (Float.is_finite s.scale && s.scale > 0. && s.scale <= max_scale)
  then
    Error
      (Printf.sprintf "scale must be in (0, %g], got %g" max_scale s.scale)
  else if s.rows < 1 || s.rows > max_rows then
    Error (Printf.sprintf "rows must be in [1, %d], got %d" max_rows s.rows)
  else if s.cities < 1 || s.cities > max_cities then
    Error
      (Printf.sprintf "cities must be in [1, %d], got %d" max_cities s.cities)
  else Ok s

let spec_of_config line =
  let kvs =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  in
  let rec fold spec = function
    | [] -> validate spec
    | kv :: rest -> (
        match String.index_opt kv '=' with
        | None -> Error (Printf.sprintf "bad config token %S" kv)
        | Some i -> (
            let k = String.sub kv 0 i in
            let v = String.sub kv (i + 1) (String.length kv - i - 1) in
            let int_v f =
              match int_of_string_opt v with
              | Some n -> fold (f n) rest
              | None -> Error (Printf.sprintf "bad config value %S" kv)
            in
            match k with
            | "engine" -> fold { spec with engine = v } rest
            | "seed" -> int_v (fun n -> { spec with seed = n })
            | "scale" -> (
                match float_of_string_opt v with
                | Some f -> fold { spec with scale = f } rest
                | None -> Error (Printf.sprintf "bad config value %S" kv))
            | "rows" -> int_v (fun n -> { spec with rows = n })
            | "cities" -> int_v (fun n -> { spec with cities = n })
            | _ -> Error (Printf.sprintf "unknown config key %S" k)))
  in
  fold default_spec kvs

let spec_of_json j =
  let d = default_spec in
  validate
    {
      engine = Option.value ~default:d.engine (Json.get_str "engine" j);
      seed = Option.value ~default:d.seed (Json.get_int "seed" j);
      scale = Option.value ~default:d.scale (Json.get_num "scale" j);
      rows = Option.value ~default:d.rows (Json.get_int "rows" j);
      cities = Option.value ~default:d.cities (Json.get_int "cities" j);
    }

let json_of_spec s =
  Json.Obj
    [
      ("engine", Json.Str s.engine);
      ("seed", Json.of_int s.seed);
      ("scale", Json.Num s.scale);
      ("rows", Json.of_int s.rows);
      ("cities", Json.of_int s.cities);
    ]

let header_of_spec s =
  {
    Core.Journal.seed = s.seed;
    engine = "serve-" ^ s.engine;
    config = config_of_spec s;
  }

(* Instance construction is deterministic in the spec — the resurrection
   guarantee: a journal header's config line regenerates the exact pool the
   dead process was asking about. *)

let twig_doc s = Benchkit.Xmark.generate ~scale:s.scale ~seed:s.seed ()

let join_instance s =
  let rng = Core.Prng.create s.seed in
  Relational.Generator.pair_instance ~rng ~left_rows:s.rows
    ~right_rows:s.rows ()

let path_graph s =
  let rng = Core.Prng.create s.seed in
  Graphdb.Generators.geo ~rng ~cities:s.cities ()

let path_items s g =
  let rng = Core.Prng.create (s.seed + 1) in
  Pathlearn.Interactive.items_of_graph ~max_len:3 ~rng g

module Twig_stepper = Stepper.Make (Twiglearn.Interactive.Session)
module Join_stepper = Stepper.Make (Joinlearn.Interactive.Session)
module Path_stepper = Stepper.Make (Pathlearn.Interactive.Session)

let make ?journal ?resume ?step_budget ?checkpoint_every s =
  match s.engine with
  | "twig" ->
      let doc = twig_doc s in
      Twig_stepper.make ?journal ?resume ?step_budget ?checkpoint_every
        ~snapshot:Twiglearn.Interactive.encode_state
        ~restore:(Twiglearn.Interactive.decode_state ~doc)
        ~engine:s.engine
        ~encode:Twiglearn.Interactive.encode_item
        ~decode:(Twiglearn.Interactive.decode_item ~doc)
        ~items:(Twiglearn.Interactive.items_of_doc doc)
        ()
  | "join" ->
      let inst = join_instance s in
      let left = inst.Relational.Generator.left and right = inst.right in
      let space =
        Joinlearn.Signature.space
          ~left_arity:(Relational.Relation.arity left)
          ~right_arity:(Relational.Relation.arity right)
      in
      Join_stepper.make ?journal ?resume ?step_budget ?checkpoint_every
        ~snapshot:Joinlearn.Interactive.encode_state
        ~restore:(Joinlearn.Interactive.decode_state ~left ~right)
        ~engine:s.engine
        ~encode:(Joinlearn.Interactive.encode_item ~left ~right)
        ~decode:(Joinlearn.Interactive.decode_item ~left ~right)
        ~items:(Joinlearn.Interactive.items_of space left right)
        ()
  | "path" ->
      let g = path_graph s in
      Path_stepper.make ?journal ?resume ?step_budget ?checkpoint_every
        ~snapshot:Pathlearn.Interactive.encode_state
        ~restore:Pathlearn.Interactive.decode_state ~engine:s.engine
        ~encode:Pathlearn.Interactive.encode_item
        ~decode:Pathlearn.Interactive.decode_item ~items:(path_items s g) ()
  | e ->
      Error
        (Error.invalid_input ~what:"engine"
           (Printf.sprintf "unknown engine %S (twig|join|path)" e))

let oracle s ~goal =
  match s.engine with
  | "twig" -> (
      match Twig.Parse.query_result ~source:"goal" goal with
      | Error _ as e -> e
      | Ok q ->
          let doc = twig_doc s in
          Ok
            (fun key ->
              match Twiglearn.Interactive.decode_item ~doc key with
              | Some node -> Twig.Eval.selects_example q node
              | None -> false))
  | "join" ->
      if goal <> "planted" then
        Error
          (Error.invalid_input ~what:"goal"
             "join goals must be \"planted\" (the instance's hidden predicate)")
      else
        let inst = join_instance s in
        let left = inst.Relational.Generator.left and right = inst.right in
        Ok
          (fun key ->
            match Joinlearn.Interactive.decode_item ~left ~right key with
            | Some it ->
                Relational.Algebra.satisfies inst.planted it.Joinlearn.Interactive.left
                  it.Joinlearn.Interactive.right
            | None -> false)
  | "path" -> (
      match Automata.Regex.parse goal with
      | re ->
          let dfa = Automata.Dfa.of_regex re in
          Ok
            (fun key ->
              match Pathlearn.Interactive.decode_item key with
              | Some it ->
                  Automata.Dfa.accepts dfa it.Pathlearn.Interactive.word
              | None -> false)
      | exception _ ->
          Error
            (Error.invalid_input ~what:"goal"
               (Printf.sprintf "unparsable path regex %S" goal)))
  | e ->
      Error
        (Error.invalid_input ~what:"engine"
           (Printf.sprintf "unknown engine %S" e))
