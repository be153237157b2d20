type t = { stores : Store.t array }

let of_trees ?pool trees =
  match pool with
  | None -> { stores = Array.map Store.of_tree trees }
  | Some p -> { stores = Core.Pool.map_array p Store.of_tree trees }

let shards t = Array.length t.stores
let store t i = t.stores.(i)

let total_nodes t =
  Array.fold_left (fun acc s -> acc + Store.size s) 0 t.stores

let map ?pool ?(chunk = 1) t f =
  let idx = Array.init (shards t) Fun.id in
  match pool with
  | None -> Array.map (fun i -> f i t.stores.(i)) idx
  | Some p ->
      Core.Pool.map_array_chunked p ~chunk (fun i -> f i t.stores.(i)) idx

let select ?pool t pat =
  map ?pool t (fun _ s -> Twigjoin.select_ids s pat)
