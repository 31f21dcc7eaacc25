type t = { router : Router.t; replicas : Rta.t array }

let create ?config ?pool_capacity ~router () =
  let max_key = Router.max_key router in
  {
    router;
    replicas =
      Array.init (Router.shards router) (fun _ ->
          Rta.create ?config ?pool_capacity ~max_key ());
  }

let of_replicas ~router replicas =
  if Array.length replicas <> Router.shards router then
    invalid_arg "Warehouse.of_replicas: shard count mismatch";
  { router; replicas }

let router t = t.router
let replica t i = t.replicas.(i)

let apply_to t ~shard op =
  let r = t.replicas.(shard) in
  match op with
  | Op.Insert { key; value; at } -> Rta.insert r ~key ~value ~at
  | Op.Delete { key; at } -> Rta.delete r ~key ~at

let apply t op = apply_to t ~shard:(Router.shard_of_key t.router (Op.key op)) op

let watermarks t = Array.map Rta.n_updates t.replicas

let sum_count t ~klo ~khi ~tlo ~thi =
  Plan.query t.router
    (fun ~shard ~klo ~khi -> Rta.sum_count t.replicas.(shard) ~klo ~khi ~tlo ~thi)
    ~klo ~khi

let avg t ~klo ~khi ~tlo ~thi =
  let sum, count = sum_count t ~klo ~khi ~tlo ~thi in
  Plan.avg ~sum ~count

let page_touches t =
  Array.fold_left (fun acc r -> acc + Rta.page_touches r) 0 t.replicas
