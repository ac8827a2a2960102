open Openmb_sim

type t = {
  shards : int;
  routes : Shard.route array array; (* routes.(src).(dst) *)
  placed : int array;
}

let create se =
  let shards = Sharded_engine.shards se in
  let routes =
    Array.init shards (fun src ->
        let s = Sharded_engine.shard se src in
        Array.init shards (fun dst -> Shard.route_to s ~dst))
  in
  { shards; routes; placed = Array.make shards 0 }

let shards t = t.shards
let owner t k = Five_tuple.packed_canonical_hash k mod t.shards

let place t k =
  let o = owner t k in
  t.placed.(o) <- t.placed.(o) + 1;
  o

let route t ~src ~dst = t.routes.(src).(dst)

let placements t = Array.copy t.placed

let skew t =
  let total = Array.fold_left ( + ) 0 t.placed in
  if total = 0 then Float.nan
  else
    let mean = float_of_int total /. float_of_int t.shards in
    let mx = Array.fold_left max 0 t.placed in
    float_of_int mx /. mean
