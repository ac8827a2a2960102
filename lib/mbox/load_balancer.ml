open Openmb_sim
open Openmb_wire
open Openmb_net
open Openmb_core

type policy = Round_robin | Least_conn | Source_hash

type t = {
  base : Mb_base.t;
  policy : policy;
  table : Addr.t State_table.t;  (* flow key -> backend *)
  assigned : Addr.t Mb_base.perflow;
  mutable backends : Addr.t array;
  mutable rr_next : int;
}

let lb_granularity = Hfl.[ Dim_src_ip; Dim_src_port ]

let default_cost : Southbound.cost_model =
  {
    per_packet = Time.us 50.0;
    op_slowdown = 1.02;
    scan_per_entry = Time.us 8.0;
    serialize_per_chunk = Time.us 80.0;
    serialize_per_byte = Time.us 0.02;
    deserialize_per_chunk = Time.us 15.0;
    deserialize_per_byte = Time.us 0.005;
  }

let policy_to_string = function
  | Round_robin -> "round_robin"
  | Least_conn -> "least_conn"
  | Source_hash -> "source_hash"

let base t = t.base

(* A flow's backend: its per-flow state and its [lb.new_assignment] info. *)
let backend_codec = Codec.(obj (obj1 "backend" Message.addr))

let backend_load t =
  let counts = Hashtbl.create 8 in
  Array.iter (fun b -> Hashtbl.replace counts b 0) t.backends;
  State_table.iter t.table (fun e ->
      let c = match Hashtbl.find_opt counts e.value with Some c -> c | None -> 0 in
      Hashtbl.replace counts e.value (c + 1));
  Array.to_list (Array.map (fun b -> (b, Hashtbl.find counts b)) t.backends)

let pick_backend t (p : Packet.t) =
  match t.policy with
  | Round_robin ->
    let b = t.backends.(t.rr_next mod Array.length t.backends) in
    t.rr_next <- t.rr_next + 1;
    b
  | Least_conn ->
    let load = backend_load t in
    let best, _ =
      List.fold_left
        (fun (bb, bc) (b, c) -> if c < bc then (b, c) else (bb, bc))
        (t.backends.(0), max_int)
        load
    in
    best
  | Source_hash ->
    (* Avalanche the (src ip, src port) word with the packed-key mixer —
       no string or tuple allocation, and sequential client ports spread
       evenly across backends. *)
    let h = Five_tuple.hash_words ~pa:(Five_tuple.word_a_packet p) ~pb:0 in
    t.backends.(h mod Array.length t.backends)

let new_assignment_code = "lb.new_assignment"

(* The assignment is announced only when the agent's filter admits it;
   the rewritten copy is returned bare ({!Mb_base.process_batch}). *)
let process t (p : Packet.t) ~side_effects =
  let entry =
    match
      State_table.find_words t.table ~pa:(Five_tuple.word_a_packet p)
        ~pb:(Five_tuple.word_b_packet p)
    with
    | Some e -> e
    | None ->
      let e = State_table.add_missing t.table p (pick_backend t p) in
      if side_effects && Mb_base.introspects t.base ~code:new_assignment_code ~key:e.key
      then
        Mb_base.raise_event t.base
          (Event.Introspect
             {
               code = new_assignment_code;
               key = e.key;
               info = Codec.to_json backend_codec e.value;
             });
      e
  in
  if entry.moved then
    Mb_base.raise_event t.base (Event.Reprocess { key = entry.key; packet = p });
  if side_effects then { p with dst_ip = entry.value } else p

let create engine ?telemetry ?(cost = default_cost) ?(policy = Round_robin) ~backends
    ~name () =
  if backends = [] then invalid_arg "Load_balancer.create: no backends";
  let base = Mb_base.create engine ?telemetry ~name ~kind:"lb" ~cost () in
  Config_tree.set (Mb_base.config base) [ "backends" ]
    (List.map (fun a -> Json.String (Addr.to_string a)) backends);
  Config_tree.set (Mb_base.config base) [ "policy" ]
    [ Json.String (policy_to_string policy) ];
  let table = State_table.create ~granularity:lb_granularity () in
  let t =
    {
      base;
      policy;
      table;
      assigned =
        Mb_base.perflow base table ~role:Taxonomy.Supporting
          ~encode:(Codec.encode Framing.Json backend_codec)
          ~decode:(Codec.decode backend_codec);
      backends = Array.of_list backends;
      rr_next = 0;
    }
  in
  Mb_base.set_work base (Mb_base.process_batch base process t);
  t

let receive t p = Mb_base.inject t.base p ~side_effects:true
let receive_batch t b = Mb_base.inject_batch t.base b ~side_effects:true

(* ------------------------------------------------------------------ *)
(* Southbound implementation                                           *)
(* ------------------------------------------------------------------ *)

let set_config t path values =
  let stored =
    match Config_tree.set (Mb_base.config t.base) path values with
    | () -> Ok ()
    | exception Invalid_argument msg -> Error (Errors.Op_failed msg)
  in
  match (stored, path) with
  | Ok (), [ "backends" ] -> (
    match
      List.map
        (function
          | Json.String s -> Addr.of_string s
          | _ -> invalid_arg "backends must be address strings")
        values
    with
    | [] -> Error (Errors.Op_failed "backends must be non-empty")
    | backends ->
      t.backends <- Array.of_list backends;
      Ok ()
    | exception Invalid_argument msg -> Error (Errors.Op_failed msg))
  | result, _ -> result

let impl t =
  { (Mb_base.default_impl t.base ~support:t.assigned ()) with set_config = set_config t }

let assignments t = State_table.fold t.table ~init:[] ~f:(fun acc e -> (e.key, e.value) :: acc)
let assignment_count t = State_table.size t.table
