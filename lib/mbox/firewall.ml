open Openmb_sim
open Openmb_wire
open Openmb_net
open Openmb_core

type action = Allow | Deny

type rule = { rl_match : Hfl.t; rl_action : action }

type t = {
  base : Mb_base.t;
  table : action State_table.t;  (* verdict cache *)
  mutable allowed : int;
  mutable denied : int;
  mutable shared_exported : bool;
}

let default_cost : Southbound.cost_model =
  {
    per_packet = Time.us 40.0;
    op_slowdown = 1.02;
    scan_per_entry = Time.us 5.0;
    serialize_per_chunk = Time.us 60.0;
    serialize_per_byte = Time.us 0.01;
    deserialize_per_chunk = Time.us 12.0;
    deserialize_per_byte = Time.us 0.004;
  }

let action_to_string = function Allow -> "allow" | Deny -> "deny"

let action_of_string = function
  | "allow" -> Allow
  | "deny" -> Deny
  | s -> invalid_arg (Printf.sprintf "Firewall.action_of_string: %S" s)

let rule_to_json r =
  Json.Assoc
    [
      ("match", Json.String (Hfl.to_string r.rl_match));
      ("action", Json.String (action_to_string r.rl_action));
    ]

let rule_of_json j =
  {
    rl_match = Hfl.of_string (Json.get_string (Json.member "match" j));
    rl_action = action_of_string (Json.get_string (Json.member "action" j));
  }

let base t = t.base

let rules t =
  match Config_tree.get (Mb_base.config t.base) [ "rules" ] with
  | [ { values; _ } ] -> List.map rule_of_json values
  | _ -> []

let default_action t =
  match Config_tree.get (Mb_base.config t.base) [ "default" ] with
  | [ { values = Json.String s :: _; _ } ] -> action_of_string s
  | _ -> Allow

(* The rule list and default action are parsed from the config JSON at
   most once per batch, and only when a member misses the verdict cache.
   Denied members are compacted out in place.  Shared reporting counters
   merge by addition on scale-down, so re-processing (no side effects)
   must not count (§4.1.3). *)
let work t ~side_effects b =
  let hoisted = lazy (rules t, default_action t) in
  let evaluate p =
    let rls, dflt = Lazy.force hoisted in
    let rec scan = function
      | [] -> dflt
      | r :: rest -> if Hfl.matches_packet r.rl_match p then r.rl_action else scan rest
    in
    scan rls
  in
  let n = Packet_batch.length b in
  let ka = Packet_batch.key_a b and kb = Packet_batch.key_b b in
  let allowed = ref 0 and denied = ref 0 in
  for i = 0 to n - 1 do
    let p = Packet_batch.get b i in
    (* Probe straight from the batch's key columns; the tuple is only
       built for first-seen flows. *)
    let entry =
      match
        State_table.find_words t.table ~pa:(Array.unsafe_get ka i) ~pb:(Array.unsafe_get kb i)
      with
      | Some e -> e
      | None -> State_table.add_missing t.table (Five_tuple.of_packet p) (evaluate p)
    in
    (match entry.value with
    | Allow -> incr allowed
    | Deny ->
      incr denied;
      Packet_batch.drop b i);
    if entry.moved then
      Mb_base.raise_event t.base (Event.Reprocess { key = entry.key; packet = p });
    if t.shared_exported then
      Mb_base.raise_event t.base (Event.Reprocess { key = Hfl.any; packet = p })
  done;
  if side_effects then begin
    t.allowed <- t.allowed + !allowed;
    t.denied <- t.denied + !denied;
    ignore (Packet_batch.compact b : int);
    Mb_base.forward_batch t.base b
  end
  else Packet_batch.release b

let create engine ?recorder ?telemetry ?(cost = default_cost) ?(rules = []) ?(default_action = Allow)
    ~name () =
  let base = Mb_base.create engine ?recorder ?telemetry ~name ~kind:"fw" ~cost () in
  Config_tree.set (Mb_base.config base) [ "rules" ] (List.map rule_to_json rules);
  Config_tree.set (Mb_base.config base) [ "default" ]
    [ Json.String (action_to_string default_action) ];
  let t =
    {
      base;
      table = State_table.create ~granularity:Hfl.full_granularity ();
      allowed = 0;
      denied = 0;
      shared_exported = false;
    }
  in
  Mb_base.set_work base (work t);
  t

let receive t p = Mb_base.inject t.base p ~side_effects:true
let receive_batch t b = Mb_base.inject_batch t.base b ~side_effects:true

(* ------------------------------------------------------------------ *)
(* Southbound implementation                                           *)
(* ------------------------------------------------------------------ *)

let chunk_of_entry t (entry : action State_table.entry) =
  Mb_base.seal_json t.base ~role:Taxonomy.Supporting ~partition:Taxonomy.Per_flow
    ~key:entry.key
    (Json.Assoc [ ("verdict", Json.String (action_to_string entry.value)) ])

let get_support_perflow t hfl =
  match Hfl.compatible_with_granularity hfl (State_table.granularity t.table) with
  | false -> Error Errors.Granularity_too_fine
  | true ->
    (* Skip entries an earlier pending transfer already exported. *)
    let entries =
      List.filter
        (fun (e : action State_table.entry) -> not e.moved)
        (State_table.matching t.table hfl)
    in
    List.iter (fun (e : action State_table.entry) -> e.moved <- true) entries;
    State_table.add_move_filter t.table hfl;
    Ok (List.map (chunk_of_entry t) entries)

let put_support_perflow t (chunk : Chunk.t) =
  if chunk.role <> Taxonomy.Supporting || chunk.partition <> Taxonomy.Per_flow then
    Error (Errors.Illegal_operation "expected per-flow supporting chunk")
  else
    match Mb_base.unseal_json t.base chunk with
    | Error e -> Error e
    | Ok json -> (
      match action_of_string (Json.get_string (Json.member "verdict" json)) with
      | verdict ->
        State_table.insert t.table ~key:chunk.key verdict;
        Ok ()
      | exception Invalid_argument msg -> Error (Errors.Bad_chunk msg))

let del_support_perflow t hfl =
  let removed = State_table.remove_moved_matching t.table hfl in
  State_table.remove_move_filter t.table hfl;
  Ok (List.length removed)

let counters_to_json t =
  Json.Assoc [ ("allowed", Json.Int t.allowed); ("denied", Json.Int t.denied) ]

let get_report_shared t () =
  t.shared_exported <- true;
  Ok
    (Some
       (Mb_base.seal_json t.base ~role:Taxonomy.Reporting ~partition:Taxonomy.Shared
          ~key:Hfl.any (counters_to_json t)))

let put_report_shared t (chunk : Chunk.t) =
  if chunk.role <> Taxonomy.Reporting || chunk.partition <> Taxonomy.Shared then
    Error (Errors.Illegal_operation "expected shared reporting chunk")
  else
    match Mb_base.unseal_json t.base chunk with
    | Error e -> Error e
    | Ok json ->
      t.allowed <- t.allowed + Json.get_int (Json.member "allowed" json);
      t.denied <- t.denied + Json.get_int (Json.member "denied" json);
      Ok ()

let stats t hfl =
  let entries = State_table.matching t.table hfl in
  let bytes =
    List.fold_left (fun acc e -> acc + Chunk.size_bytes (chunk_of_entry t e)) 0 entries
  in
  {
    Southbound.empty_stats with
    perflow_support_chunks = List.length entries;
    perflow_support_bytes = bytes;
    shared_report_bytes = String.length (Json.to_string (counters_to_json t));
  }

let impl t =
  let default =
    Mb_base.default_impl t.base ~table_entries:(fun () -> State_table.size t.table)
  in
  {
    default with
    get_support_perflow = get_support_perflow t;
    put_support_perflow = put_support_perflow t;
    del_support_perflow = del_support_perflow t;
    get_report_shared = get_report_shared t;
    put_report_shared = put_report_shared t;
    stats = stats t;
  }

let allowed t = t.allowed
let denied t = t.denied
let cached_verdicts t = State_table.size t.table
