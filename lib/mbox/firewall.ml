open Openmb_sim
open Openmb_wire
open Openmb_net
open Openmb_core

type action = Allow | Deny

type rule = { rl_match : Hfl.t; rl_action : action }

type t = {
  base : Mb_base.t;
  table : action State_table.t;  (* verdict cache *)
  verdicts : action Mb_base.perflow;
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
    (* Probe straight from the batch's key columns; a first-seen flow
       is keyed from the packet's own fields. *)
    let entry =
      match
        State_table.find_words t.table ~pa:(Array.unsafe_get ka i) ~pb:(Array.unsafe_get kb i)
      with
      | Some e -> e
      | None -> State_table.add_missing t.table p (evaluate p)
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
  let table = State_table.create ~granularity:Hfl.full_granularity () in
  let t =
    {
      base;
      table;
      verdicts =
        Mb_base.perflow base table ~role:Taxonomy.Supporting
          ~encode:(fun v ->
            Json.to_string (Json.Assoc [ ("verdict", Json.String (action_to_string v)) ]))
          ~decode:(fun s ->
            action_of_string (Json.get_string (Json.member "verdict" (Json.of_string s))));
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

let counters_to_json t =
  Json.Assoc [ ("allowed", Json.Int t.allowed); ("denied", Json.Int t.denied) ]

let impl t =
  let default = Mb_base.default_impl t.base ~support:t.verdicts () in
  {
    default with
    get_report_shared =
      (fun () ->
        t.shared_exported <- true;
        Ok
          (Some
             (Mb_base.seal_json t.base ~role:Taxonomy.Reporting ~partition:Taxonomy.Shared
                ~key:Hfl.any (counters_to_json t))));
    put_report_shared =
      Mb_base.import t.base ~role:Taxonomy.Reporting ~partition:Taxonomy.Shared
        ~decode:(fun s ->
          let j = Json.of_string s in
          (Json.get_int (Json.member "allowed" j), Json.get_int (Json.member "denied" j)))
        (fun _ (allowed, denied) ->
          t.allowed <- t.allowed + allowed;
          t.denied <- t.denied + denied);
    stats =
      (fun hfl ->
        {
          (default.stats hfl) with
          shared_report_bytes = String.length (Json.to_string (counters_to_json t));
        });
  }

let allowed t = t.allowed
let denied t = t.denied
let cached_verdicts t = State_table.size t.table
