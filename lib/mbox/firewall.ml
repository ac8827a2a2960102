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

(* ------------------------------------------------------------------ *)
(* State and configuration descriptions                                *)
(* ------------------------------------------------------------------ *)

let action = Codec.enum (function Allow -> "allow" | Deny -> "deny") [ Allow; Deny ]
let verdict_codec = Codec.(obj (obj1 "verdict" action))
let counters_codec = Codec.(obj (obj2 "allowed" uvarint "denied" uvarint))

let rule_codec =
  Codec.(
    obj
      (record (fun rl_match rl_action -> { rl_match; rl_action })
      |> field "match" Message.hfl (fun r -> r.rl_match)
      |> field "action" action (fun r -> r.rl_action)))

let base t = t.base

let rules t =
  match Config_tree.get (Mb_base.config t.base) [ "rules" ] with
  | [ { values; _ } ] -> List.map (Codec.of_json rule_codec) values
  | _ -> []

let default_action t =
  match Config_tree.get (Mb_base.config t.base) [ "default" ] with
  | [ { values = (Json.String _ as v) :: _; _ } ] -> Codec.of_json action v
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

let create engine ?telemetry ?(cost = default_cost) ?(rules = []) ?(default_action = Allow)
    ~name () =
  let base = Mb_base.create engine ?telemetry ~name ~kind:"fw" ~cost () in
  Config_tree.set (Mb_base.config base) [ "rules" ] (List.map (Codec.to_json rule_codec) rules);
  Config_tree.set (Mb_base.config base) [ "default" ] [ Codec.to_json action default_action ];
  let table = State_table.create ~granularity:Hfl.full_granularity () in
  let t =
    {
      base;
      table;
      verdicts =
        Mb_base.perflow base table ~role:Taxonomy.Supporting
          ~encode:(Codec.encode Framing.Json verdict_codec)
          ~decode:(Codec.decode verdict_codec);
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

(* A rule list or default action that does not parse is refused whole
   and the old one stays, so the packet path never meets it. *)
let set_config set path values =
  let check c = List.iter (fun v -> ignore (Codec.of_json c v)) values in
  match
    match path with [ "rules" ] -> check rule_codec | [ "default" ] -> check action | _ -> ()
  with
  | () -> set path values
  | exception Binary.Decode_error msg -> Error (Errors.Op_failed msg)

let impl t =
  let default = Mb_base.default_impl t.base ~support:t.verdicts () in
  let encode_counters () = Codec.encode Framing.Json counters_codec (t.allowed, t.denied) in
  {
    default with
    set_config = set_config default.set_config;
    get_report_shared =
      (fun () ->
        t.shared_exported <- true;
        Ok
          (Some
             (Mb_base.seal_raw t.base ~role:Taxonomy.Reporting ~partition:Taxonomy.Shared
                ~key:Hfl.any (encode_counters ()))));
    put_report_shared =
      Mb_base.import t.base ~role:Taxonomy.Reporting ~partition:Taxonomy.Shared
        ~decode:(Codec.decode counters_codec)
        (fun _ (allowed, denied) ->
          t.allowed <- t.allowed + allowed;
          t.denied <- t.denied + denied);
    stats =
      (fun hfl ->
        { (default.stats hfl) with shared_report_bytes = Chunk.sealed_size (encode_counters ()) });
  }

let allowed t = t.allowed
let denied t = t.denied
let cached_verdicts t = State_table.size t.table
