open Openmb_sim
open Openmb_wire
open Openmb_net
open Openmb_core

type t = {
  scenario : Scenario.t;
  mb : string;
  mirror : (string, Json.t) Hashtbl.t;  (* key string -> critical info *)
}

let log_step scenario step =
  let tel = Scenario.telemetry scenario in
  if Telemetry.timeline tel then
    Telemetry.instant tel ~now:(Engine.now (Scenario.engine scenario)) ~actor:"failover-app"
      ~name:"step" ~detail:step ()

let watch scenario ~mb ~codes () =
  let t = { scenario; mb; mirror = Hashtbl.create 64 } in
  Controller.subscribe_introspection (Scenario.controller scenario) ~mb ~codes
    ~key:Hfl.any
    ~handler:(fun ev ->
      match ev with
      | Event.Introspect { key; info; _ } ->
        Hashtbl.replace t.mirror (Hfl.to_string key) info
      | Event.Reprocess _ -> ())
    ();
  t

let tracked t = Hashtbl.length t.mirror

type recovery = { restored : int; rerouted_at : Time.t }

let fail_over t ~replacement ~dst_port ?(on_done = fun _ -> ()) () =
  let ctrl = Scenario.controller t.scenario in
  log_step t.scenario (Printf.sprintf "instance %s failed; restoring %d records" t.mb
       (Hashtbl.length t.mirror));
  Controller.disconnect ctrl t.mb;
  let infos = Hashtbl.fold (fun _ info acc -> info :: acc) t.mirror [] in
  let restored = List.length infos in
  (* Critical state re-enters through the replacement's configuration
     interface; non-critical fields revert to defaults (§2). *)
  Controller.write_config ctrl ~dst:replacement ~key:[ "static_mappings" ] ~values:infos
    ~on_done:(fun res ->
      match res with
      | Error e -> failwith (Printf.sprintf "failover: restore failed: %s" (Errors.to_string e))
      | Ok () ->
        log_step t.scenario "rerouting to replacement";
        Scenario.route t.scenario ~match_:Hfl.any ~port:dst_port
          ~on_done:(fun () ->
            on_done { restored; rerouted_at = Engine.now (Scenario.engine t.scenario) })
          ())
