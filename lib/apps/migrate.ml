open Openmb_sim
open Openmb_wire
open Openmb_net
open Openmb_core

type result = {
  move : Controller.move_result option;
  routing_done_at : Time.t option;
}

let log_step scenario step =
  let tel = Scenario.telemetry scenario in
  if Telemetry.timeline tel then
    Telemetry.instant tel ~now:(Engine.now (Scenario.engine scenario)) ~actor:"migrate-app"
      ~name:"step" ~detail:step ()

let fail_step step err =
  failwith (Printf.sprintf "migrate: %s failed: %s" step (Errors.to_string err))

(* Duplicate the configuration subtrees in [keys] from src to dst,
   then continue. *)
let clone_config scenario ~src ~dst ~keys k =
  let ctrl = Scenario.controller scenario in
  let rec copy = function
    | [] -> k ()
    | key :: rest ->
      Controller.read_config ctrl ~src ~key ~on_done:(fun res ->
          match res with
          | Error e -> fail_step "readConfig" e
          | Ok entries ->
            let rec write = function
              | [] -> copy rest
              | (entry : Config_tree.entry) :: more ->
                Controller.write_config ctrl ~dst ~key:entry.path ~values:entry.values
                  ~on_done:(fun res ->
                    match res with
                    | Error e -> fail_step "writeConfig" e
                    | Ok () -> write more)
            in
            write entries)
  in
  copy keys

let migrate_perflow scenario ~src ~dst ~key ~dst_port ?(config_keys = [ [] ])
    ?(also_route = []) ?(on_done = fun _ -> ()) () =
  let ctrl = Scenario.controller scenario in
  log_step scenario (Printf.sprintf "clone config %s->%s" src dst);
  clone_config scenario ~src ~dst ~keys:config_keys (fun () ->
      log_step scenario (Printf.sprintf "moveInternal %s->%s %s" src dst (Hfl.to_string key));
      Controller.move_internal ctrl ~src ~dst ~key ~on_done:(fun res ->
          match res with
          | Error e -> fail_step "moveInternal" e
          | Ok mr ->
            (* R4: the routing update is issued strictly after the move
               returns.  Bidirectional MB state needs both directions
               rerouted; [also_route] carries the reverse keys. *)
            log_step scenario "routing update";
            List.iter
              (fun extra -> Scenario.route scenario ~match_:extra ~port:dst_port ())
              also_route;
            Scenario.route scenario ~match_:key ~port:dst_port
              ~on_done:(fun () ->
                log_step scenario "routing active";
                on_done
                  {
                    move = Some mr;
                    routing_done_at = Some (Engine.now (Scenario.engine scenario));
                  })
              ()))

let migrate_re scenario ~orig_decoder ~new_decoder ~encoder ~keep_prefix ~move_prefix
    ~dst_port ?(on_done = fun _ -> ()) () =
  let ctrl = Scenario.controller scenario in
  (* Step 1: launch (done by the caller) + duplicate configuration. *)
  log_step scenario "step 1: duplicate decoder config";
  clone_config scenario ~src:orig_decoder ~dst:new_decoder ~keys:[ [] ] (fun () ->
      (* Step 3 (issued before the clone so the encoder-side second
         cache mirrors the original during the transfer): add a second
         cache to the encoder; internally it clones its original
         cache. *)
      log_step scenario "step 3: encoder NumCaches=2";
      Controller.write_config ctrl ~dst:encoder ~key:[ "NumCaches" ]
        ~values:[ Json.Int 2 ] ~on_done:(fun res ->
          match res with
          | Error e -> fail_step "writeConfig NumCaches" e
          | Ok () ->
            (* Step 2: clone the original decoder's cache. *)
            log_step scenario "step 2: cloneSupport decoder cache";
            Controller.clone_support ctrl ~src:orig_decoder ~dst:new_decoder
              ~on_done:(fun res ->
                match res with
                | Error e -> fail_step "cloneSupport" e
                | Ok mr ->
                  (* Step 5 is applied BEFORE the routing update (the
                     paper lists it after): once the caches are cloned
                     and mirrored, either decoder can decode either
                     cache's stream, so splitting the encoder first is
                     safe — whereas splitting after the flip diverts
                     cache-0-encoded packets away from the original
                     decoder, leaving it permanent gaps.  See
                     DESIGN.md §7. *)
                  log_step scenario "step 5a: encoder CacheFlows";
                  Controller.write_config ctrl ~dst:encoder ~key:[ "CacheFlows" ]
                    ~values:
                      [
                        Json.String (Addr.prefix_to_string keep_prefix);
                        Json.String (Addr.prefix_to_string move_prefix);
                      ]
                    ~on_done:(fun res ->
                      match res with
                      | Error e -> fail_step "writeConfig CacheFlows" e
                      | Ok () ->
                        (* Step 4: update network routing for the
                           migrating prefix. *)
                        log_step scenario "step 4: routing update";
                        Scenario.route scenario
                          ~match_:[ Hfl.Dst_ip move_prefix ]
                          ~port:dst_port
                          ~on_done:(fun () ->
                            let now = Engine.now (Scenario.engine scenario) in
                            (* Step 5b: stop the source decoder's sync
                               events now that the new decoder receives
                               its stream natively. *)
                            log_step scenario "step 5b: stop sync events";
                            Controller.write_config ctrl ~dst:orig_decoder
                              ~key:[ "SyncEvents" ] ~values:[ Json.Bool false ]
                              ~on_done:(fun res ->
                                match res with
                                | Error e -> fail_step "writeConfig SyncEvents" e
                                | Ok () ->
                                  on_done { move = Some mr; routing_done_at = Some now }))
                          ()))))
