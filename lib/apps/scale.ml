open Openmb_sim
open Openmb_net
open Openmb_core

type up_result = {
  queried : Southbound.stats;
  move : Controller.move_result;
  routing_done_at : Time.t;
}

type down_result = {
  moved : Controller.move_result;
  merged : Controller.move_result;
  deprecated_released_at : Time.t;
}

let log_step scenario step =
  let tel = Scenario.telemetry scenario in
  if Telemetry.timeline tel then
    Telemetry.instant tel ~now:(Engine.now (Scenario.engine scenario)) ~actor:"scale-app"
      ~name:"step" ~detail:step ()

let fail_step step err =
  failwith (Printf.sprintf "scale: %s failed: %s" step (Errors.to_string err))

let clone_all_config ctrl ~src ~dst k =
  Controller.read_config ctrl ~src ~key:[] ~on_done:(fun res ->
      match res with
      | Error e -> fail_step "readConfig *" e
      | Ok entries ->
        let rec write = function
          | [] -> k ()
          | (entry : Config_tree.entry) :: rest ->
            Controller.write_config ctrl ~dst ~key:entry.path ~values:entry.values
              ~on_done:(fun res ->
                match res with
                | Error e -> fail_step "writeConfig" e
                | Ok () -> write rest)
        in
        write entries)

let scale_up scenario ~existing ~fresh ~rebalance ~dst_port ?(also_route = [])
    ?(on_done = fun _ -> ()) () =
  let ctrl = Scenario.controller scenario in
  (* 1. Launch (caller) + duplicate the configuration. *)
  log_step scenario (Printf.sprintf "duplicate config %s->%s" existing fresh);
  clone_all_config ctrl ~src:existing ~dst:fresh (fun () ->
      (* 2. Query how much per-flow state exists for the subnet. *)
      log_step scenario (Printf.sprintf "stats %s %s" existing (Hfl.to_string rebalance));
      Controller.stats ctrl ~src:existing ~key:rebalance ~on_done:(fun res ->
          match res with
          | Error e -> fail_step "stats" e
          | Ok queried ->
            (* 3. Move the subset of per-flow state. *)
            log_step scenario "moveInternal";
            Controller.move_internal ctrl ~src:existing ~dst:fresh ~key:rebalance
              ~on_done:(fun res ->
                match res with
                | Error e -> fail_step "moveInternal" e
                | Ok move ->
                  (* 4. Route the moved flows — both directions for
                     connection-oriented traffic — to the new
                     instance. *)
                  log_step scenario "routing update";
                  List.iter
                    (fun extra ->
                      Scenario.route scenario ~match_:extra ~port:dst_port ())
                    also_route;
                  Scenario.route scenario ~match_:rebalance ~port:dst_port
                    ~on_done:(fun () ->
                      on_done
                        {
                          queried;
                          move;
                          routing_done_at = Engine.now (Scenario.engine scenario);
                        })
                    ())))

let scale_down scenario ~deprecated ~survivor ~dst_port ?(on_done = fun _ -> ()) () =
  let ctrl = Scenario.controller scenario in
  let engine = Scenario.engine scenario in
  (* 1. Transfer the per-flow reporting state for all flows. *)
  log_step scenario (Printf.sprintf "moveInternal %s->%s (all)" deprecated survivor);
  Controller.move_internal ctrl ~src:deprecated ~dst:survivor ~key:Hfl.any
    ~on_done:(fun res ->
      match res with
      | Error e -> fail_step "moveInternal" e
      | Ok moved ->
        (* 2. Route flows to the remaining instance.  The catch-all
           must dominate the finer-grained rebalance rule the scale-up
           installed, so it goes in at higher priority. *)
        log_step scenario "routing update";
        Scenario.route scenario ~match_:Hfl.any ~port:dst_port ~priority:200
          ~on_done:(fun () ->
            (* 3. Merge the shared reporting state once the deprecated
               instance has drained its in-flight packets.  Merging
               after the routing flip (the paper lists it before)
               guarantees exact counter conservation: every packet the
               deprecated instance ever counted is in the snapshot the
               survivor merges, and none is counted twice. *)
            let do_merge () =
              log_step scenario "mergeInternal";
              Controller.merge_internal ctrl ~src:deprecated ~dst:survivor
                ~on_done:(fun res ->
                  match res with
                  | Error e -> fail_step "mergeInternal" e
                  | Ok merged ->
                    (* 4. Terminate the unneeded instance. *)
                    let terminate () =
                      log_step scenario (Printf.sprintf "terminate %s" deprecated);
                      Controller.disconnect ctrl deprecated;
                      on_done
                        { moved; merged; deprecated_released_at = Engine.now engine }
                    in
                    ignore (Engine.schedule_after engine (Time.seconds 0.25) terminate))
            in
            ignore (Engine.schedule_after engine (Time.seconds 0.25) do_merge))
          ())
