open Openmb_sim
open Openmb_net
open Openmb_core
open Openmb_mbox

type t = {
  engine : Engine.t;
  tel : Telemetry.t;
  ctrl : Controller.t;
  faults : Faults.t option;
  sdn : Sdn_controller.t;
  switch : Switch.t;
  sink : Host.t;
}

let create ?ctrl_config ?faults ?telemetry ?(install_delay = Time.ms 10.0)
    ?(with_recorder = false) () =
  let tel =
    match telemetry with Some tel -> tel | None -> Telemetry.create ~timeline:with_recorder ()
  in
  let engine = Engine.create ~telemetry:tel () in
  let faults = Option.map (fun plan -> Faults.create ~telemetry:tel engine plan) faults in
  let ctrl = Controller.create engine ?config:ctrl_config ?faults ~telemetry:tel () in
  let sdn = Sdn_controller.create engine ~install_delay () in
  let switch = Switch.create engine ~telemetry:tel ~name:"s1" () in
  Sdn_controller.register_switch sdn switch;
  let sink = Host.create ~name:"sink" () in
  { engine; tel; ctrl; faults; sdn; switch; sink }

let engine t = t.engine
let telemetry t = t.tel
let controller t = t.ctrl
let faults t = t.faults
let sdn t = t.sdn
let switch t = t.switch

let attach_mb_agent ?receive_batch t ~port ~receive ~base ~impl =
  let to_mb = Link.create t.engine ~name:("s1-" ^ port) ~dst:receive () in
  (* With a batch receiver, batches arriving on the ingress link stay
     whole; without one, each member enters the MB on its own. *)
  Option.iter (Link.set_dst_batch to_mb) receive_batch;
  Switch.attach_port t.switch ~port to_mb;
  let to_sink = Link.create t.engine ~name:(port ^ "-sink") ~dst:(Host.receive t.sink) () in
  Mb_base.set_egress_batch base (Link.send_batch to_sink);
  let agent = Mb_agent.create t.engine ~telemetry:t.tel ~impl () in
  Controller.connect t.ctrl agent;
  agent

let attach_mb ?receive_batch t ~port ~receive ~base ~impl =
  ignore (attach_mb_agent ?receive_batch t ~port ~receive ~base ~impl)

let chain ?receive_batch ~receive base =
  Mb_base.set_egress base receive;
  Option.iter (Mb_base.set_egress_batch base) receive_batch

let install_default_route t ~port =
  ignore
    (Flow_table.install (Switch.table t.switch) ~priority:1 ~match_:Hfl.any
       ~action:(Flow_table.Forward port))

let route t ~match_ ~port ?(priority = 100) ?on_done () =
  Sdn_controller.update_route t.sdn ~switch:"s1" ~match_
    ~new_action:(Flow_table.Forward port) ~priority ?on_done ()

let inject t trace ~into = Openmb_traffic.Trace.replay t.engine trace ~into

let inject_batched t trace ?pool ~batch ~window ~into () =
  Openmb_traffic.Trace.replay_batched t.engine trace ?pool ~batch ~window ~into ()

let run ?until t = Engine.run ?until t.engine

let at t time f = ignore (Engine.schedule_at t.engine time f)
