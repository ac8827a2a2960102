(* Post-mortem bundle assembly.  Cold path by construction: nothing
   here runs unless a breach / failure / explicit trigger fires, so
   it allocates freely. *)

type t = {
  telemetry : Telemetry.t option;
  timeseries : Timeseries.t option;
  slo : Slo.t option;
  fault_plan : string option;
  mutable last : string option;
  mutable dumps : int;
}

(* The most recent spans a bundle carries. *)
let span_tail = 256

let create ?telemetry ?timeseries ?slo ?fault_plan () =
  { telemetry; timeseries; slo; fault_plan; last = None; dumps = 0 }

(* Last [n] spans of the trace ring, oldest-first, as JSON objects.
   fold walks oldest-first, so collect into a small ring and replay. *)
let span_tail_json buf tel n =
  let tr = Telemetry.trace tel in
  let held = Telemetry.Trace.length tr in
  let keep = min n held in
  let skip = held - keep in
  Buffer.add_char buf '[';
  let emitted = ref 0 in
  let _ =
    Telemetry.Trace.fold tr ~init:0
      ~f:(fun i ~actor ~name ~op ~a0 ~a1 ~t0 ~t1 ~detail ->
        if i >= skip then begin
          if !emitted > 0 then Buffer.add_char buf ',';
          incr emitted;
          Buffer.add_string buf "{\"actor\":";
          Telemetry.add_json_string buf (Telemetry.Trace.string_of_id tr actor);
          Buffer.add_string buf ",\"name\":";
          Telemetry.add_json_string buf (Telemetry.Trace.string_of_id tr name);
          Buffer.add_string buf
            (Printf.sprintf ",\"op\":%d,\"a0\":%d,\"a1\":%d,\"t0_s\":%.9g,\"t1_s\":%.9g" op a0 a1
               (Time.to_seconds t0) (Time.to_seconds t1));
          if detail <> "" then begin
            Buffer.add_string buf ",\"detail\":";
            Telemetry.add_json_string buf detail
          end;
          Buffer.add_char buf '}'
        end;
        i + 1)
  in
  Buffer.add_char buf ']'

let dump t ~now ~reason =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"reason\":";
  Telemetry.add_json_string buf reason;
  Buffer.add_string buf (Printf.sprintf ",\"at_s\":%.9g" (Time.to_seconds now));
  Buffer.add_string buf ",\"fault_plan\":";
  (match t.fault_plan with
  | Some p -> Telemetry.add_json_string buf p
  | None -> Buffer.add_string buf "null");
  Buffer.add_string buf ",\"breaches\":";
  (match t.slo with
  | Some s -> Buffer.add_string buf (Slo.breaches_to_json s)
  | None -> Buffer.add_string buf "null");
  Buffer.add_string buf ",\"series\":";
  (match t.timeseries with
  | Some ts -> Buffer.add_string buf (Timeseries.to_json (Timeseries.snapshot ts))
  | None -> Buffer.add_string buf "null");
  Buffer.add_string buf ",\"registry\":";
  (match t.telemetry with
  | Some tel -> Buffer.add_string buf (Telemetry.snapshot_to_json (Telemetry.snapshot tel))
  | None -> Buffer.add_string buf "null");
  Buffer.add_string buf ",\"span_tail\":";
  (match t.telemetry with
  | Some tel -> span_tail_json buf tel span_tail
  | None -> Buffer.add_string buf "null");
  Buffer.add_char buf '}';
  let bundle = Buffer.contents buf in
  t.last <- Some bundle;
  t.dumps <- t.dumps + 1;
  bundle

let arm t ~engine =
  match t.slo with
  | None -> invalid_arg "Flight_recorder.arm: no slo attached"
  | Some s ->
      Slo.set_on_breach s (fun br ->
          if t.dumps = 0 then
            ignore
              (dump t ~now:(Engine.now engine)
                 ~reason:(Printf.sprintf "slo breach: %s on %s" br.Slo.br_objective br.Slo.br_series)))

let last_bundle t = t.last
let dumps t = t.dumps
