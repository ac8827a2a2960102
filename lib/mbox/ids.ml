open Openmb_sim
open Openmb_wire
open Openmb_net
open Openmb_core

(* ------------------------------------------------------------------ *)
(* Connection records (per-flow supporting state)                      *)
(* ------------------------------------------------------------------ *)

type tcp_state = Ts_syn | Ts_synack | Ts_est | Ts_closed | Ts_reset_orig | Ts_reset_resp

type conn = {
  orig : Five_tuple.t;  (* originator direction *)
  mutable started : float;
  mutable last_seen : float;
  mutable tcp : tcp_state;
  mutable history : string;
  mutable orig_pkts : int;
  mutable orig_bytes : int;
  mutable resp_pkts : int;
  mutable resp_bytes : int;
  mutable open_http : (string * string * string) list;  (* pending requests *)
  mutable http_done : (string * string * string * int) list;
  mutable logged : bool;
}

type conn_entry = {
  ce_tuple : Five_tuple.t;
  ce_start : float;
  ce_duration : float;
  ce_orig_bytes : int;
  ce_resp_bytes : int;
  ce_state : string;
  ce_anomalous : bool;
}

type http_entry = {
  he_tuple : Five_tuple.t;
  he_method : string;
  he_host : string;
  he_uri : string;
  he_status : int;
}

type alert = { al_time : float; al_kind : string; al_source : string; al_detail : string }

(* Scan-detector record (shared supporting state). *)
type scan_rec = { mutable syn_count : int; mutable alerted : bool }

type t = {
  base : Mb_base.t;
  table : conn State_table.t;
  conns : conn Mb_base.perflow;
  scan : (string, scan_rec) Hashtbl.t;  (* keyed by source IP string *)
  mutable scan_cloned : bool;  (* raises re-process events when scan state updates *)
  mutable conn_log_rev : conn_entry list;
  mutable http_log_rev : http_entry list;
  mutable alerts_rev : alert list;
  mutable anomalies : int;
}

let default_cost : Southbound.cost_model =
  {
    per_packet = Time.ms 0.3;
    op_slowdown = 1.02;
    scan_per_entry = Time.us 50.0;
    serialize_per_chunk = Time.us 500.0;
    serialize_per_byte = Time.us 0.2;
    deserialize_per_chunk = Time.us 80.0;
    deserialize_per_byte = Time.us 0.04;
  }

let tcp_state_to_string = function
  | Ts_syn -> "S0"
  | Ts_synack -> "S1"
  | Ts_est -> "S1"
  | Ts_closed -> "SF"
  | Ts_reset_orig -> "RSTO"
  | Ts_reset_resp -> "RSTR"

(* Reassembly-buffer contents deterministic in the flow identity, so a
   moved record round-trips bit-identically.  Its size grows with
   connection activity, making HTTP-flow chunks substantially larger
   than idle-flow chunks, as in Bro.  It is derived on export, never
   kept: empty until the connection has carried payload. *)
let reassembly c =
  match c.orig_bytes + c.resp_bytes with
  | 0 -> ""
  | bytes ->
    let g = Prng.create ~seed:(Hashtbl.hash (Five_tuple.to_string c.orig)) in
    String.init (256 + min 1024 (bytes / 8)) (fun _ -> Char.chr (97 + Prng.int g 26))

(* ------------------------------------------------------------------ *)
(* State descriptions (Bro's libboost serialization of >100 classes)   *)
(* ------------------------------------------------------------------ *)

(* ["S1"] names both [Ts_synack] and [Ts_est]; listed first, [Ts_est]
   is what it reads back as. *)
let tcp_state =
  Codec.enum tcp_state_to_string
    [ Ts_syn; Ts_est; Ts_synack; Ts_closed; Ts_reset_orig; Ts_reset_resp ]

(* The analyzer tree: each analyzer contributes its own nested state,
   standing in for Bro's tree of serialized objects.  The TCP
   analyzer's state repeats the record's and its reassembly buffer is
   derived, so only the HTTP analyzer's state is read back. *)
type analyzer =
  | Tcp_analyzer of tcp_state * string
  | Http_analyzer of (string * string * string) list * (string * string * string * int) list

let analyzers_codec =
  let open Codec in
  let txn_done =
    record (fun m h u st -> (m, h, u, st))
    |> field "method" string (fun (m, _, _, _) -> m)
    |> field "host" string (fun (_, h, _, _) -> h)
    |> field "uri" string (fun (_, _, u, _) -> u)
    |> field "status" varint (fun (_, _, _, st) -> st)
  in
  union "name" (fun Select.[ tcp; http ] ->
      Dispatch (function Tcp_analyzer (st, r) -> tcp st r | Http_analyzer (o, d) -> http o d))
  |> case2 0 "TCP" (obj2 "state" tcp_state "reassembly" string) (fun st r -> Tcp_analyzer (st, r))
  |> case2 1 "HTTP"
       (obj2 "open" (list (obj (obj3 "method" string "host" string "uri" string))) "done"
          (list (obj txn_done)))
       (fun o d -> Http_analyzer (o, d))
  |> variant |> obj |> list

let http_state analyzers =
  match List.find_map (function Http_analyzer (o, d) -> Some (o, d) | _ -> None) analyzers with
  | Some state -> state
  | None -> invalid_arg "Ids: no HTTP analyzer"

let conn_codec =
  let open Codec in
  obj
    (record
       (fun orig started last_seen tcp history orig_pkts orig_bytes resp_pkts resp_bytes analyzers
            logged ->
         let open_http, http_done = http_state analyzers in
         { orig; started; last_seen; tcp; history; orig_pkts; orig_bytes; resp_pkts; resp_bytes;
           open_http; http_done; logged })
    |> field "orig" (conv Five_tuple.to_string Five_tuple.of_string string) (fun c -> c.orig)
    |> field "started" float (fun c -> c.started)
    |> field "last" float (fun c -> c.last_seen)
    |> field "tcp" tcp_state (fun c -> c.tcp)
    |> field "history" string (fun c -> c.history)
    |> field "orig_pkts" uvarint (fun c -> c.orig_pkts)
    |> field "orig_bytes" uvarint (fun c -> c.orig_bytes)
    |> field "resp_pkts" uvarint (fun c -> c.resp_pkts)
    |> field "resp_bytes" uvarint (fun c -> c.resp_bytes)
    |> field "analyzers" analyzers_codec (fun c ->
           [ Tcp_analyzer (c.tcp, reassembly c); Http_analyzer (c.open_http, c.http_done) ])
    |> field "logged" bool (fun c -> c.logged))

(* The scan table, keyed by source address text. *)
let scan_codec =
  Codec.(
    assoc
      (obj
         (record (fun syn_count alerted -> { syn_count; alerted })
         |> field "syns" uvarint (fun r -> r.syn_count)
         |> field "alerted" bool (fun r -> r.alerted))))

(* Merging adds the counts; a source new here keeps its decoded record. *)
let merge_scan scan =
  List.iter (fun (src, o) ->
      match Hashtbl.find_opt scan src with
      | Some r ->
        r.syn_count <- r.syn_count + o.syn_count;
        r.alerted <- r.alerted || o.alerted
      | None -> Hashtbl.replace scan src o)

let base t = t.base

(* ------------------------------------------------------------------ *)
(* Logging and alerting (external side-effects)                        *)
(* ------------------------------------------------------------------ *)

let log_conn t c ~anomalous =
  if not c.logged then begin
    c.logged <- true;
    let entry =
      {
        ce_tuple = c.orig;
        ce_start = c.started;
        ce_duration = c.last_seen -. c.started;
        ce_orig_bytes = c.orig_bytes;
        ce_resp_bytes = c.resp_bytes;
        ce_state = tcp_state_to_string c.tcp;
        ce_anomalous = anomalous;
      }
    in
    t.conn_log_rev <- entry :: t.conn_log_rev;
    if anomalous then t.anomalies <- t.anomalies + 1
  end

let emit_alert t ~kind ~source ~detail =
  t.alerts_rev <-
    {
      al_time = Time.to_seconds (Mb_base.now t.base);
      al_kind = kind;
      al_source = source;
      al_detail = detail;
    }
    :: t.alerts_rev;
  Mb_base.record t.base ~kind:"alert" ~detail:(fun () -> kind ^ " " ^ detail)

let signatures t =
  match Config_tree.get (Mb_base.config t.base) [ "signatures" ] with
  | [ { values; _ } ] -> List.filter_map (function Json.String s -> Some s | _ -> None) values
  | _ -> []

let scan_threshold t =
  match Config_tree.get (Mb_base.config t.base) [ "scan"; "threshold" ] with
  | [ { values = Json.Int n :: _; _ } ] -> n
  | _ -> 20

(* ------------------------------------------------------------------ *)
(* Packet processing                                                   *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let update_scan t src ~side_effects =
  let key = Addr.to_string src in
  let r =
    match Hashtbl.find_opt t.scan key with
    | Some r -> r
    | None ->
      let r = { syn_count = 0; alerted = false } in
      Hashtbl.replace t.scan key r;
      r
  in
  r.syn_count <- r.syn_count + 1;
  if r.syn_count > scan_threshold t && not r.alerted then begin
    r.alerted <- true;
    if side_effects then
      emit_alert t ~kind:"port-scan" ~source:key
        ~detail:(Printf.sprintf "%d connection attempts" r.syn_count)
  end

let process t (p : Packet.t) ~side_effects =
  let tup = Five_tuple.of_packet p in
  let ts = Time.to_seconds p.ts in
  let entry, created =
    State_table.find_or_create t.table tup ~default:(fun () ->
        {
          orig = tup;
          started = ts;
          last_seen = ts;
          tcp = (if p.flags.syn then Ts_syn else Ts_est);
          history = (if p.flags.syn then "S" else "^");
          orig_pkts = 0;
          orig_bytes = 0;
          resp_pkts = 0;
          resp_bytes = 0;
          open_http = [];
          http_done = [];
          logged = false;
        })
  in
  let c = entry.value in
  let from_orig = Five_tuple.equal tup c.orig in
  let body = Packet.body_bytes p in
  c.last_seen <- Float.max c.last_seen ts;
  if from_orig then begin
    c.orig_pkts <- c.orig_pkts + 1;
    c.orig_bytes <- c.orig_bytes + body
  end
  else begin
    c.resp_pkts <- c.resp_pkts + 1;
    c.resp_bytes <- c.resp_bytes + body
  end;
  (* TCP state machine and history string. *)
  (match p.proto with
  | Packet.Tcp ->
    if p.flags.rst then begin
      c.tcp <- (if from_orig then Ts_reset_orig else Ts_reset_resp);
      c.history <- c.history ^ "R";
      log_conn t c ~anomalous:false
    end
    else if p.flags.fin then begin
      c.history <- c.history ^ if from_orig then "F" else "f";
      c.tcp <- Ts_closed;
      log_conn t c ~anomalous:false
    end
    else if p.flags.syn && p.flags.ack then begin
      c.history <- c.history ^ "h";
      if c.tcp = Ts_syn then c.tcp <- Ts_synack
    end
    else if p.flags.syn then begin
      if (not created) && from_orig then c.history <- c.history ^ "S"
    end
    else begin
      c.history <- c.history ^ (if from_orig then "D" else "d");
      if c.tcp = Ts_synack || c.tcp = Ts_syn then c.tcp <- Ts_est
    end
  | Packet.Udp | Packet.Icmp ->
    c.history <- c.history ^ if from_orig then "D" else "d");
  (* HTTP analyzer. *)
  (match p.app with
  | Packet.Http_request { method_; host; uri } ->
    c.open_http <- c.open_http @ [ (method_, host, uri) ];
    let sigs = signatures t in
    if List.exists (fun s -> contains ~sub:s uri) sigs && side_effects then
      emit_alert t ~kind:"http-exploit" ~source:(Addr.to_string p.src_ip) ~detail:uri
  | Packet.Http_response { status } -> (
    match c.open_http with
    | (m, h, u) :: rest ->
      c.open_http <- rest;
      c.http_done <- c.http_done @ [ (m, h, u, status) ];
      if side_effects then
        t.http_log_rev <-
          { he_tuple = c.orig; he_method = m; he_host = h; he_uri = u; he_status = status }
          :: t.http_log_rev
    | [] -> ())
  | Packet.Plain -> ());
  (* Scan detection (shared supporting state). *)
  if p.flags.syn && not p.flags.ack then update_scan t p.src_ip ~side_effects;
  (* Re-process events for moved / cloned state (§4.2.1). *)
  if entry.moved then
    Mb_base.raise_event t.base (Event.Reprocess { key = entry.key; packet = p });
  if t.scan_cloned && p.flags.syn && not p.flags.ack then
    Mb_base.raise_event t.base (Event.Reprocess { key = Hfl.any; packet = p })

(* The analyzer never rewrites or drops: every packet passes on. *)
let pass t p ~side_effects =
  process t p ~side_effects;
  p

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create engine ?telemetry ?(cost = default_cost) ~name () =
  let base = Mb_base.create engine ?telemetry ~name ~kind:"bro" ~cost () in
  let config = Mb_base.config base in
  Config_tree.set config [ "signatures" ]
    [ Json.String "cmd.exe"; Json.String "/etc/passwd"; Json.String "../.." ];
  Config_tree.set config [ "scan"; "threshold" ] [ Json.Int 20 ];
  Config_tree.set config [ "http"; "ports" ] [ Json.Int 80; Json.Int 8080 ];
  let table = State_table.create ~granularity:Hfl.full_granularity () in
  let t =
    {
      base;
      table;
      conns =
        Mb_base.perflow base table ~role:Taxonomy.Supporting
          ~encode:(Codec.encode Framing.Json conn_codec)
          ~decode:(Codec.decode conn_codec);
      scan = Hashtbl.create 64;
      scan_cloned = false;
      conn_log_rev = [];
      http_log_rev = [];
      alerts_rev = [];
      anomalies = 0;
    }
  in
  Mb_base.set_work base (Mb_base.process_batch base pass t);
  t

let receive t p = Mb_base.inject t.base p ~side_effects:true
let receive_batch t b = Mb_base.inject_batch t.base b ~side_effects:true

(* ------------------------------------------------------------------ *)
(* Southbound implementation                                           *)
(* ------------------------------------------------------------------ *)

let chunk_of_entry t (entry : conn State_table.entry) =
  Mb_base.seal_raw t.base ~role:Taxonomy.Supporting ~partition:Taxonomy.Per_flow
    ~key:entry.key (Codec.encode Framing.Json conn_codec entry.value)

let impl t =
  let default = Mb_base.default_impl t.base ~support:t.conns () in
  let encode_scan () =
    Codec.encode Framing.Json scan_codec (Hashtbl.fold (fun src r acc -> (src, r) :: acc) t.scan [])
  in
  {
    default with
    get_support_shared =
      (fun () ->
        t.scan_cloned <- true;
        Ok
          (Some
             (Mb_base.seal_raw t.base ~role:Taxonomy.Supporting ~partition:Taxonomy.Shared
                ~key:Hfl.any (encode_scan ()))));
    put_support_shared =
      Mb_base.import t.base ~role:Taxonomy.Supporting ~partition:Taxonomy.Shared
        ~decode:(Codec.decode scan_codec) (fun _ entries -> merge_scan t.scan entries);
    stats =
      (fun hfl ->
        { (default.stats hfl) with shared_support_bytes = Chunk.sealed_size (encode_scan ()) });
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let conn_log t = List.rev t.conn_log_rev
let http_log t = List.rev t.http_log_rev
let alerts t = List.rev t.alerts_rev

let finalize t =
  State_table.iter t.table (fun e ->
      if not e.moved then begin
        (* An unanswered probe (S0) or reset ends a connection
           legitimately; an established connection with no termination
           means its packets stopped arriving — the abrupt-termination
           anomaly the snapshot baseline produces. *)
        let anomalous =
          e.value.orig.proto = Packet.Tcp
          &&
          match e.value.tcp with
          | Ts_est | Ts_synack -> true
          | Ts_syn | Ts_closed | Ts_reset_orig | Ts_reset_resp -> false
        in
        log_conn t e.value ~anomalous
      end);
  State_table.clear t.table

let anomalous_entries t = t.anomalies

(* In-memory state is roughly 2.2× its serialized form (pointers, hash
   buckets, allocator slack) — used for the VM-snapshot comparison. *)
let memory_factor = 2.2

let serialized_bytes t ~key =
  let bytes = ref 0 in
  State_table.iter_matching t.table key (fun e ->
      bytes := !bytes + Chunk.size_bytes (chunk_of_entry t e));
  !bytes

let memory_bytes_for t ~key =
  int_of_float (float_of_int (serialized_bytes t ~key) *. memory_factor)

let memory_bytes t = memory_bytes_for t ~key:Hfl.any

(* What restoring a whole-VM snapshot does: every piece of state —
   needed or not — appears at the destination, bypassing OpenMB
   entirely.  Connection records are deep-copied so the instances then
   evolve independently. *)
let snapshot_into src dst =
  State_table.iter src.table (fun e ->
      State_table.insert dst.table ~key:e.key { e.value with started = e.value.started });
  Hashtbl.iter
    (fun src_ip r -> Hashtbl.replace dst.scan src_ip { r with alerted = r.alerted })
    src.scan
