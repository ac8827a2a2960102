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
  mutable reassembly : string;  (* deep analyzer-tree state *)
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

let tcp_state_of_string = function
  | "S0" -> Ts_syn
  | "S1" -> Ts_est
  | "SF" -> Ts_closed
  | "RSTO" -> Ts_reset_orig
  | "RSTR" -> Ts_reset_resp
  | s -> invalid_arg (Printf.sprintf "Ids.tcp_state_of_string: %S" s)

(* Reassembly-buffer contents deterministic in the flow identity, so a
   moved record round-trips bit-identically.  Its size grows with
   connection activity, making HTTP-flow chunks substantially larger
   than idle-flow chunks, as in Bro. *)
let reassembly_for tuple bytes =
  let n = 256 + min 1024 (bytes / 8) in
  let seed = Hashtbl.hash (Five_tuple.to_string tuple) in
  let g = Prng.create ~seed in
  String.init n (fun _ -> Char.chr (97 + Prng.int g 26))

(* ------------------------------------------------------------------ *)
(* Serialization (the paper's libboost serialization of >100 classes)  *)
(* ------------------------------------------------------------------ *)

let tuple_to_json tup =
  Json.String (Five_tuple.to_string tup)

let tuple_of_json j =
  (* Inverse of Five_tuple.to_string: "tcp a:p>b:q". *)
  let s = Json.get_string j in
  match String.split_on_char ' ' s with
  | [ proto; rest ] -> (
    match String.split_on_char '>' rest with
    | [ a; b ] ->
      let split_ep e =
        match String.rindex_opt e ':' with
        | Some i ->
          ( Addr.of_string (String.sub e 0 i),
            int_of_string (String.sub e (i + 1) (String.length e - i - 1)) )
        | None -> invalid_arg "Ids.tuple_of_json: missing port"
      in
      let src_ip, src_port = split_ep a and dst_ip, dst_port = split_ep b in
      {
        Five_tuple.src_ip;
        dst_ip;
        src_port;
        dst_port;
        proto = Packet.proto_of_string proto;
      }
    | _ -> invalid_arg "Ids.tuple_of_json: malformed tuple")
  | _ -> invalid_arg "Ids.tuple_of_json: malformed tuple"

let conn_to_json c =
  let http_txn (m, h, u) =
    Json.Assoc [ ("method", Json.String m); ("host", Json.String h); ("uri", Json.String u) ]
  in
  let http_done (m, h, u, st) =
    Json.Assoc
      [
        ("method", Json.String m);
        ("host", Json.String h);
        ("uri", Json.String u);
        ("status", Json.Int st);
      ]
  in
  Json.Assoc
    [
      ("orig", tuple_to_json c.orig);
      ("started", Json.Float c.started);
      ("last", Json.Float c.last_seen);
      ("tcp", Json.String (tcp_state_to_string c.tcp));
      ("history", Json.String c.history);
      ("orig_pkts", Json.Int c.orig_pkts);
      ("orig_bytes", Json.Int c.orig_bytes);
      ("resp_pkts", Json.Int c.resp_pkts);
      ("resp_bytes", Json.Int c.resp_bytes);
      (* The analyzer tree: each analyzer contributes its own nested
         state, standing in for Bro's tree of serialized objects. *)
      ( "analyzers",
        Json.List
          [
            Json.Assoc
              [
                ("name", Json.String "TCP");
                ("state", Json.String (tcp_state_to_string c.tcp));
                ("reassembly", Json.String c.reassembly);
              ];
            Json.Assoc
              [
                ("name", Json.String "HTTP");
                ("open", Json.List (List.map http_txn c.open_http));
                ("done", Json.List (List.map http_done c.http_done));
              ];
          ] );
      ("logged", Json.Bool c.logged);
    ]

let conn_of_json j =
  let analyzers = Json.get_list (Json.member "analyzers" j) in
  let find_analyzer name =
    List.find
      (fun a -> String.equal (Json.get_string (Json.member "name" a)) name)
      analyzers
  in
  let tcp_a = find_analyzer "TCP" and http_a = find_analyzer "HTTP" in
  let txn a =
    ( Json.get_string (Json.member "method" a),
      Json.get_string (Json.member "host" a),
      Json.get_string (Json.member "uri" a) )
  in
  let txn_done a =
    let m, h, u = txn a in
    (m, h, u, Json.get_int (Json.member "status" a))
  in
  {
    orig = tuple_of_json (Json.member "orig" j);
    started = Json.get_float (Json.member "started" j);
    last_seen = Json.get_float (Json.member "last" j);
    tcp = tcp_state_of_string (Json.get_string (Json.member "tcp" j));
    history = Json.get_string (Json.member "history" j);
    orig_pkts = Json.get_int (Json.member "orig_pkts" j);
    orig_bytes = Json.get_int (Json.member "orig_bytes" j);
    resp_pkts = Json.get_int (Json.member "resp_pkts" j);
    resp_bytes = Json.get_int (Json.member "resp_bytes" j);
    open_http = List.map txn (Json.get_list (Json.member "open" http_a));
    http_done = List.map txn_done (Json.get_list (Json.member "done" http_a));
    reassembly = Json.get_string (Json.member "reassembly" tcp_a);
    logged = Json.get_bool (Json.member "logged" j);
  }

let scan_to_json scan =
  Json.Assoc
    (Hashtbl.fold
       (fun src r acc ->
         (src, Json.Assoc [ ("syns", Json.Int r.syn_count); ("alerted", Json.Bool r.alerted) ])
         :: acc)
       scan [])

let scan_of_json = function
  | Json.Assoc fields ->
    List.map
      (fun (src, v) ->
        (src, Json.get_int (Json.member "syns" v), Json.get_bool (Json.member "alerted" v)))
      fields
  | _ -> invalid_arg "Ids.scan_of_json: not an object"

let merge_scan scan =
  List.iter (fun (src, syns, alerted) ->
      match Hashtbl.find_opt scan src with
      | Some r ->
        r.syn_count <- r.syn_count + syns;
        r.alerted <- r.alerted || alerted
      | None -> Hashtbl.replace scan src { syn_count = syns; alerted })

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
          reassembly = "";
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
  if body > 0 then c.reassembly <- reassembly_for c.orig (c.orig_bytes + c.resp_bytes);
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

let create engine ?recorder ?telemetry ?(cost = default_cost) ~name () =
  let base = Mb_base.create engine ?recorder ?telemetry ~name ~kind:"bro" ~cost () in
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
          ~encode:(fun c -> Json.to_string (conn_to_json c))
          ~decode:(fun s -> conn_of_json (Json.of_string s));
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
  Mb_base.seal_json t.base ~role:Taxonomy.Supporting ~partition:Taxonomy.Per_flow
    ~key:entry.key (conn_to_json entry.value)

let impl t =
  let default = Mb_base.default_impl t.base ~support:t.conns () in
  {
    default with
    get_support_shared =
      (fun () ->
        t.scan_cloned <- true;
        Ok
          (Some
             (Mb_base.seal_json t.base ~role:Taxonomy.Supporting ~partition:Taxonomy.Shared
                ~key:Hfl.any (scan_to_json t.scan))));
    put_support_shared =
      Mb_base.import t.base ~role:Taxonomy.Supporting ~partition:Taxonomy.Shared
        ~decode:(fun s -> scan_of_json (Json.of_string s))
        (fun _ entries -> merge_scan t.scan entries);
    stats =
      (fun hfl ->
        {
          (default.stats hfl) with
          shared_support_bytes = String.length (Json.to_string (scan_to_json t.scan));
        });
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

let memory_bytes t =
  let serialized =
    State_table.fold t.table ~init:0 ~f:(fun acc e ->
        acc + Chunk.size_bytes (chunk_of_entry t e))
  in
  int_of_float (float_of_int serialized *. memory_factor)

let serialized_bytes t ~key =
  List.fold_left
    (fun acc e -> acc + Chunk.size_bytes (chunk_of_entry t e))
    0
    (State_table.matching t.table key)

let memory_bytes_for t ~key =
  int_of_float (float_of_int (serialized_bytes t ~key) *. memory_factor)

(* What restoring a whole-VM snapshot does: every piece of state —
   needed or not — appears at the destination, bypassing OpenMB
   entirely.  Connection records are deep-copied so the instances then
   evolve independently. *)
let snapshot_into src dst =
  State_table.iter src.table (fun e ->
      let c = e.value in
      State_table.insert dst.table ~key:e.key
        {
          orig = c.orig;
          started = c.started;
          last_seen = c.last_seen;
          tcp = c.tcp;
          history = c.history;
          orig_pkts = c.orig_pkts;
          orig_bytes = c.orig_bytes;
          resp_pkts = c.resp_pkts;
          resp_bytes = c.resp_bytes;
          open_http = c.open_http;
          http_done = c.http_done;
          reassembly = c.reassembly;
          logged = c.logged;
        });
  Hashtbl.iter
    (fun src_ip r ->
      Hashtbl.replace dst.scan src_ip { syn_count = r.syn_count; alerted = r.alerted })
    src.scan
