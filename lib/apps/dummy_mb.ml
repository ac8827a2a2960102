open Openmb_sim
open Openmb_net
open Openmb_core
open Openmb_mbox

type t = {
  base : Mb_base.t;
  granularity : Hfl.granularity;
  chunk_bytes : int;
  support : string State_table.t;
  report : string State_table.t;
  support_pf : string Mb_base.perflow;
  report_pf : string Mb_base.perflow;
  mutable sh_support : string option;
  mutable sh_report : string option;
  mutable event_task : Engine.handle option;
  mutable event_rr : int;
  mutable reprocessed : int;
}

let default_cost : Southbound.cost_model =
  {
    per_packet = Time.us 1.0;
    op_slowdown = 1.0;
    scan_per_entry = Time.us 0.01;
    serialize_per_chunk = Time.us 1.0;
    serialize_per_byte = Time.zero;
    deserialize_per_chunk = Time.us 1.0;
    deserialize_per_byte = Time.zero;
  }

let create engine ?(cost = default_cost) ?(granularity = Hfl.full_granularity)
    ?(chunk_bytes = 202) ?(kind = "dummy") ~name () =
  let base = Mb_base.create engine ~name ~kind ~cost () in
  let support = State_table.create ~granularity ()
  and report = State_table.create ~granularity () in
  let perflow table role = Mb_base.perflow base table ~role ~encode:Fun.id ~decode:Fun.id in
  {
    base;
    granularity;
    chunk_bytes;
    support;
    report;
    support_pf = perflow support Taxonomy.Supporting;
    report_pf = perflow report Taxonomy.Reporting;
    sh_support = None;
    sh_report = None;
    event_task = None;
    event_rr = 0;
    reprocessed = 0;
  }

let base t = t.base

let key_for i =
  [
    Hfl.Src_ip (Addr.prefix (Addr.of_string (Printf.sprintf "10.0.%d.%d" (i / 250) (1 + (i mod 250)))) 32);
    Hfl.Src_port (10000 + i);
  ]

(* Filler sized so the sealed chunk body lands on [chunk_bytes].  The
   padding mixes structured text with flow-dependent hex so it
   compresses like real serialized state (roughly the paper's 38%)
   rather than like a run of constants. *)
let blob_for t i =
  let body = Printf.sprintf "{\"flow\":%d,\"state\":\"" i in
  let overhead = String.length body + String.length "\"}" + 5 (* magic + mode byte *) in
  let pad = max 0 (t.chunk_bytes - overhead) in
  let filler = Buffer.create pad in
  let x = ref (i + 0x9E37) in
  while Buffer.length filler < pad do
    x := (!x * 1103515245) + 12345;
    Buffer.add_string filler (Printf.sprintf "seq=%04x;" (!x land 0xFFFF))
  done;
  body ^ String.sub (Buffer.contents filler) 0 pad ^ "\"}"

let populate_table t table ~n =
  for i = 0 to n - 1 do
    let key =
      List.filter (fun f -> List.mem (Hfl.dim_of_field f) t.granularity) (key_for i)
    in
    State_table.insert table ~key (blob_for t i)
  done

let populate t ~n = populate_table t t.support ~n
let populate_reporting t ~n = populate_table t t.report ~n

let set_shared_support t s = t.sh_support <- Some s
let set_shared_report t s = t.sh_report <- Some s
let shared_support t = t.sh_support
let shared_report t = t.sh_report
let chunk_count t = State_table.size t.support

let entries_of table =
  List.sort compare
    (State_table.fold table ~init:[] ~f:(fun acc e ->
         (Hfl.to_string e.State_table.key, e.value) :: acc))

let support_entries t = entries_of t.support
let report_entries t = entries_of t.report

(* ------------------------------------------------------------------ *)
(* Southbound implementation                                           *)
(* ------------------------------------------------------------------ *)

let get_shared t slot ~role () =
  match slot with
  | None -> Ok None
  | Some v ->
    Ok (Some (Mb_base.seal_raw t.base ~role ~partition:Taxonomy.Shared ~key:Hfl.any v))

(* Merge semantics: concatenate with "+" so tests can see both
   contributions. *)
let put_shared t ~role ~get ~set =
  Mb_base.import t.base ~role ~partition:Taxonomy.Shared ~decode:Fun.id (fun _ v ->
      match get () with None -> set v | Some existing -> set (existing ^ "+" ^ v))

(* Existence check by key coverage, not five-tuple probe: populate's
   synthetic keys pin only source ip/port, so they are invisible to the
   packed-table fast path a five-tuple lookup takes.  O(entries), which
   is fine for its test-harness role. *)
let has_state_for t p =
  State_table.fold t.support ~init:false ~f:(fun acc e ->
      acc || Hfl.matches_packet e.State_table.key p)

let process_packet t p ~side_effects =
  if side_effects then
    match State_table.find_bidir t.support (Five_tuple.of_packet p) with
    | Some entry when entry.moved ->
      Mb_base.raise_event t.base (Event.Reprocess { key = entry.key; packet = p })
    | Some _ | None -> ()
  else t.reprocessed <- t.reprocessed + 1

(* What a shared get exports: nothing, or the value sealed. *)
let shared_bytes = function None -> 0 | Some s -> Chunk.sealed_size s

let impl t =
  let default = Mb_base.default_impl t.base ~support:t.support_pf ~report:t.report_pf () in
  {
    default with
    get_support_shared =
      (fun () -> get_shared t t.sh_support ~role:Taxonomy.Supporting ());
    put_support_shared =
      put_shared t ~role:Taxonomy.Supporting
        ~get:(fun () -> t.sh_support)
        ~set:(fun v -> t.sh_support <- Some v);
    get_report_shared = (fun () -> get_shared t t.sh_report ~role:Taxonomy.Reporting ());
    put_report_shared =
      put_shared t ~role:Taxonomy.Reporting
        ~get:(fun () -> t.sh_report)
        ~set:(fun v -> t.sh_report <- Some v);
    stats =
      (fun hfl ->
        {
          (default.stats hfl) with
          shared_support_bytes = shared_bytes t.sh_support;
          shared_report_bytes = shared_bytes t.sh_report;
        });
    process_packet = process_packet t;
  }

(* ------------------------------------------------------------------ *)
(* Synthetic event generation (§8.3: events are 128 bytes)             *)
(* ------------------------------------------------------------------ *)

let event_packet t i =
  (* 128 bytes total: header (54) + one token (64) + 10 trailing. *)
  let key = key_for i in
  let src =
    match key with
    | Hfl.Src_ip p :: _ -> Addr.prefix_base p
    | _ -> Addr.of_string "10.0.0.1"
  in
  Packet.make
    ~body:(Packet.Raw (Payload.of_tokens_trailing [| i |] ~trailing:10))
    ~id:(900000 + i)
    ~ts:(Engine.now (Mb_base.engine t.base))
    ~src_ip:src ~dst_ip:(Addr.of_string "1.1.1.1") ~src_port:(10000 + i) ~dst_port:80
    ~proto:Packet.Tcp ()

let rec schedule_events t ~rate_pps =
  let interval = Time.seconds (1.0 /. rate_pps) in
  let h =
    Engine.schedule_after (Mb_base.engine t.base) interval (fun () ->
        let n = max 1 (State_table.size t.support) in
        let i = t.event_rr mod n in
        t.event_rr <- t.event_rr + 1;
        let key =
          List.filter (fun f -> List.mem (Hfl.dim_of_field f) t.granularity) (key_for i)
        in
        Mb_base.raise_event t.base (Event.Reprocess { key; packet = event_packet t i });
        if t.event_task <> None then schedule_events t ~rate_pps)
  in
  t.event_task <- Some h

let stop_events t =
  (match t.event_task with Some h -> Engine.cancel h | None -> ());
  t.event_task <- None

let start_events t ~rate_pps =
  stop_events t;
  schedule_events t ~rate_pps

let reprocessed t = t.reprocessed
