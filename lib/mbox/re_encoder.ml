open Openmb_sim
open Openmb_wire
open Openmb_net
open Openmb_core

type mode = Explicit | Implicit

(* One per-decoder encoding context: cache + fingerprint table mapping
   a token value to its most recent absolute offset. *)
type ctx = {
  cache : Re_cache.t;
  fingerprints : (int, int) Hashtbl.t;
  mutable ctx_encoded_bytes : int;
}

type t = {
  base : Mb_base.t;
  mode : mode;
  capacity : int;
  mutable ctxs : ctx array;
  mutable flows : (Addr.prefix * int) list;  (* CacheFlows: prefix -> cache index *)
}

let default_cost : Southbound.cost_model =
  {
    per_packet = Time.us 390.0;
    op_slowdown = 1.02;
    scan_per_entry = Time.us 1.0;
    serialize_per_chunk = Time.ms 2.0;
    serialize_per_byte = Time.us 0.5;
    deserialize_per_chunk = Time.ms 1.0;
    deserialize_per_byte = Time.us 0.25;
  }

let new_ctx capacity =
  { cache = Re_cache.create ~capacity (); fingerprints = Hashtbl.create 4096;
    ctx_encoded_bytes = 0 }

let clone_ctx c =
  {
    cache = Re_cache.clone c.cache;
    fingerprints = Hashtbl.copy c.fingerprints;
    ctx_encoded_bytes = c.ctx_encoded_bytes;
  }

let base t = t.base
let num_caches t = Array.length t.ctxs

let cache t i =
  if i < 0 || i >= Array.length t.ctxs then invalid_arg "Re_encoder.cache: bad index";
  t.ctxs.(i).cache

let cache_index_for t (p : Packet.t) =
  let rec scan = function
    | [] -> 0
    | (prefix, idx) :: rest -> if Addr.in_prefix p.dst_ip prefix then idx else scan rest
  in
  let idx = scan t.flows in
  if idx < Array.length t.ctxs then idx else 0

(* Greedy longest-match encoding over the token sequence. *)
let encode_payload ctx payload =
  let tokens = Payload.tokens payload in
  let n = Array.length tokens in
  let segments = ref [] in
  let lit_start = ref 0 in
  let flush_literal upto =
    if upto > !lit_start then
      segments :=
        Packet.Literal (Payload.of_tokens (Array.sub tokens !lit_start (upto - !lit_start)))
        :: !segments
  in
  let matched_tokens = ref 0 in
  let i = ref 0 in
  while !i < n do
    let token = tokens.(!i) in
    let hit =
      match Hashtbl.find_opt ctx.fingerprints token with
      | Some off when Re_cache.in_window ctx.cache off && Re_cache.read ctx.cache ~offset:off = Some token ->
        Some off
      | Some _ | None -> None
    in
    (match hit with
    | Some off ->
      (* Extend the match as far as cache and payload agree. *)
      let len = ref 1 in
      while
        !i + !len < n
        && Re_cache.read ctx.cache ~offset:(off + !len) = Some tokens.(!i + !len)
      do
        incr len
      done;
      flush_literal !i;
      segments := Packet.Shim { offset = off; len = !len } :: !segments;
      matched_tokens := !matched_tokens + !len;
      i := !i + !len;
      lit_start := !i
    | None -> incr i)
  done;
  flush_literal n;
  (List.rev !segments, !matched_tokens)

let append_and_index ctx tokens =
  let bse = Re_cache.append ctx.cache tokens in
  Array.iteri (fun i token -> Hashtbl.replace ctx.fingerprints token (bse + i)) tokens;
  bse

let encode t (p : Packet.t) =
  match p.body with
  | Packet.Encoded _ -> p (* already encoded upstream; pass through *)
  | Packet.Raw payload ->
    if Payload.token_count payload = 0 then p
    else begin
      let idx = cache_index_for t p in
      let ctx = t.ctxs.(idx) in
      let segments, matched = encode_payload ctx payload in
      let tokens = Payload.tokens payload in
      let append_base = append_and_index ctx tokens in
      (* Caches cloned by NumCaches but not yet given their own traffic
         by CacheFlows mirror every append, so they stay identical to
         the original cache until the split takes effect (§6.1). *)
      let assigned i = i = 0 || List.exists (fun (_, j) -> j = i) t.flows in
      Array.iteri
        (fun i other ->
          if i <> idx && not (assigned i) then ignore (append_and_index other tokens))
        t.ctxs;
      ctx.ctx_encoded_bytes <- ctx.ctx_encoded_bytes + (matched * Payload.token_bytes);
      let append_base = match t.mode with Explicit -> append_base | Implicit -> -1 in
      { p with body = Packet.Encoded { cache_id = idx; append_base; segments; orig = payload } }
    end

let encode_member t p ~side_effects:_ = encode t p

let create engine ?telemetry ?(cost = default_cost) ?(capacity_tokens = 65536)
    ?(mode = Explicit) ~name () =
  let base = Mb_base.create engine ?telemetry ~name ~kind:"re-encoder" ~cost () in
  Config_tree.set (Mb_base.config base) [ "NumCaches" ] [ Json.Int 1 ];
  Config_tree.set (Mb_base.config base) [ "CacheFlows" ] [];
  let t =
    {
      base;
      mode;
      capacity = capacity_tokens;
      ctxs = [| new_ctx capacity_tokens |];
      flows = [];
    }
  in
  Mb_base.set_work base (Mb_base.process_batch base encode_member t);
  t

let receive t p = Mb_base.inject t.base p ~side_effects:true
let receive_batch t b = Mb_base.inject_batch t.base b ~side_effects:true

(* ------------------------------------------------------------------ *)
(* Configuration hooks                                                 *)
(* ------------------------------------------------------------------ *)

let set_num_caches t n =
  if n < 1 then Error (Errors.Op_failed "NumCaches must be >= 1")
  else begin
    let cur = Array.length t.ctxs in
    if n > cur then begin
      (* Clone the original cache into each new slot (§6.1 step 3). *)
      let fresh = Array.init (n - cur) (fun _ -> clone_ctx t.ctxs.(0)) in
      t.ctxs <- Array.append t.ctxs fresh;
      Mb_base.record t.base ~kind:"config"
        ~detail:(fun () -> Printf.sprintf "NumCaches %d->%d (cloned cache 0)" cur n)
    end
    else if n < cur then t.ctxs <- Array.sub t.ctxs 0 n;
    Ok ()
  end

let set_cache_flows t values =
  match
    List.mapi
      (fun i v ->
        match v with
        | Json.String s -> (Addr.prefix_of_string s, i)
        | _ -> invalid_arg "CacheFlows values must be prefix strings")
      values
  with
  | flows ->
    t.flows <- flows;
    Mb_base.record t.base ~kind:"config"
      ~detail:(fun () ->
        "CacheFlows "
        ^ String.concat ","
            (List.map (fun (p, i) -> Printf.sprintf "%s->%d" (Addr.prefix_to_string p) i) flows));
    Ok ()
  | exception Invalid_argument msg -> Error (Errors.Op_failed msg)

let set_config t path values =
  let store () =
    match Config_tree.set (Mb_base.config t.base) path values with
    | () -> Ok ()
    | exception Invalid_argument msg -> Error (Errors.Op_failed msg)
  in
  match path with
  | [ "NumCaches" ] -> (
    match values with
    | [ Json.Int n ] -> (
      match set_num_caches t n with Ok () -> store () | Error e -> Error e)
    | _ -> Error (Errors.Op_failed "NumCaches expects a single integer"))
  | [ "CacheFlows" ] -> (
    match set_cache_flows t values with Ok () -> store () | Error e -> Error e)
  | _ -> store ()

(* The encoder's caches are shared supporting state; exporting them is
   supported for completeness (a single chunk holding every cache),
   though the control applications use the internal NumCaches clone. *)
let serialize_all t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "%d\n" (Array.length t.ctxs));
  Array.iter
    (fun ctx ->
      let s = Re_cache.serialize ctx.cache in
      Buffer.add_string buf (Printf.sprintf "%d\n" (String.length s));
      Buffer.add_string buf s)
    t.ctxs;
  Buffer.contents buf

let deserialize_all s =
  let fail () = invalid_arg "Re_encoder: corrupt cache bundle" in
  (* A count: decimal digits up to the next newline, at most the bundle's length. *)
  let count_at pos =
    let nl = match String.index_from_opt s pos '\n' with Some nl -> nl | None -> fail () in
    let digits = String.sub s pos (nl - pos) in
    match int_of_string_opt digits with
    | Some n when String.for_all (fun c -> '0' <= c && c <= '9') digits && n <= String.length s ->
      (n, nl + 1)
    | _ -> fail ()
  in
  let n, first = count_at 0 in
  let pos = ref first in
  let ctxs =
    Array.init n (fun _ ->
        let len, start = count_at !pos in
        let cache = Re_cache.deserialize (String.sub s start len) in
        pos := start + len;
        let fingerprints = Hashtbl.create 4096 in
        (* Rebuild fingerprints from resident contents. *)
        for off = max 0 (Re_cache.pos cache - Re_cache.capacity cache) to Re_cache.pos cache - 1 do
          match Re_cache.read cache ~offset:off with
          | Some token -> Hashtbl.replace fingerprints token off
          | None -> ()
        done;
        { cache; fingerprints; ctx_encoded_bytes = 0 })
  in
  if !pos <> String.length s then fail ();
  ctxs

let impl t =
  let default = Mb_base.default_impl t.base () in
  {
    default with
    set_config = set_config t;
    get_support_shared =
      (fun () ->
        Ok
          (Some
             (Mb_base.seal_raw t.base ~role:Taxonomy.Supporting ~partition:Taxonomy.Shared
                ~key:Hfl.any (serialize_all t))));
    put_support_shared =
      Mb_base.import t.base ~role:Taxonomy.Supporting ~partition:Taxonomy.Shared
        ~decode:deserialize_all (fun _ ctxs -> t.ctxs <- ctxs);
    stats =
      (fun _ ->
        {
          Southbound.empty_stats with
          shared_support_bytes = Chunk.sealed_size (serialize_all t);
        });
  }

let encoded_bytes t = Array.fold_left (fun acc c -> acc + c.ctx_encoded_bytes) 0 t.ctxs
