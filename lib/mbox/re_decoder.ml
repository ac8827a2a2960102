open Openmb_sim
open Openmb_wire
open Openmb_net
open Openmb_core

(* During a live migration two encoder-side caches (the original and
   its clone) briefly send interleaved streams through the same
   decoders.  The streams share an offset space up to the split point
   and diverge after it, so a single ring cannot hold both: the decoder
   keeps one ring per cache id, reading through to the other rings for
   offsets below the split (where the caches were mirrored and thus
   identical).  Outside migrations exactly one ring ever
   materializes. *)

type t = {
  base : Mb_base.t;
  mode : Re_encoder.mode;
  rings : (int, Re_cache.t) Hashtbl.t;
  capacity : int;
  mutable id : int;  (* ring exported by getSupportShared / CacheId config *)
  mutable cloned : bool;  (* raise re-process events on cache updates *)
  mutable decoded_bytes : int;
  mutable undecodable_bytes : int;
  mutable ok_pkts : int;
  mutable failed_pkts : int;
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

let base t = t.base

let ring t cid =
  match Hashtbl.find_opt t.rings cid with
  | Some r -> r
  | None ->
    let r = Re_cache.create ~capacity:t.capacity () in
    Hashtbl.replace t.rings cid r;
    r

let cache t = ring t t.id
let cache_id t = t.id

let shim_expanded_bytes segments =
  List.fold_left
    (fun acc seg ->
      match seg with
      | Packet.Shim { len; _ } -> acc + (len * Payload.token_bytes)
      | Packet.Literal _ -> acc)
    0 segments

(* Read one token for stream [cid]: its own ring first, then the other
   rings — sound for offsets below the caches' split point, where the
   encoder kept them mirrored and the contents are identical. *)
let read_token t cid ~offset =
  match Re_cache.read (ring t cid) ~offset with
  | Some _ as hit -> hit
  | None ->
    Hashtbl.fold
      (fun other r acc ->
        match acc with
        | Some _ -> acc
        | None -> if other = cid then None else Re_cache.read r ~offset)
      t.rings None

(* Reconstruct the payload.  Returns the token sequence, whether every
   shim resolved, and a per-token validity mask: tokens from literals
   or successful lookups are known-good, tokens from failed shim
   lookups are sentinels.  (An implicit-mode decoder that drifted
   produces wrong-but-"valid" content — exactly as undecodable as
   missing content, which the ground-truth comparison decides.) *)
let reconstruct t cid segments =
  let out = ref [] in
  let mask = ref [] in
  let complete = ref true in
  List.iter
    (fun seg ->
      match seg with
      | Packet.Literal p ->
        let toks = Payload.tokens p in
        out := toks :: !out;
        mask := Array.make (Array.length toks) true :: !mask
      | Packet.Shim { offset; len } ->
        let toks = Array.make len (-1) in
        let valid = Array.make len true in
        for i = 0 to len - 1 do
          match read_token t cid ~offset:(offset + i) with
          | Some token -> toks.(i) <- token
          | None ->
            complete := false;
            valid.(i) <- false
        done;
        out := toks :: !out;
        mask := valid :: !mask)
    segments;
  (Array.concat (List.rev !out), !complete, Array.concat (List.rev !mask))

let cache_update t cid packet tokens ~valid ~append_base ~side_effects =
  (match t.mode with
  | Re_encoder.Explicit ->
    (* Position-stamped writes into the stream's own ring; tokens from
       failed shim lookups are skipped rather than written as garbage,
       so one undecodable packet leaves a bounded gap instead of
       corrupting the cache. *)
    let r = ring t cid in
    Array.iteri
      (fun i token -> if valid.(i) then Re_cache.write r ~offset:(append_base + i) ~token)
      tokens
  | Re_encoder.Implicit ->
    (* Classic behaviour: the decoder appends whatever it reconstructed
       at its own head — the desynchronization the baselines exhibit. *)
    ignore (Re_cache.append (ring t cid) tokens));
  ignore side_effects;
  if t.cloned then
    Mb_base.raise_event t.base (Event.Reprocess { key = Hfl.any; packet })

let decode t (p : Packet.t) ~side_effects =
  match p.body with
  | Packet.Raw _ -> p
  | Packet.Encoded { cache_id; append_base; segments; orig } ->
    let shim_bytes = shim_expanded_bytes segments in
    let tokens, complete, valid = reconstruct t cache_id segments in
    let correct = complete && Payload.equal (Payload.of_tokens tokens) orig in
    cache_update t cache_id p tokens ~valid ~append_base ~side_effects;
    if correct then begin
      t.ok_pkts <- t.ok_pkts + 1;
      t.decoded_bytes <- t.decoded_bytes + shim_bytes;
      { p with body = Packet.Raw orig }
    end
    else begin
      t.failed_pkts <- t.failed_pkts + 1;
      t.undecodable_bytes <- t.undecodable_bytes + shim_bytes;
      Mb_base.record t.base ~kind:"undecodable"
        ~detail:(fun () -> Printf.sprintf "%dB of shims (cache %d)" shim_bytes cache_id);
      Mb_base.drop
    end

let create engine ?telemetry ?(cost = default_cost) ?(capacity_tokens = 65536)
    ?(mode = Re_encoder.Explicit) ~name () =
  let base = Mb_base.create engine ?telemetry ~name ~kind:"re-decoder" ~cost () in
  Config_tree.set (Mb_base.config base) [ "CacheId" ] [ Json.Int 0 ];
  Config_tree.set (Mb_base.config base) [ "SyncEvents" ] [ Json.Bool true ];
  let t =
    {
      base;
      mode;
      rings = Hashtbl.create 4;
      capacity = capacity_tokens;
      id = 0;
      cloned = false;
      decoded_bytes = 0;
      undecodable_bytes = 0;
      ok_pkts = 0;
      failed_pkts = 0;
    }
  in
  Mb_base.set_work base (Mb_base.process_batch base decode t);
  t

let receive t p = Mb_base.inject t.base p ~side_effects:true
let receive_batch t b = Mb_base.inject_batch t.base b ~side_effects:true

(* ------------------------------------------------------------------ *)
(* Southbound implementation                                           *)
(* ------------------------------------------------------------------ *)

let set_config t path values =
  let store () =
    match Config_tree.set (Mb_base.config t.base) path values with
    | () -> Ok ()
    | exception Invalid_argument msg -> Error (Errors.Op_failed msg)
  in
  match (path, values) with
  | [ "CacheId" ], [ Json.Int id ] ->
    t.id <- id;
    store ()
  | [ "SyncEvents" ], [ Json.Bool b ] ->
    t.cloned <- t.cloned && b;
    store ()
  | _ -> store ()

let impl t =
  let default = Mb_base.default_impl t.base () in
  {
    default with
    set_config = set_config t;
    get_support_shared =
      (fun () ->
        t.cloned <- true;
        Ok
          (Some
             (Mb_base.seal_raw t.base ~role:Taxonomy.Supporting ~partition:Taxonomy.Shared
                ~key:Hfl.any
                (Re_cache.serialize (cache t)))));
    put_support_shared =
      Mb_base.import t.base ~role:Taxonomy.Supporting ~partition:Taxonomy.Shared
        ~decode:Re_cache.deserialize (fun _ imported -> Hashtbl.replace t.rings t.id imported);
    stats =
      (fun _ ->
        {
          Southbound.empty_stats with
          shared_support_bytes = Chunk.sealed_size (Re_cache.serialize (cache t));
        });
  }

let decoded_bytes t = t.decoded_bytes
let undecodable_bytes t = t.undecodable_bytes
let packets_decoded t = t.ok_pkts
let packets_failed t = t.failed_pkts
