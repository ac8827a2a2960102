open Openmb_sim

(* Structure-of-arrays packet vector.

   The batch path amortizes per-packet engine events, telemetry updates
   and dispatch overhead over vectors of packets.  The hot columns —
   packed five-tuple key words, wire size, arrival time —
   are parallel int/float arrays so a classification pass touches flat
   memory and never follows a [Packet.t] pointer; the packet records
   themselves ride in a payload slot array for the scalar sidecars
   (wildcard rule matches, middlebox state updates, punts).

   Batches are pooled and reused like the engine's event cells: a
   steady-state chain allocates no batch structure per window.  A batch
   posted to another shard is {!detach}ed first — pools are
   single-domain, so the receiving shard's release must not touch the
   sender's free list. *)

type pool = {
  (* Free batches as an array stack: a release allocates nothing. *)
  mutable free : b array;
  mutable n_free : int;
  mutable created : int;  (* batches ever built by this pool *)
  mutable outstanding : int;  (* allocated and not yet released *)
  mutable high_water : int;
  hw_gauge : Telemetry.gauge;
}

and b = {
  mutable len : int;
  mutable ka : int array;  (* packed word a: src_ip:32 | src_port:16 *)
  mutable kb : int array;  (* packed word b: dst_ip:32 | dst_port:16 | proto:2 *)
  mutable khash : int array;  (* precomputed packed hash *)
  mutable size : int array;  (* wire bytes, precomputed at push *)
  mutable arrival : float array;  (* packet timestamp, seconds *)
  mutable pkts : Packet.t array;  (* payload slots for the scalar sidecars *)
  mutable dead : Bytes.t;  (* drop marks, swept by [compact] *)
  mutable home : pool option;  (* release target; [None] = GC-owned *)
}

type t = b

let default_capacity = 64

(* Slot filler for unused [pkts] cells, so a released batch retains no
   packet (and its payload) beyond its own lifetime. *)
let dummy_packet =
  lazy
    (Packet.make ~id:(-1) ~ts:Time.zero ~src_ip:(Addr.of_int 0)
       ~dst_ip:(Addr.of_int 0) ~src_port:0 ~dst_port:0 ~proto:Packet.Tcp ())

let make ?(capacity = default_capacity) home =
  let capacity = if capacity < 1 then 1 else capacity in
  {
    len = 0;
    ka = Array.make capacity 0;
    kb = Array.make capacity 0;
    khash = Array.make capacity 0;
    size = Array.make capacity 0;
    arrival = Array.make capacity 0.0;
    pkts = Array.make capacity (Lazy.force dummy_packet);
    dead = Bytes.make capacity '\000';
    home;
  }

let create ?capacity () = make ?capacity None

let length b = b.len
let capacity b = Array.length b.ka

let grow b =
  let cap = Array.length b.ka in
  let ncap = 2 * cap in
  let gi a = Array.append a (Array.make cap 0) in
  b.ka <- gi b.ka;
  b.kb <- gi b.kb;
  b.khash <- gi b.khash;
  b.size <- gi b.size;
  b.arrival <- Array.append b.arrival (Array.make cap 0.0);
  b.pkts <- Array.append b.pkts (Array.make cap (Lazy.force dummy_packet));
  let d = Bytes.make ncap '\000' in
  Bytes.blit b.dead 0 d 0 cap;
  b.dead <- d

(* Fill row [i]'s derived columns from packet [p].  The key words come
   straight off the header fields — no intermediate packed record. *)
let fill b i (p : Packet.t) =
  let pa = Five_tuple.word_a_packet p and pb = Five_tuple.word_b_packet p in
  b.ka.(i) <- pa;
  b.kb.(i) <- pb;
  b.khash.(i) <- Five_tuple.hash_words ~pa ~pb;
  b.size.(i) <- Packet.wire_bytes p;
  b.arrival.(i) <- Time.to_seconds p.ts;
  b.pkts.(i) <- p

let push b p =
  if b.len = Array.length b.ka then grow b;
  let i = b.len in
  fill b i p;
  Bytes.unsafe_set b.dead i '\000';
  b.len <- i + 1

let get b i = b.pkts.(i)

(* Replace member [i] (a NAT/LB rewrite): the key and size columns are
   re-derived so the next hop classifies the translated packet. *)
let set b i p = fill b i p

let key_a b = b.ka
let key_b b = b.kb
let key_hash b = b.khash
let sizes b = b.size
let arrival b i = Time.seconds b.arrival.(i)

let total_bytes b =
  let acc = ref 0 in
  for i = 0 to b.len - 1 do
    acc := !acc + Array.unsafe_get b.size i
  done;
  !acc

let drop b i = Bytes.unsafe_set b.dead i '\001'
let is_dropped b i = Bytes.unsafe_get b.dead i <> '\000'

(* Sweep drop-marked members, preserving the order of survivors: the
   in-place compaction pass that keeps per-flow FIFO intact through
   middleboxes that deny/translate per packet.  Returns how many rows
   went. *)
let compact b =
  let n = b.len in
  let w = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.unsafe_get b.dead i = '\000' then begin
      let w' = !w in
      if w' <> i then begin
        b.ka.(w') <- b.ka.(i);
        b.kb.(w') <- b.kb.(i);
        b.khash.(w') <- b.khash.(i);
        b.size.(w') <- b.size.(i);
        b.arrival.(w') <- b.arrival.(i);
        b.pkts.(w') <- b.pkts.(i)
      end;
      incr w
    end
  done;
  let kept = !w in
  let dummy = Lazy.force dummy_packet in
  for i = kept to n - 1 do
    b.pkts.(i) <- dummy;
    Bytes.unsafe_set b.dead i '\000'
  done;
  Bytes.fill b.dead 0 kept '\000';
  b.len <- kept;
  n - kept

let clear b =
  let dummy = Lazy.force dummy_packet in
  for i = 0 to b.len - 1 do
    b.pkts.(i) <- dummy
  done;
  Bytes.fill b.dead 0 b.len '\000';
  b.len <- 0

let iter b f =
  for i = 0 to b.len - 1 do
    f b.pkts.(i)
  done

(* ------------------------------------------------------------------ *)
(* Pooling                                                             *)
(* ------------------------------------------------------------------ *)

let pool ?telemetry () =
  let hw_gauge =
    match telemetry with
    | Some tel -> Telemetry.gauge tel "batch.pool_outstanding"
    | None -> Telemetry.null_gauge
  in
  { free = [||]; n_free = 0; created = 0; outstanding = 0; high_water = 0; hw_gauge }

let alloc ?capacity p =
  let b =
    if p.n_free > 0 then begin
      p.n_free <- p.n_free - 1;
      p.free.(p.n_free)
    end
    else begin
      p.created <- p.created + 1;
      make ?capacity (Some p)
    end
  in
  p.outstanding <- p.outstanding + 1;
  if p.outstanding > p.high_water then p.high_water <- p.outstanding;
  Telemetry.set_gauge p.hw_gauge p.outstanding;
  b

let detach b = b.home <- None

let release b =
  clear b;
  match b.home with
  | None -> ()  (* unpooled or detached (cross-shard): GC reclaims it *)
  | Some p ->
    p.outstanding <- p.outstanding - 1;
    Telemetry.set_gauge p.hw_gauge p.outstanding;
    if p.n_free = Array.length p.free then begin
      let grown = Array.make (max 8 (2 * p.n_free)) b in
      Array.blit p.free 0 grown 0 p.n_free;
      p.free <- grown
    end;
    p.free.(p.n_free) <- b;
    p.n_free <- p.n_free + 1

let singleton p pkt =
  let b = alloc p in
  push b pkt;
  b

let drain b f =
  iter b f;
  release b

let pool_created p = p.created
let pool_outstanding p = p.outstanding
let pool_high_water p = p.high_water
