(* Ring storage: slot s = offset mod capacity holds the token for the
   single absolute offset recorded in [offs.(s)] (-1 = empty).  Reads
   verify the recorded offset, which implements windowing for free. *)

type t = {
  cap : int;
  toks : int array;
  offs : int array;
  mutable head : int;
}

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Re_cache.create: capacity must be positive";
  { cap = capacity; toks = Array.make capacity 0; offs = Array.make capacity (-1); head = 0 }

let capacity t = t.cap
let pos t = t.head

let write t ~offset ~token =
  let s = offset mod t.cap in
  t.toks.(s) <- token;
  t.offs.(s) <- offset;
  if offset >= t.head then t.head <- offset + 1

let append t tokens =
  let base = t.head in
  Array.iteri (fun i token -> write t ~offset:(base + i) ~token) tokens;
  base

let in_window t offset = offset >= 0 && offset >= t.head - t.cap && offset < t.head

let read t ~offset =
  if offset < 0 then None
  else
    let s = offset mod t.cap in
    if t.offs.(s) = offset then Some t.toks.(s) else None

let read_run t ~offset ~len =
  let out = Array.make len 0 in
  let rec go i =
    if i >= len then Some out
    else
      match read t ~offset:(offset + i) with
      | Some token ->
        out.(i) <- token;
        go (i + 1)
      | None -> None
  in
  if len <= 0 then Some [||] else go 0

let resident_tokens t =
  Array.fold_left (fun acc o -> if o >= 0 then acc + 1 else acc) 0 t.offs

let clone t =
  { cap = t.cap; toks = Array.copy t.toks; offs = Array.copy t.offs; head = t.head }

(* ------------------------------------------------------------------ *)
(* Binary serialization                                                *)
(* ------------------------------------------------------------------ *)

let put_i64 buf v =
  for i = 7 downto 0 do
    Buffer.add_char buf (Char.chr ((v lsr (i * 8)) land 0xFF))
  done

let get_i64 s pos =
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code s.[pos + i]
  done;
  !v

let magic = "REC1"

let serialize t =
  (* Header, then resident entries as maximal contiguous runs:
     (start offset, length, tokens...). *)
  let buf = Buffer.create (resident_tokens t * 9) in
  Buffer.add_string buf magic;
  put_i64 buf t.cap;
  put_i64 buf t.head;
  let n_res = resident_tokens t in
  let resident = Array.make n_res 0 in
  let idx = ref 0 in
  Array.iter
    (fun o ->
      if o >= 0 then begin
        resident.(!idx) <- o;
        incr idx
      end)
    t.offs;
  Array.sort Int.compare resident;
  (* Group sorted offsets into maximal contiguous (start, length) runs. *)
  let run_list = ref [] in
  let i = ref 0 in
  while !i < n_res do
    let start = resident.(!i) in
    let j = ref !i in
    while !j + 1 < n_res && resident.(!j + 1) = resident.(!j) + 1 do
      incr j
    done;
    run_list := (start, !j - !i + 1) :: !run_list;
    i := !j + 1
  done;
  let run_list = List.rev !run_list in
  put_i64 buf (List.length run_list);
  List.iter
    (fun (start, len) ->
      put_i64 buf start;
      put_i64 buf len;
      for off = start to start + len - 1 do
        match read t ~offset:off with
        | Some token -> put_i64 buf token
        | None -> assert false
      done)
    run_list;
  Buffer.contents buf

let deserialize s =
  let fail () = invalid_arg "Re_cache.deserialize: corrupt input" in
  if String.length s < 28 || String.sub s 0 4 <> magic then fail ();
  let cap = get_i64 s 4 in
  let head = get_i64 s 12 in
  if cap <= 0 then fail ();
  let t = create ~capacity:cap () in
  let nruns = get_i64 s 20 in
  let pos = ref 28 in
  let need n = if !pos + n > String.length s then fail () in
  for _ = 1 to nruns do
    need 16;
    let start = get_i64 s !pos in
    let len = get_i64 s (!pos + 8) in
    pos := !pos + 16;
    need (len * 8);
    for i = 0 to len - 1 do
      write t ~offset:(start + i) ~token:(get_i64 s !pos);
      pos := !pos + 8
    done
  done;
  if !pos <> String.length s then fail ();
  t.head <- head;
  t

let equal_contents a b =
  a.head = b.head
  &&
  let ok = ref true in
  Array.iteri
    (fun s o -> if o >= 0 && read b ~offset:o <> Some a.toks.(s) then ok := false)
    a.offs;
  Array.iteri
    (fun s o -> if o >= 0 && read a ~offset:o <> Some b.toks.(s) then ok := false)
    b.offs;
  !ok
