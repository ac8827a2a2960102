open Openmb_net

type t =
  | Reprocess of { key : Hfl.t; packet : Packet.t }
  | Introspect of { code : string; key : Hfl.t; info : Openmb_wire.Json.t }

let key = function Reprocess { key; _ } -> key | Introspect { key; _ } -> key

let describe = function
  | Reprocess { key; packet } ->
    Printf.sprintf "reprocess key=%s pkt=%s" (Hfl.to_string key)
      (Packet.flow_label packet)
  | Introspect { code; key; _ } ->
    Printf.sprintf "introspect %s key=%s" code (Hfl.to_string key)

module Filter = struct
  type event = t

  type enablement = { codes : string list; key : Hfl.t }

  type t = { mutable enabled : enablement list }

  let create () = { enabled = [] }

  let enable t ~codes ~key = t.enabled <- { codes; key } :: t.enabled

  let disable t ~codes =
    match codes with
    | [] -> t.enabled <- []
    | codes ->
      t.enabled <-
        List.filter
          (fun e ->
            e.codes <> [] && not (List.exists (fun c -> List.mem c e.codes) codes))
          t.enabled

  (* Written out rather than as [List.exists] over a closure: an MB asks
     this for every event it could raise, before building the event. *)
  let rec admitted code key = function
    | [] -> false
    | e :: rest ->
      ((match e.codes with [] -> true | codes -> List.mem code codes)
      && Hfl.subsumes e.key key)
      || admitted code key rest

  let admits_introspect t ~code ~key = admitted code key t.enabled

  let admits t = function
    | Reprocess _ -> true
    | Introspect { code; key; _ } -> admits_introspect t ~code ~key
end
