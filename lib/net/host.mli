(** End host: a traffic sink that counts what it receives and keeps
    nothing, so it stays the same size however long the run. *)

type t

val create : name:string -> unit -> t
(** A sink that has received nothing. *)

val name : t -> string

val receive : t -> Packet.t -> unit
(** Packet delivery to this host: counted, then dropped. *)

val packets_received : t -> int

val clear : t -> unit
(** Reset the count. *)
