(** Wire framing negotiated on each controller–MB channel.

    [Json] is the paper's prototype encoding (JSON-C over UNIX
    sockets) and the default; [Binary] is the compact encoding of
    {!Binary}.  Decoders distinguish the two by the first body byte
    ([Binary] bodies carry a [0x42] tag, JSON text starts with ['{']),
    so a JSON peer keeps working against a binary-capable one. *)

type t = Json | Binary
