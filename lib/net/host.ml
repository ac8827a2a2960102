type t = { name : string; mutable rx_count : int }

let create ~name () = { name; rx_count = 0 }
let name t = t.name
let receive t (_ : Packet.t) = t.rx_count <- t.rx_count + 1
let packets_received t = t.rx_count
let clear t = t.rx_count <- 0
