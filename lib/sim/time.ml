type t = float

let zero = 0.0
external seconds : float -> t = "%identity"
let ms m = m *. 1e-3
let us u = u *. 1e-6
external to_seconds : t -> float = "%identity"
let to_ms t = t *. 1e3
let to_us t = t *. 1e6
external compare : t -> t -> int = "%compare"
external ( + ) : t -> t -> t = "%addfloat"
external ( - ) : t -> t -> t = "%subfloat"
let max = Float.max
let min = Float.min
let pp fmt t = Format.fprintf fmt "%.3fs" t
