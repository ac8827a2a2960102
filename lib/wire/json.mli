(** Minimal JSON implementation.

    OpenMB's controller and middleboxes exchange JSON messages (the
    paper uses JSON-C over UNIX sockets).  The container has no JSON
    package installed, so this module provides the value type, a
    printer and a parser.  It supports the full JSON grammar except
    that numbers are split into [Int] and [Float] on parse ([Int] when
    the literal has no fraction/exponent and fits in an OCaml [int]),
    and that a literal too large for a double is rejected. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list
      (** Object fields in insertion order; duplicate keys are
          preserved by the printer and resolved to the first occurrence
          by {!member}. *)

exception Parse_error of string
(** Raised by {!of_string} on malformed input, with a description
    including the offending position. *)

val to_string : t -> string
(** Compact (no-whitespace) serialization. *)

val to_string_pretty : t -> string
(** Two-space-indented serialization for logs and examples. *)

val of_string : string -> t
(** Parse a JSON document.  Raises {!Parse_error} on malformed input or
    trailing garbage. *)

val wire_size : t -> int
(** Byte length of {!to_string}; used for simulated transfer costs. *)

(** {1 Accessors}

    Accessors raise [Invalid_argument] when the value has the wrong
    shape, to fail fast on protocol violations. *)

val member : string -> t -> t
(** [member key (Assoc _)] is the value bound to [key], or [Null] if
    absent. *)

val mem : string -> t -> bool
(** [mem key j] is [true] iff [j] is an object with field [key]. *)

val get_string : t -> string
(** Contents of a [String]. *)

val get_int : t -> int
(** Contents of an [Int] (also accepts an integral [Float]). *)

val get_float : t -> float
(** Contents of a [Float] or [Int]. *)

val get_bool : t -> bool
(** Contents of a [Bool]. *)

val get_list : t -> t list
(** Contents of a [List]. *)

val equal : t -> t -> bool
(** Structural equality; object field order is significant. *)
