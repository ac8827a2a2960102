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

val write : Buffer.t -> t -> unit
(** [write buf j] appends {!to_string}[ j] to [buf]. *)

val add_string : Buffer.t -> string -> unit
(** A string's quoted, escaped literal, as {!to_string} writes it. *)

val add_int : Buffer.t -> int -> unit
(** An int's literal, written without building a string. *)

val float_literal : float -> string
(** A float's literal, as {!to_string} writes it. *)

val wire_size : t -> int
(** Byte length of {!to_string}, counted without writing the text:
    allocation-free unless [t] holds a float, whose literal is
    formatted to measure it.  Used for simulated transfer costs. *)

val string_length : string -> int
(** Byte length of a string's escaped, quoted literal. *)

val int_length : int -> int
(** Byte length of an int's literal. *)

val float_length : float -> int
(** Byte length of a float's literal (formats it). *)

(** {1 Lexing}

    The scanner {!of_string} runs on, shared with {!Codec}'s readers so
    that both read whitespace, escapes, surrogate pairs and numbers
    alike.  Every function raises {!Parse_error} on malformed input. *)
module Lexer : sig
  type json := t

  type t = {
    mutable src : string;
    mutable pos : int;  (** The next byte to read. *)
    text : Buffer.t;  (** The last string token, decoded by {!string}. *)
    mutable int_value : int;  (** The last number token, when {!number} says it is an int. *)
    mutable num_start : int;  (** Where the last number token starts. *)
  }

  val create : unit -> t

  val reset : t -> string -> unit
  (** Read [src] from its first byte. *)

  val fail : t -> string -> 'a
  (** Raise {!Parse_error}, naming the position. *)

  val peek : t -> char option
  (** The next byte; allocates nothing. *)

  val advance : t -> unit
  val skip_ws : t -> unit
  val expect : t -> char -> unit

  val literal : t -> string -> unit
  (** Read ["null"], ["true"] or ["false"]. *)

  val finish : t -> unit
  (** Whitespace, then the end of the text: no trailing garbage. *)

  val opens : t -> char -> char -> bool
  (** [opens lx opening closing] reads the [opening] bracket at [pos]
      and the whitespace after it: [true] when an item follows, [false]
      when [closing] does (and is read). *)

  val more : t -> char -> bool
  (** After an item: whitespace, then [true] past a comma and the
      whitespace after it, [false] past the [closing] bracket. *)

  val string : t -> unit
  (** Decode the string token at [pos] into [text]. *)

  val string_is : t -> string -> bool
  (** Whether the token at [pos] is a string decoding to the given
      bytes, read in place unless it has escapes; when [true], [pos] is
      past the token. *)

  val number : t -> bool
  (** Read the number token at [pos]: [true] when it is an int (left in
      [int_value]), [false] when it is any other literal, which {!float} reads. *)

  val float : t -> float
  (** The last number token as a finite double. *)

  val value : t -> json
  (** Whitespace, then a value. *)

  val skip : t -> unit
  (** Step over the value at [pos], checking its structure but not its
      strings' escapes or its numbers: {!value} checks those. *)

  val skip_string : t -> unit
  (** Step over the string token at [pos], as {!skip} does. *)
end

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

val get_list : t -> t list
(** Contents of a [List]. *)

val equal : t -> t -> bool
(** Structural equality; object field order is significant. *)
