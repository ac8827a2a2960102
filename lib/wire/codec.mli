(** Wire descriptions with two framings.

    A ['a t] describes once how a value travels on the wire; the JSON
    and binary encoders and decoders and the exact binary size are all
    derived from it.  JSON writes an object's fields by name in
    description order, a union's tag field first; binary writes the
    same fields in the same order without names, a union's one-byte tag
    first.

    Decoders raise {!Binary.Decode_error}, and nothing else, on
    malformed input under either framing: wrong JSON shapes, unknown
    tags, truncated or trailing bytes, counts larger than the bytes
    left, and values the description's constructors reject. *)

type 'a t

(** {1 Primitives} *)

val u8 : int t
val u16 : int t
val u32 : int t
val uvarint : int t

val varint : int t
(** Big-endian fixed-width unsigned ints, LEB128 and zigzag LEB128 in
    binary; JSON numbers, range-checked on decode. *)

val float : float t
(** IEEE-754 bits in binary (exact, NaN included); a JSON number. *)

val bool : bool t
val string : string t

val json : Json.t t
(** Any JSON value: itself in JSON, a tagged tree in binary. *)

val enum : ('a -> string) -> 'a list -> 'a t
(** [enum name values]: the JSON string [name v]; in binary one byte,
    [v]'s position in [values] (constant constructors). *)

(** {1 Combinators} *)

val list : 'a t -> 'a list t
(** In binary a count, then the items; a count larger than the bytes
    left is rejected before anything is allocated. *)

val conv : ('a -> 'b) -> ('b -> 'a) -> 'b t -> 'a t
(** [conv encode decode c]; [decode] may reject a value with
    [Invalid_argument] or [Failure]. *)

val split : json:'a t -> binary:'a t -> 'a t
(** A value whose two forms differ in shape. *)

val json_null : 'a -> 'a t -> 'a t
(** [json_null v c] is [c] except that JSON writes [v] as [null]. *)

(** {1 Objects} *)

type ('r, 'k) fields
(** An object under construction: fields of an ['r] so far, and the
    part ['k] of ['r]'s constructor they have not yet fed. *)

type 'r obj = ('r, 'r) fields

val record : 'k -> ('r, 'k) fields
(** [record make |> field ... |> field ...]: the fields are [make]'s
    arguments, in order. *)

val field : string -> 'a t -> ('r -> 'a) -> ('r, 'a -> 'k) fields -> ('r, 'k) fields

val splice : 'a obj -> ('r -> 'a) -> ('r, 'a -> 'k) fields -> ('r, 'k) fields
(** All of an object's fields in place, e.g. a union whose tag sits in
    the enclosing object. *)

val obj1 : string -> 'a t -> 'a obj
val obj2 : string -> 'a t -> string -> 'b t -> ('a * 'b) obj

val obj3 : string -> 'a t -> string -> 'b t -> string -> 'c t -> ('a * 'b * 'c) obj
(** Objects of one, two or three named fields, carried as tuples. *)

val obj1_or : 'a -> string -> 'a t -> 'a obj
(** [obj1_or default]: JSON leaves the field out while it holds
    [default] and reads [default] when it is absent. *)

val obj : 'a obj -> 'a t
(** A JSON object; in binary its fields back to back. *)

(** {1 Tagged unions} *)

type 'a selected

(** One selector per case, in the order the cases are added. *)
module Select : sig
  type _ t = [] : unit t | ( :: ) : 'a * 'b t -> ('a * 'b) t
end

type 'a dispatch = Dispatch of ('a -> 'a selected) [@@unboxed]

type ('a, 'all, 'rest) cases
(** A union over ['a]; ['rest] are the selectors of cases to come. *)

val union : string -> ('all Select.t -> 'a dispatch) -> ('a, 'all, 'all) cases
(** [union tag destruct]: JSON names the tag field [tag];
    [destruct Select.[s1; ...]] maps each value to its case's selector
    applied to the case's payload. *)

val case :
  int -> string -> 'b obj -> ('b -> 'a) ->
  ('a, 'all, ('b -> 'a selected) * 'rest) cases -> ('a, 'all, 'rest) cases
(** [case tag name body make]: binary tag, JSON tag value, payload
    fields, and how to rebuild the value. *)

val case2 :
  int -> string -> ('b * 'c) obj -> ('b -> 'c -> 'a) ->
  ('a, 'all, ('b -> 'c -> 'a selected) * 'rest) cases -> ('a, 'all, 'rest) cases
(** A two-part payload, passed curried so naming builds no pair. *)

val untagged :
  int -> 'b obj -> ('b -> 'a) ->
  ('a, 'all, ('b -> 'a selected) * 'rest) cases -> ('a, 'all, 'rest) cases
(** A case whose JSON carries no tag of its own (its body splices an
    inner union); JSON tag values no other case names select it. *)

val variant : ('a, 'all, unit) cases -> 'a obj

val case_name : ('a, 'all, unit) cases -> 'a -> string
(** The JSON tag value of a value's case; allocates nothing. *)

val splice_after_tag :
  'h obj -> ('r -> 'h) -> 'a obj -> ('r -> 'a) -> ('r, 'h -> 'a -> 'k) fields -> ('r, 'k) fields
(** [splice_after_tag h _ u _] splices union [u] with [h]'s fields:
    JSON writes them right after [u]'s tag field, binary right before
    its tag byte. *)

(** {1 Framings} *)

val encode : Framing.t -> 'a t -> 'a -> string
(** JSON text, or a binary body behind a [0x42] tag byte. *)

val decode : 'a t -> string -> 'a
(** Either framing, told apart by the first byte. *)

val binary_size : 'a t -> 'a -> int
(** [String.length (encode Binary c v)], without building the bytes. *)
