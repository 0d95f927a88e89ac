(** Minimal JSON values, rendering and parsing for diagnostics and
    observability export.

    Deliberately tiny: diagnostics, certificates, traces and bench
    records must be machine-readable without pulling a JSON dependency
    into the build. Output is valid RFC-8259 JSON; exact rationals are
    encoded as strings (["3/7"]) so no precision is lost in transit.
    The parser accepts the same dialect it emits — in particular only
    integer numbers; anything with a fraction or exponent is rejected
    rather than silently rounded. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

val rat : Rat.t -> t
(** Exact encoding of a rational as a ["p/q"] (or ["p"]) string. *)

val escape : string -> string
(** JSON string-body escaping (quotes, backslash, control chars). *)

val to_string : t -> string
(** Compact single-line rendering. *)

val pp : Format.formatter -> t -> unit
(** Indented multi-line rendering for human eyes. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document. Whitespace-tolerant; rejects
    trailing garbage and non-integer numbers (floats would silently
    destroy exactness — encode rationals as strings instead).
    [\uXXXX] escapes are decoded to UTF-8. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the first binding of [k]; [None] on
    missing keys and non-objects. *)

val to_int_opt : t -> int option
val to_str_opt : t -> string option

(** {1 Decoding}

    The one set of field decoders every persisted format reads with
    (store payloads, session checkpoints and certificates, the analysis
    baseline). Each
    takes the context word its format's error messages start with, so
    a missing field reads ["<ctx> missing <name>"] and a mistyped one
    ["<ctx> field <name> is not a string"] (or [an integer], [a
    rational], [a list]). *)

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
val map_result : ('a -> ('b, 'e) result) -> 'a list -> ('b list, 'e) result
(** The first error in list order, or every result. *)

val field : ctx:string -> string -> t -> (t, string) result
val str_field : ctx:string -> string -> t -> (string, string) result
val int_field : ctx:string -> string -> t -> (int, string) result
val rat_field : ctx:string -> string -> t -> (Rat.t, string) result
(** A string field holding a {!rat}-encoded rational. *)

val list_field : ctx:string -> string -> t -> (t list, string) result
