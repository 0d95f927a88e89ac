(** Exact rational numbers over {!Bigint}.

    Values are kept normalized: the denominator is strictly positive and
    [gcd(num, den) = 1]. Zero is represented as [0/1]. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t
val half : t

(** {1 Construction} *)

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the normalized rational [num/den].
    @raise Division_by_zero when [den] is zero. *)

val of_bigint : Bigint.t -> t
val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints a b] is [a/b]. @raise Division_by_zero when [b = 0]. *)

val of_string : string -> t
(** Accepts ["p"], ["p/q"], and decimal notation ["3.25"] / ["-0.5"].
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option

(** {1 Accessors} *)

val num : t -> Bigint.t
val den : t -> Bigint.t

val to_float : t -> float
val to_string : t -> string

val to_decimal_string : ?places:int -> t -> string
(** Fixed-point decimal rendering, rounded half away from zero.
    Default [places] is 6. *)

(** {1 Predicates and comparison} *)

val sign : t -> int
val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t
val hash : t -> int

val bit_size : t -> int
(** Maximum of {!Bigint.num_bits} over numerator and denominator —
    the operand-size measure the observability layer histograms to
    detect coefficient blow-up during exact pivoting. [bit_size zero]
    is [1] (the denominator [1]); values grow without bound as
    intermediate LP/elimination results accumulate precision. *)

(** {1 Field operations} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** @raise Division_by_zero when the divisor is zero. *)

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val pow : t -> int -> t
(** Integer power; negative exponents invert.
    @raise Division_by_zero on [pow zero e] with [e < 0]. *)

val mul_int : t -> int -> t
val div_int : t -> int -> t

(** {1 Rounding} *)

val floor : t -> Bigint.t
val ceil : t -> Bigint.t

val round : t -> Bigint.t
(** Nearest integer, ties away from zero. *)

(** {1 Aggregates} *)

val sum : t list -> t
val of_float_dyadic : float -> t
(** Exact rational value of a finite float.
    @raise Invalid_argument on NaN or infinities. *)

(** {1 Pretty printing} *)

val pp : Format.formatter -> t -> unit

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end

(** {1 Approximation} *)

val approximate : max_den:Bigint.t -> t -> t
(** Best rational approximation with denominator at most [max_den],
    via continued fractions (exact when the input already qualifies).
    @raise Invalid_argument when [max_den < 1]. *)

val sqrt_exact : t -> t option
(** [Some r] when the value is the square of a rational; [None]
    otherwise (or when negative). *)
