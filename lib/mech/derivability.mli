(** Theorem 2: which mechanisms can be derived from the geometric?

    [M] is derivable from [G(n,α)] (that is, [M = G·T] for some
    row-stochastic [T]) iff every three consecutive entries
    [x1, x2, x3] in every column satisfy
    [(1 + α²)·x2 − α·(x1 + x3) >= 0], given that [M] is α-DP.

    Both directions are implemented — the syntactic test and the
    constructive factorization [T = G⁻¹·M] — and validate each other in
    the test suite. *)

type violation = {
  column : int;
  row : int;  (** index of the middle entry [x2] *)
  slack : Rat.t;  (** [(1+α²)·x2 − α·(x1+x3)], negative for violations *)
}

val satisfies_condition : alpha:Rat.t -> Mechanism.t -> bool

val factor : alpha:Rat.t -> Mechanism.t -> Rat.t array array
(** The unique generalized-stochastic [T] with [M = G(n,α)·T]
    (exists because [det G > 0], Lemma 1). Not necessarily
    non-negative. *)

type verdict =
  | Derivable of Rat.t array array  (** the row-stochastic post-processing [T] *)
  | Not_derivable of violation list  (** Theorem-2 witnesses *)

val derive : alpha:Rat.t -> Mechanism.t -> verdict

val is_derivable : alpha:Rat.t -> Mechanism.t -> bool

val appendix_b_mechanism : unit -> Mechanism.t
(** The paper's Appendix-B counterexample: ½-DP yet not derivable from
    [G(3,½)]. *)
