(** The test- and bench-only LP oracle: an {!Lp.problem} solved by the
    dense full-tableau simplex instead of {!Lp.Solver}'s revised
    engine. Both start from the same {!Lp.standard_form}, densified
    here, so a cold solve of either must agree byte for byte — the
    qcheck property in test_lp and the [@lp-bench] gate compare them. *)

module Simplex = Simplex

val solve : Lp.problem -> Lp.outcome * Rat.t array option
(** Exact solve through {!Simplex.Exact}: the outcome in model
    coordinates and, on optimality, one dual per constraint with
    {!Lp.Solver.result}'s sign conventions. *)

(** {1 Floating-point mirror (for the numeric ablation)} *)

type float_outcome = Foptimal of float  (** the objective *) | Finfeasible | Funbounded

val solve_float : ?pricing:Lp.pricing -> Lp.problem -> float_outcome
(** The same standard form in floating point, solved by
    {!Simplex.Floating} under the requested pricing rule. Fast but
    untrustworthy on degenerate instances — see the ABL2 bench. *)
