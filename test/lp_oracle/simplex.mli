(** Two-phase primal simplex on the dense tableau.

    Solves the standard-form problem {v min c.x  s.t.  A x = b, x >= 0 v}.

    The functor gives both the exact solver (over {!Linalg.Field.Rational}:
    optimal privacy mechanisms sit at highly degenerate vertices where
    floating point mis-classifies tight constraints) and a
    floating-point mirror used for the numeric ablation. The exact
    instance is the reference the production revised simplex
    ([Lp.Revised]) replicates decision for decision; tests and benches
    compare the two.

    Implementation choices (see the ABL1 bench for their measured
    impact): Dantzig pricing with a lexicographic ratio test and a
    Bland's-rule backstop against stalls; a crash basis adopting
    slack-like singleton columns so only equality-style rows need
    artificial variables. *)

module Make (F : Linalg.Field.S) : sig
  module Budget = Resilience.Budget
  module Solver_error = Resilience.Solver_error
  module Fault = Resilience.Fault

  type result =
    | Optimal of F.t * F.t array  (** objective value, primal solution *)
    | Failed of Solver_error.t
        (** infeasible, unbounded, or — under a {!Budget.t} or an
            ambient {!Fault.plan} — exhausted mid-phase, with the
            stage, pivots spent and peak coefficient bits. *)

  type pricing = Lp.pricing = Dantzig_lex | Bland

  val solve_standard :
    ?pricing:pricing ->
    ?crash:bool ->
    ?budget:Budget.t ->
    a:F.t array array ->
    b:F.t array ->
    c:F.t array ->
    unit ->
    result
  (** [crash] (default true) enables the singleton-column crash basis.
      [budget] bounds the solve: the guard checks the fault registry
      and every budget dimension once per pricing iteration at the
      sites ["simplex.phase1"] / ["simplex.phase2"], so exhaustion is
      detected before the offending pivot, never after. Without a
      budget or an ambient fault plan the per-iteration cost is one
      field read and the pivot sequence is byte-identical to the
      unguarded solver.
      @raise Invalid_argument on shape mismatches. *)

  val solve_standard_with_duals :
    ?pricing:pricing ->
    ?crash:bool ->
    ?budget:Budget.t ->
    a:F.t array array ->
    b:F.t array ->
    c:F.t array ->
    unit ->
    result * F.t array option
  (** Like {!solve_standard} but also returns, on optimality, the dual
      vector [y] (one entry per row, original row orientation). It
      satisfies strong duality [y·b = objective] and dual feasibility
      [c_j − y·A_j >= 0] for every column — a complete optimality
      certificate that the test suite checks independently. *)

  val check_feasible : a:F.t array array -> b:F.t array -> F.t array -> bool
  (** Independent certificate: non-negativity and [Ax = b]. *)
end

module Exact : module type of Make (Linalg.Field.Rational)
module Floating : module type of Make (Linalg.Field.Float_field)
