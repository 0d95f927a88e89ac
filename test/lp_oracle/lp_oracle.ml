(* The test- and bench-only LP oracle; see lp_oracle.mli. *)

module Simplex = Simplex

let densify (a : Lp.Revised.csc) =
  let d = Array.make_matrix a.Lp.Revised.m a.Lp.Revised.n Rat.zero in
  for j = 0 to a.Lp.Revised.n - 1 do
    for k = a.Lp.Revised.colp.(j) to a.Lp.Revised.colp.(j + 1) - 1 do
      d.(a.Lp.Revised.rowi.(k)).(j) <- a.Lp.Revised.vals.(k)
    done
  done;
  d

let solve p =
  let sf = Lp.standard_form p in
  let r, duals =
    Simplex.Exact.solve_standard_with_duals ~a:(densify sf.Lp.a) ~b:sf.Lp.b ~c:sf.Lp.c ()
  in
  let raw =
    match r with Simplex.Exact.Failed e -> Error e | Simplex.Exact.Optimal (o, x) -> Ok (o, x)
  in
  Lp.recover sf raw duals

type float_outcome = Foptimal of float | Finfeasible | Funbounded

(* The same standard form, solved in floating point. Exists for the
   exact-vs-float ablation: optimal-mechanism LPs are degenerate enough
   that the float path's verdicts cannot be trusted without the exact
   reference. *)
let solve_float ?pricing p =
  let sf = Lp.standard_form p in
  let fa = Array.map (Array.map Rat.to_float) (densify sf.Lp.a) in
  match
    Simplex.Floating.solve_standard ?pricing ~a:fa ~b:(Array.map Rat.to_float sf.Lp.b)
      ~c:(Array.map Rat.to_float sf.Lp.c) ()
  with
  | Simplex.Floating.Failed Lp.Solver_error.Infeasible -> Finfeasible
  | Simplex.Floating.Failed Lp.Solver_error.Unbounded -> Funbounded
  | Simplex.Floating.Failed (Lp.Solver_error.Exhausted _ as e) ->
    (* No budget is passed here, so only an injected fault reaches this
       arm; the float mirror has no degradation story, so surface it. *)
    Lp.Solver_error.fail ~context:"Lp_oracle.solve_float" e
  | Simplex.Floating.Optimal (raw_obj, _) ->
    Foptimal ((if sf.Lp.flip then -.raw_obj else raw_obj) +. Rat.to_float sf.Lp.obj_shift)
