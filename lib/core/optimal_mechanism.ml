(** The optimal α-differentially-private mechanism for a single known
    consumer (§2.5).

    {v
      minimize  d
      s.t.      Σ_r x_{i,r}·l(i,r) <= d        ∀ i ∈ S
                x_{i+1,r} − α·x_{i,r}   >= 0   ∀ i < n, r      (DP)
                x_{i,r}   − α·x_{i+1,r} >= 0   ∀ i < n, r      (DP)
                Σ_r x_{i,r} = 1                ∀ i
                x_{i,r} >= 0
    v}

    [solve] returns some optimal vertex; [solve_structured] follows the
    paper's Lemma-5 tie-breaking — among loss-optimal mechanisms it
    minimizes the secondary objective [L'(x) = Σ_{i,r} x_{i,r}·|i−r|]
    lexicographically, which selects a mechanism with the adjacent-row
    boundary pattern the Theorem-1 proof relies on. *)

type result = { mechanism : Mech.Mechanism.t; loss : Rat.t }

let build_problem ~alpha ~n (consumer : Consumer.t) =
  Mech.Geometric.check_alpha alpha;
  Obs.span ~attrs:[ ("n", Obs.Int n); ("alpha", Obs.Rat alpha) ] "core.build_problem" @@ fun () ->
  let p = Lp.make () in
  let x = Array.init (n + 1) (fun i -> Array.init (n + 1) (fun r -> Lp.fresh_var ~name:(Printf.sprintf "x_%d_%d" i r) p)) in
  let d = Lp.fresh_var ~name:"d" p in
  (* Stochasticity. *)
  for i = 0 to n do
    Lp.add_eq p (Lp.Expr.sum (List.init (n + 1) (fun r -> Lp.Expr.var x.(i).(r)))) Rat.one
  done;
  (* Differential privacy (Definition 2). *)
  for i = 0 to n - 1 do
    for r = 0 to n do
      Lp.add_ge p
        (Lp.Expr.sub (Lp.Expr.var x.(i + 1).(r)) (Lp.Expr.term alpha x.(i).(r)))
        Rat.zero;
      Lp.add_ge p
        (Lp.Expr.sub (Lp.Expr.var x.(i).(r)) (Lp.Expr.term alpha x.(i + 1).(r)))
        Rat.zero
    done
  done;
  (* Loss bound on the side information. *)
  let loss = Consumer.loss consumer in
  List.iter
    (fun i ->
      let terms =
        List.filter_map
          (fun r ->
            let c = Loss.eval loss i r in
            if Rat.is_zero c then None else Some (Lp.Expr.term c x.(i).(r)))
          (List.init (n + 1) Fun.id)
      in
      Lp.add_le p (Lp.Expr.sub (Lp.Expr.sum terms) (Lp.Expr.var d)) Rat.zero)
    (Side_info.members (Consumer.side_info consumer));
  (p, x, d)

let extract x (sol : Lp.solution) n =
  Mech.Mechanism.make
    (Array.init (n + 1) (fun i -> Array.init (n + 1) (fun r -> sol.values.(x.(i).(r)))))

let solve_budgeted ?pricing ?crash ?budget ?solver ~alpha (consumer : Consumer.t) =
  let n = Consumer.n consumer in
  Obs.span ~attrs:[ ("n", Obs.Int n); ("alpha", Obs.Rat alpha) ] "core.optimal_mechanism"
  @@ fun () ->
  let p, x, d = build_problem ~alpha ~n consumer in
  Lp.set_objective p Lp.Minimize (Lp.Expr.var d);
  let outcome =
    match solver with
    | Some s -> (Lp.Solver.solve ?budget s p).Lp.Solver.outcome
    | None -> Lp.solve ?pricing ?crash ?budget p
  in
  match outcome with
  | Lp.Optimal sol -> Ok { mechanism = extract x sol n; loss = sol.objective }
  | Lp.Failed e -> Error e

let solve ?pricing ?crash ?solver ~alpha (consumer : Consumer.t) =
  match solve_budgeted ?pricing ?crash ?solver ~alpha consumer with
  | Ok r -> r
  | Error e ->
    (* The geometric mechanism is always feasible and loss >= 0, so
       with no budget the solve cannot fail; surface the witness. *)
    Lp.Solver_error.fail ~context:"Optimal_mechanism.solve" e

(** Lexicographic (L, L') optimum from the Lemma-5 proof. *)
let solve_structured ~alpha (consumer : Consumer.t) =
  let n = Consumer.n consumer in
  let first = solve ~alpha consumer in
  let p, x, d = build_problem ~alpha ~n consumer in
  (* Pin the primary objective at its optimum, then minimize L'. *)
  Lp.add_le p (Lp.Expr.var d) first.loss;
  let secondary =
    Lp.Expr.sum
      (List.concat_map
         (fun i ->
           List.filter_map
             (fun r -> if i = r then None else Some (Lp.Expr.term (Rat.of_int (abs (i - r))) x.(i).(r)))
             (List.init (n + 1) Fun.id))
         (List.init (n + 1) Fun.id))
  in
  Lp.set_objective p Lp.Minimize secondary;
  match Lp.solve p with
  | Lp.Optimal sol -> { mechanism = extract x sol n; loss = first.loss }
  | Lp.Failed e ->
    (* Pinning d at the attained optimum keeps the LP feasible, and the
       secondary objective is bounded below by 0. *)
    Lp.Solver_error.fail ~context:"Optimal_mechanism.solve_structured" e

(* ------------------------------------------------------------------ *)
(* Lemma 5: structure of adjacent rows of structured optima           *)
(* ------------------------------------------------------------------ *)

(** Check the Lemma-5 pattern between rows [i] and [i+1]: a prefix of
    columns tight at [α·x_i = x_{i+1}] (its length [c1]), a suffix
    tight at [x_i = α·x_{i+1}] (starting at 1-based column [c2]), and
    at most one free column in between: [c2 − c1 ∈ {1, 2}]. *)
let adjacent_rows_ok ~alpha m i =
  let n = Mech.Mechanism.n m in
  let tight_lo j =
    Rat.equal
      (Rat.mul alpha (Mech.Mechanism.prob m ~input:i ~output:j))
      (Mech.Mechanism.prob m ~input:(i + 1) ~output:j)
  in
  let tight_hi j =
    Rat.equal
      (Mech.Mechanism.prob m ~input:i ~output:j)
      (Rat.mul alpha (Mech.Mechanism.prob m ~input:(i + 1) ~output:j))
  in
  let c1 = ref 0 in
  (* longest prefix of tight_lo *)
  (try
     for j = 0 to n do
       if tight_lo j then incr c1 else raise Exit
     done
   with Exit -> ());
  let c2 = ref (n + 2) in
  (try
     for j = n downto 0 do
       if tight_hi j then c2 := j + 1 (* 1-based *) else raise Exit
     done
   with Exit -> ());
  let gap = !c2 - !c1 in
  gap = 1 || gap = 2

let satisfies_lemma5 ~alpha m =
  let n = Mech.Mechanism.n m in
  let ok = ref true in
  for i = 0 to n - 1 do
    if not (adjacent_rows_ok ~alpha m i) then ok := false
  done;
  !ok

(** The minimax theorem, computationally: the duals of the §2.5 LP's
    loss-bound rows form (after sign-flip and normalization) the
    adversary's {e least-favorable prior} over the side information —
    the prior under which the best Bayesian mechanism does no better
    than the minimax optimum. Returns the prior over the full range
    [{0..n}] (zero off the side information) together with the minimax
    loss; [None] in the degenerate zero-loss case, where no prior is
    pinned down. Tests verify the defining property:
    Bayesian-optimal loss under this prior = minimax loss, exactly. *)
let least_favorable_prior ~alpha (consumer : Consumer.t) =
  let n = Consumer.n consumer in
  Obs.span ~attrs:[ ("n", Obs.Int n) ] "core.least_favorable_prior" @@ fun () ->
  let p, _, d = build_problem ~alpha ~n consumer in
  Lp.set_objective p Lp.Minimize (Lp.Expr.var d);
  let r = Lp.Solver.solve (Lp.Solver.create ()) p in
  match (r.Lp.Solver.outcome, r.Lp.Solver.duals) with
  | Lp.Optimal sol, Some duals ->
    let members = Side_info.members (Consumer.side_info consumer) in
    let n_loss_rows = List.length members in
    let first_loss_row = Lp.n_constraints p - n_loss_rows in
    (* Loss rows are Le in a Minimize model: duals <= 0; the prior
       weights are their negations. *)
    let weights = Array.make (n + 1) Rat.zero in
    List.iteri
      (fun k i -> weights.(i) <- Rat.neg duals.(first_loss_row + k))
      members;
    let total = Array.fold_left Rat.add Rat.zero weights in
    if Rat.sign total <= 0 then None
    else Some (Array.map (fun w -> Rat.div w total) weights, sol.Lp.objective)
  | _, _ -> None

(** Fast path justified by Theorem 1: the optimum equals the geometric
    mechanism composed with the consumer's optimal interaction, and the
    interaction LP is much smaller than the direct §2.5 LP (no DP rows:
    privacy is inherited from the geometric factor). Tests assert it
    agrees with {!solve} exactly. *)
let solve_via_interaction ~alpha (consumer : Consumer.t) =
  let n = Consumer.n consumer in
  Obs.span ~attrs:[ ("n", Obs.Int n) ] "core.solve_via_interaction" @@ fun () ->
  let deployed = Mech.Geometric.matrix ~n ~alpha in
  let r = Optimal_interaction.solve ~deployed consumer in
  { mechanism = r.Optimal_interaction.induced; loss = r.Optimal_interaction.loss }
