(* LP engine gate: a trimmed THM1 sweep run twice — once through a
   revised-simplex [Lp.Solver] session (warm starts enabled), once
   through the full-tableau oracle in the test-only [lp_oracle]
   library — requiring

   1. byte-identical certified outputs for both LP families: every
      consumer's tailored (§2.5 LP) and universal (interaction LP on
      G(n,α)) losses, its naive loss, and the universality verdict,
      rendered identically by both engines;
   2. a hard wall-clock ratio: the revised session must beat the
      oracle by at least [min_speedup] on the same grid.

   `dune build @lp-bench` (or `make lp-bench`) runs it. The full
   420-consumer sweep lives in THM1 (bench/main.exe); this trimmed
   grid keeps the gate cheap enough to run on every bench pass. *)

module U = Minimax.Universal
module C = Minimax.Consumer
module L = Minimax.Loss
module Om = Minimax.Optimal_mechanism
module Oi = Minimax.Optimal_interaction

let q = Rat.of_ints

(* Trimmed grid: n = 7 dominates the wall clock and is where the
   revised engine's advantage is unambiguous; the α-sweep (innermost)
   is what exercises warm starts, so it is kept whole. *)
let ns = [ 5; 7 ]
let losses = [ L.absolute; L.capped ~cap:2 ]
let alphas = [ q 1 4; q 1 2; q 3 4 ]

(* Conservative floor: the measured engine-vs-engine ratio on this
   grid is a stable 3.0x (the 13.7x THM1 headline additionally counts
   the Rat fast paths, which speed up both engines); gate at 2.0x so
   machine noise cannot flip the verdict while a real regression —
   losing warm starts, or the eta chain degenerating to dense work —
   still trips. *)
let min_speedup = 2.0

type row = { label : string; tailored : string; universal : string; naive : string; holds : bool }

(* [losses_of ~n ~alpha consumer] is (tailored, universal, naive). *)
let sweep losses_of =
  let rows = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun loss ->
          List.iter
            (fun side_info ->
              List.iter
                (fun alpha ->
                  let consumer = C.make ~loss ~side_info () in
                  let tailored, universal, naive = losses_of ~n ~alpha consumer in
                  rows :=
                    {
                      label = Printf.sprintf "n=%d a=%s %s" n (Rat.to_string alpha)
                          (C.label consumer);
                      tailored = Rat.to_string tailored;
                      universal = Rat.to_string universal;
                      naive = Rat.to_string naive;
                      holds = Rat.equal tailored universal;
                    }
                    :: !rows)
                alphas)
            (U.default_side_infos n))
        losses)
    ns;
  List.rev !rows

let revised_losses solver ~n:_ ~alpha consumer =
  let cmp = U.compare_for ~solver ~alpha consumer in
  (cmp.U.tailored_loss, cmp.U.universal_loss, cmp.U.naive_loss)

let oracle_min (p, _, d) =
  Lp.set_objective p Lp.Minimize (Lp.Expr.var d);
  match fst (Lp_oracle.solve p) with
  | Lp.Optimal s -> s.Lp.objective
  | Lp.Failed e -> Lp.Solver_error.fail ~context:"lp-bench oracle" e

let oracle_losses ~n ~alpha consumer =
  let geometric = Mech.Geometric.matrix ~n ~alpha in
  ( oracle_min (Om.build_problem ~alpha ~n consumer),
    oracle_min (Oi.build_problem ~deployed:geometric consumer),
    C.minimax_loss consumer geometric )

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let revised, t_revised = timed (fun () -> sweep (revised_losses (Lp.Solver.create ()))) in
  let oracle, t_oracle = timed (fun () -> sweep oracle_losses) in
  let failures = ref 0 in
  List.iter2
    (fun r o ->
      let mismatches =
        (if String.equal r.tailored o.tailored then [] else [ "tailored" ])
        @ (if String.equal r.universal o.universal then [] else [ "universal" ])
        @ (if String.equal r.naive o.naive then [] else [ "naive" ])
        @ if r.holds = o.holds then [] else [ "verdict" ]
      in
      if mismatches <> [] then begin
        incr failures;
        Printf.printf "MISMATCH %s: %s differ (revised %s/%s/%s vs oracle %s/%s/%s)\n"
          r.label
          (String.concat "," mismatches)
          r.tailored r.universal r.naive o.tailored o.universal o.naive
      end;
      if not r.holds then begin
        incr failures;
        Printf.printf "UNIVERSALITY FAIL %s: tailored %s <> universal %s\n" r.label
          r.tailored r.universal
      end)
    revised oracle;
  let ratio = t_oracle /. t_revised in
  Printf.printf "lp-bench: %d consumers, revised %.2fs, oracle %.2fs, speedup %.1fx (floor %.1fx)\n"
    (List.length revised) t_revised t_oracle ratio min_speedup;
  if ratio < min_speedup then begin
    incr failures;
    Printf.printf "SPEEDUP GATE FAIL: %.2fx < %.2fx\n" ratio min_speedup
  end;
  if !failures > 0 then begin
    Printf.printf "lp-bench: FAIL (%d problems)\n" !failures;
    exit 1
  end;
  print_endline "lp-bench: PASS"
