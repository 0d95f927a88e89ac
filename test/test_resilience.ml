(* Tests for lib/resilience and its threading through the solve stack:
   budgets (deadline / pivots / bits) surfacing as typed Exhausted
   values, the deterministic fault-injection registry, and the serve
   degradation ladder — every rung of which must still release a
   certified α-DP mechanism. *)

let q = Rat.of_ints

module B = Resilience.Budget
module F = Resilience.Fault
module E = Resilience.Solver_error

(* A fake clock that advances 1 ms on every read, so deadlines expire
   after a deterministic number of budget checks. *)
let ticking_clock ?(step_ns = 1_000_000L) () =
  let fc = Obs.Clock.Fake.create () in
  fun () ->
    Obs.Clock.Fake.advance fc step_ns;
    Obs.Clock.Fake.clock fc ()

(* A pure-inequality LP: the slack crash basis covers every row, phase 1
   is skipped, and every budget check happens at "simplex.phase2". *)
let box_lp () =
  let p = Lp.make () in
  let x = Lp.fresh_var ~name:"x" p in
  let y = Lp.fresh_var ~name:"y" p in
  let z = Lp.fresh_var ~name:"z" p in
  List.iter (fun v -> Lp.add_le p (Lp.Expr.var v) Rat.one) [ x; y; z ];
  Lp.set_objective p Lp.Maximize Lp.Expr.(add (var x) (add (var y) (var z)));
  p

let consumer ?(n = 5) loss = Minimax.Consumer.make ~loss ~side_info:(Minimax.Side_info.full n) ()

(* ------------------------------------------------------------------ *)
(* Budgets                                                            *)
(* ------------------------------------------------------------------ *)

let test_budget_check_order () =
  (* Deterministic dimensions are tested before the clock: a solve that
     blew both caps reports Pivots, not Deadline. *)
  let clock = ticking_clock () in
  let b = B.make ~clock ~deadline_ms:0 ~max_pivots:10 ~max_bits:64 () in
  (match B.check b ~pivots:10 ~peak_bits:9999 with
   | Some E.Pivots -> ()
   | _ -> Alcotest.fail "pivot cap must win over bits and deadline");
  (match B.check b ~pivots:3 ~peak_bits:9999 with
   | Some E.Bits -> ()
   | _ -> Alcotest.fail "bit ceiling must win over the deadline");
  match B.check b ~pivots:3 ~peak_bits:8 with
  | Some E.Deadline -> ()
  | _ -> Alcotest.fail "expired deadline must fire"

let test_deadline_mid_phase2 () =
  (* deadline_ms:2 on a clock ticking 1 ms per read: Budget.make reads
     once (t=1ms, deadline 3ms); phase-2 checks read at 2,3,4ms — the
     third check fires, after two real pivots, mid-phase-2. *)
  let clock = ticking_clock () in
  let budget = B.make ~clock ~deadline_ms:2 () in
  match Lp.solve ~budget (box_lp ()) with
  | Lp.Failed (E.Exhausted ex) ->
    Alcotest.(check string) "site" "simplex.phase2" ex.E.site;
    (match ex.E.kind with
     | E.Deadline -> ()
     | k -> Alcotest.fail ("wrong kind: " ^ E.to_string (E.Exhausted { ex with E.kind = k })));
    Alcotest.(check bool) "some pivots were spent first" true (ex.E.pivots > 0)
  | Lp.Failed e -> Alcotest.fail (E.to_string e)
  | Lp.Optimal _ -> Alcotest.fail "deadline never fired"

let test_pivot_budget_appendix_b () =
  (* The Appendix-B world: n=2, α=1/2 — with the degenerate zero-one
     loss the tailored LP stalls through ties, so a 3-pivot allowance
     runs out and the error reports exactly the pivots granted. *)
  let c = consumer ~n:2 Minimax.Loss.zero_one in
  let budget = B.make ~max_pivots:3 () in
  match Minimax.Optimal_mechanism.solve_budgeted ~budget ~alpha:(q 1 2) c with
  | Error (E.Exhausted ex) ->
    (match ex.E.kind with
     | E.Pivots -> ()
     | _ -> Alcotest.fail "expected pivot exhaustion");
    Alcotest.(check int) "spent exactly the allowance" 3 ex.E.pivots
  | Error e -> Alcotest.fail (E.to_string e)
  | Ok _ -> Alcotest.fail "3 pivots cannot solve the tailored LP"

let test_unbudgeted_solve_unchanged () =
  (* No budget, no plan: the guarded path must not perturb results. *)
  match Lp.solve (box_lp ()) with
  | Lp.Optimal s -> Alcotest.(check bool) "objective 3" true (Rat.equal s.Lp.objective (q 3 1))
  | Lp.Failed e -> Alcotest.fail (E.to_string e)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)
(* ------------------------------------------------------------------ *)

let test_fault_exhausts_lp () =
  let plan = F.plan [ { F.site = "simplex.phase2"; hits = 1; action = F.Exhaust E.Pivots } ] in
  (F.with_plan plan @@ fun () ->
   match Lp.solve (box_lp ()) with
   | Lp.Failed (E.Exhausted ex) ->
     Alcotest.(check string) "site" "simplex.phase2" ex.E.site;
     (match ex.E.kind with
      | E.Pivots -> ()
      | _ -> Alcotest.fail "injected kind must surface")
   | _ -> Alcotest.fail "fault did not fire");
  Alcotest.(check int) "one trip recorded" 1 (F.trips plan);
  Alcotest.(check bool) "plan uninstalled after with_plan" false (F.enabled ())

let test_fault_trip_raises () =
  let plan = F.plan [ { F.site = "matrix.inverse"; hits = 1; action = F.Trip } ] in
  let m = Array.init 3 (fun i -> Array.init 3 (fun j -> if i = j then q 2 1 else Rat.zero)) in
  match F.with_plan plan (fun () -> Linalg.Matrix.Q.inverse m) with
  | exception F.Injected { site = "matrix.inverse"; hit = 1 } -> ()
  | exception F.Injected _ -> Alcotest.fail "wrong site/hit in Injected"
  | _ -> Alcotest.fail "trip site did not raise"

let test_fault_blowup_bits () =
  (* Blowup_bits fakes a huge pivot coefficient; only a max_bits budget
     notices, and reports Bits exhaustion at the faulted site. *)
  let plan = F.plan [ { F.site = "simplex.phase2"; hits = 1; action = F.Blowup_bits 10_000 } ] in
  let budget = B.make ~max_bits:1_000 () in
  F.with_plan plan @@ fun () ->
  match Lp.solve ~budget (box_lp ()) with
  | Lp.Failed (E.Exhausted ex) ->
    (match ex.E.kind with
     | E.Bits -> ()
     | _ -> Alcotest.fail "expected bit-ceiling exhaustion");
    Alcotest.(check bool) "peak_bits records the blowup" true (ex.E.peak_bits >= 10_000)
  | _ -> Alcotest.fail "bit blowup did not trip the ceiling"

(* ------------------------------------------------------------------ *)
(* Serve ladder                                                       *)
(* ------------------------------------------------------------------ *)

module S = Minimax.Serve

let alpha_dp_certified (s : S.served) =
  Check.Invariants.passed
    (Check.Invariants.alpha_dp ~alpha:s.S.provenance.S.alpha (Mech.Mechanism.matrix s.S.mechanism))

let absolute = consumer Minimax.Loss.absolute

(* Theorem 1's oracle: the tailored §2.5 optimum every remap release
   must match. *)
let tailored_loss ?(alpha = q 1 2) c =
  (Minimax.Optimal_mechanism.solve ~alpha c).Minimax.Optimal_mechanism.loss

(* A raw release is G(n,α) itself: its loss is G's own minimax loss,
   never below the tailored optimum. *)
let check_raw_loss (s : S.served) c =
  let g = Mech.Geometric.matrix ~n:(Minimax.Consumer.n c) ~alpha:s.S.provenance.S.alpha in
  Alcotest.(check bool) "raw loss is G(n,α)'s" true
    (Rat.equal s.S.loss (Minimax.Consumer.minimax_loss c g));
  Alcotest.(check bool) "raw loss >= tailored optimum" true
    (Rat.compare s.S.loss (tailored_loss ~alpha:s.S.provenance.S.alpha c) >= 0)

let expect_rung want (s : S.served) =
  if s.S.provenance.S.rung <> want then
    Alcotest.failf "expected %s, got %s" (S.rung_to_string want)
      (S.rung_to_string s.S.provenance.S.rung)

let test_ladder_tailored () =
  (* Unbudgeted: the top rung, G(n,α) + optimal interaction, serves the
     tailored optimum itself (Theorem 1) without solving the tailored
     LP. *)
  let s = S.serve ~alpha:(q 1 2) absolute in
  expect_rung S.Geometric_remap s;
  Alcotest.(check int) "no degradations" 0 (List.length s.S.provenance.S.attempts);
  Alcotest.(check bool) "alpha-dp certified" true (alpha_dp_certified s);
  Alcotest.(check bool) "served loss = tailored optimum (Theorem 1)" true
    (Rat.equal s.S.loss (tailored_loss absolute))

let test_ladder_remap () =
  (* A pivot budget the interaction LP fits in: still the remap rung,
     with no degradation and nothing charged. *)
  let s = S.serve ~budget:(B.make ~max_pivots:30 ()) ~alpha:(q 1 2) absolute in
  expect_rung S.Geometric_remap s;
  Alcotest.(check int) "no degradations" 0 (List.length s.S.provenance.S.attempts);
  Alcotest.(check (list string)) "certified rules, derivability included"
    [ "row-stochastic"; "alpha-dp"; "derivable" ]
    s.S.provenance.S.checks;
  Alcotest.(check (list string)) "certificates match the checks" s.S.provenance.S.checks
    (List.map (fun c -> c.Check.Invariants.cert_rule) s.S.certificates);
  Alcotest.(check bool) "remap loses nothing (Theorem 1)" true
    (Rat.equal s.S.loss (tailored_loss absolute))

(* The three ways the remap rung can fail, each descending to raw
   G(n,α): budget exhaustion, an injected solver fault, and a failed
   certificate. *)
let remap_to_raw_edges =
  [
    ( "budget",
      (fun () -> S.serve ~budget:(B.make ~max_pivots:3 ()) ~alpha:(q 1 2) absolute),
      [ "geometric+remap:exhausted"; "kind=pivots"; "pivots=3" ] );
    ( "fault",
      (fun () ->
        let plan =
          F.plan
            [
              { F.site = "simplex.phase1"; hits = 0; action = F.Exhaust E.Pivots };
              { F.site = "simplex.phase2"; hits = 0; action = F.Exhaust E.Pivots };
            ]
        in
        F.with_plan plan @@ fun () -> S.serve ~alpha:(q 1 2) absolute),
      [ "geometric+remap:exhausted"; "kind=pivots" ] );
    ( "certificate",
      (fun () ->
        let plan = F.plan [ { F.site = "serve.certify"; hits = 1; action = F.Trip } ] in
        F.with_plan plan @@ fun () -> S.serve ~alpha:(q 1 2) absolute),
      [ "geometric+remap:uncertified:injected" ] );
  ]

let test_ladder_raw () =
  List.iter
    (fun (edge, run, _) ->
      let s = run () in
      expect_rung S.Geometric_raw s;
      (match s.S.provenance.S.attempts with
       | [ { S.attempted = S.Geometric_remap; _ } ] -> ()
       | _ -> Alcotest.failf "%s: attempts must record exactly the failed remap" edge);
      Alcotest.(check bool) (edge ^ ": alpha-dp certified") true (alpha_dp_certified s);
      check_raw_loss s absolute)
    remap_to_raw_edges;
  (* The certificate edge's reason is typed, not a solver error. *)
  let _, run, _ = List.nth remap_to_raw_edges 2 in
  match (run ()).S.provenance.S.attempts with
  | [ { S.reason = S.Uncertified "injected"; _ } ] -> ()
  | _ -> Alcotest.fail "a failed certificate must be recorded as Uncertified"

let test_ladder_bottom_uncertified () =
  (* Should even raw G(n,α) fail its audit, nothing uncertified is
     released: the typed exception names the rung and rule. *)
  let plan = F.plan [ { F.site = "serve.certify"; hits = 0; action = F.Trip } ] in
  match F.with_plan plan (fun () -> S.serve ~alpha:(q 1 2) absolute) with
  | exception S.Certification_failed { rung = "geometric"; rule = "injected" } -> ()
  | _ -> Alcotest.fail "an uncertifiable bottom rung must raise Certification_failed"

let test_ladder_all_rungs_alpha_dp () =
  (* Property: whatever the failure pattern and consumer, the released
     mechanism passes the independent α-DP check. *)
  let plans =
    [
      None;
      Some (F.plan [ { F.site = "simplex.phase2"; hits = 1; action = F.Exhaust E.Pivots } ]);
      Some (F.plan [ { F.site = "simplex.phase1"; hits = 0; action = F.Exhaust E.Deadline } ]);
      Some
        (F.plan
           [
             { F.site = "simplex.phase1"; hits = 0; action = F.Exhaust E.Pivots };
             { F.site = "simplex.phase2"; hits = 0; action = F.Exhaust E.Pivots };
           ]);
    ]
  in
  let losses = [ Minimax.Loss.absolute; Minimax.Loss.squared; Minimax.Loss.zero_one ] in
  List.iter
    (fun loss ->
      List.iter
        (fun plan ->
          let run () = S.serve ~alpha:(q 1 3) (consumer ~n:4 loss) in
          let s = match plan with None -> run () | Some p -> F.with_plan p run in
          Alcotest.(check bool)
            (Printf.sprintf "alpha-dp at rung %s for %s" (S.rung_to_string s.S.provenance.S.rung)
               (Minimax.Loss.name loss))
            true (alpha_dp_certified s))
        plans)
    losses

let test_provenance_deterministic () =
  (* Same plan or budget, same consumer: byte-identical provenance,
     twice, on every descent edge — naming the rung and the attempt. *)
  List.iter
    (fun (edge, run, needles) ->
      let render () = S.provenance_to_string (run ()).S.provenance in
      let a = render () and b = render () in
      Alcotest.(check string) (edge ^ ": byte-identical provenance") a b;
      List.iter
        (fun needle ->
          Alcotest.(check bool) (edge ^ ": mentions " ^ needle) true
            (Str.string_match (Str.regexp (".*" ^ Str.quote needle)) a 0))
        ("rung=geometric " :: needles))
    remap_to_raw_edges

let test_deadline_shared_across_rungs () =
  (* An already-expired deadline starves the interaction LP; the
     ladder still releases raw G(n,α) and charges the failure to it. *)
  let clock = ticking_clock () in
  let budget = B.make ~clock ~deadline_ms:0 () in
  let s = S.serve ~budget ~alpha:(q 1 2) absolute in
  expect_rung S.Geometric_raw s;
  Alcotest.(check bool) "alpha-dp certified" true (alpha_dp_certified s);
  check_raw_loss s absolute

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "resilience"
    [
      ( "budget",
        [
          Alcotest.test_case "check order" `Quick test_budget_check_order;
          Alcotest.test_case "deadline mid-phase-2" `Quick test_deadline_mid_phase2;
          Alcotest.test_case "pivot budget (Appendix B)" `Quick test_pivot_budget_appendix_b;
          Alcotest.test_case "unbudgeted unchanged" `Quick test_unbudgeted_solve_unchanged;
        ] );
      ( "fault",
        [
          Alcotest.test_case "exhausts LP" `Quick test_fault_exhausts_lp;
          Alcotest.test_case "trip raises" `Quick test_fault_trip_raises;
          Alcotest.test_case "bit blowup" `Quick test_fault_blowup_bits;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "tailored" `Quick test_ladder_tailored;
          Alcotest.test_case "remap" `Quick test_ladder_remap;
          Alcotest.test_case "raw geometric" `Quick test_ladder_raw;
          Alcotest.test_case "uncertified bottom rung raises" `Quick test_ladder_bottom_uncertified;
          Alcotest.test_case "all rungs alpha-dp" `Quick test_ladder_all_rungs_alpha_dp;
          Alcotest.test_case "provenance deterministic" `Quick test_provenance_deterministic;
          Alcotest.test_case "deadline shared across rungs" `Quick test_deadline_shared_across_rungs;
        ] );
    ]
