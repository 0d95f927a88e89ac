(** Budgeted solving with certified degradation to the geometric
    mechanism; see serve.mli for the ladder contract. *)

type rung = Tailored | Geometric_remap | Geometric_raw

type reason =
  | Solver of Lp.Solver_error.t
  | Uncertified of string

type attempt = { attempted : rung; reason : reason }

type provenance = {
  rung : rung;
  alpha : Rat.t;
  n : int;
  attempts : attempt list;
  pivots_spent : int;
  peak_bits : int;
  checks : string list;
}

type served = {
  mechanism : Mech.Mechanism.t;
  loss : Rat.t;
  provenance : provenance;
  certificates : Check.Invariants.certificate list;
}

exception Certification_failed of { rung : string; rule : string }

let rung_to_string = function
  | Tailored -> "tailored"
  | Geometric_remap -> "geometric+remap"
  | Geometric_raw -> "geometric"

let rung_of_string = function
  | "tailored" -> Some Tailored
  | "geometric+remap" -> Some Geometric_remap
  | "geometric" -> Some Geometric_raw
  | _ -> None

let reason_to_string = function
  | Solver e -> Lp.Solver_error.to_string e
  | Uncertified rule -> "uncertified:" ^ rule

let provenance_to_string p =
  Printf.sprintf "rung=%s alpha=%s n=%d attempts=[%s] pivots_spent=%d peak_bits=%d checks=[%s]"
    (rung_to_string p.rung) (Rat.to_string p.alpha) p.n
    (String.concat ";"
       (List.map
          (fun a -> Printf.sprintf "%s:%s" (rung_to_string a.attempted) (reason_to_string a.reason))
          p.attempts))
    p.pivots_spent p.peak_bits
    (String.concat "," p.checks)

let reason_to_json = function
  | Solver e -> Lp.Solver_error.to_json e
  | Uncertified rule ->
    Obs.Json.Obj [ ("verdict", Obs.Json.Str "uncertified"); ("rule", Obs.Json.Str rule) ]

let provenance_to_json p =
  Obs.Json.Obj
    [
      ("rung", Obs.Json.Str (rung_to_string p.rung));
      ("alpha", Obs.Json.Str (Rat.to_string p.alpha));
      ("n", Obs.Json.Int p.n);
      ( "attempts",
        Obs.Json.List
          (List.map
             (fun a ->
               Obs.Json.Obj
                 [
                   ("rung", Obs.Json.Str (rung_to_string a.attempted));
                   ("reason", reason_to_json a.reason);
                 ])
             p.attempts) );
      ("pivots_spent", Obs.Json.Int p.pivots_spent);
      ("peak_bits", Obs.Json.Int p.peak_bits);
      ("checks", Obs.Json.List (List.map (fun c -> Obs.Json.Str c) p.checks));
    ]

(* Only undegraded provenance is ever persisted (a degraded release
   records one process's budget pressure, not a property of the
   consumer), so that is the only shape this decoder reads back. *)
let provenance_of_json ~ctx json =
  let open Obs.Json in
  let* rung = str_field ~ctx "rung" json in
  let* rung =
    match rung_of_string rung with Some r -> Ok r | None -> Error ("unknown rung " ^ rung)
  in
  let* alpha = rat_field ~ctx "alpha" json in
  let* n = int_field ~ctx "n" json in
  let* attempts = list_field ~ctx "attempts" json in
  let* () =
    if attempts = [] then Ok () else Error (ctx ^ " records a degraded release")
  in
  let* pivots_spent = int_field ~ctx "pivots_spent" json in
  let* peak_bits = int_field ~ctx "peak_bits" json in
  let* checks = list_field ~ctx "checks" json in
  let* checks =
    map_result
      (fun c ->
        match to_str_opt c with Some s -> Ok s | None -> Error "checks entry is not a string")
      checks
  in
  Ok { rung; alpha; n; attempts = []; pivots_spent; peak_bits; checks }

(* The one certification rule. Derivability is demanded wherever it
   holds by construction — every rung [serve] builds factors through
   G(n,α) — and waived only on legacy [Tailored] artifacts, whose LP
   vertex need not. The ["serve.certify"] fault site fails the audit
   on demand, so tests can reach the descent a failed certificate
   takes. *)
let certify ~alpha rung m =
  match Resilience.Fault.trip "serve.certify" with
  | exception Resilience.Fault.Injected { site = "serve.certify"; _ } -> Error "injected"
  | () ->
    let matrix = Mech.Mechanism.matrix m in
    let reports =
      [ Check.Invariants.row_stochastic matrix; Check.Invariants.alpha_dp ~alpha matrix ]
      @
      match rung with
      | Tailored -> []
      | Geometric_remap | Geometric_raw -> [ Check.Invariants.derivability ~alpha matrix ]
    in
    match List.find_opt (fun r -> not (Check.Invariants.passed r)) reports with
    | Some r -> Error r.Check.Invariants.rule
    | None -> Ok (List.filter_map (fun r -> r.Check.Invariants.certificate) reports)

let spend_of_attempts attempts =
  List.fold_left
    (fun (pivots, bits) a ->
      match a.reason with
      | Solver (Lp.Solver_error.Exhausted ex) ->
        (pivots + ex.Lp.Solver_error.pivots, max bits ex.Lp.Solver_error.peak_bits)
      | _ -> (pivots, bits))
    (0, 0) attempts

let serve ?budget ~alpha (consumer : Consumer.t) =
  Mech.Geometric.check_alpha alpha;
  let n = Consumer.n consumer in
  Obs.span ~attrs:[ ("n", Obs.Int n); ("alpha", Obs.Rat alpha) ] "core.serve" @@ fun () ->
  let release rung attempts mechanism loss certificates =
    let pivots_spent, peak_bits = spend_of_attempts attempts in
    let checks = List.map (fun c -> c.Check.Invariants.cert_rule) certificates in
    {
      mechanism;
      loss;
      provenance = { rung; alpha; n; attempts; pivots_spent; peak_bits; checks };
      certificates;
    }
  in
  let degrade reason =
    Obs.incr "resilience.degradations";
    [ { attempted = Geometric_remap; reason } ]
  in
  let geometric = Mech.Geometric.matrix ~n ~alpha in
  (* Rung 1: G(n,α) + the optimal-interaction remap — the tailored
     optimum by Theorem 1. *)
  let remap =
    match Optimal_interaction.solve_budgeted ?budget ~deployed:geometric consumer with
    | Error e -> Error (degrade (Solver e))
    | Ok r -> (
      let induced = r.Optimal_interaction.induced in
      match certify ~alpha Geometric_remap induced with
      | Ok certificates ->
        Ok (release Geometric_remap [] induced r.Optimal_interaction.loss certificates)
      | Error rule -> Error (degrade (Uncertified rule)))
  in
  match remap with
  | Ok served -> served
  | Error attempts -> (
    (* Rung 2: raw G(n,α) — no LP, universally optimal by Theorem 2. *)
    match certify ~alpha Geometric_raw geometric with
    | Ok certificates ->
      release Geometric_raw attempts geometric (Consumer.minimax_loss consumer geometric)
        certificates
    | Error rule -> raise (Certification_failed { rung = rung_to_string Geometric_raw; rule }))
