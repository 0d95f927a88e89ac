(* Replayable collusion certificates; see certificate.mli. *)

module ML = Minimax.Multi_level
module I = Check.Invariants
module J = Obs.Json

type t = {
  group : string;
  epoch : int;
  n : int;
  levels : Rat.t array;
  values : int array;
  checks : string list;
  posterior : string;
}

exception Unverifiable of { rule : string }

let rule_lemma3 = "lemma3-transition"
let rule_marginal = "stage-marginal"
let rule_posterior = "lemma4-posterior"

(* ------------------------------------------------------------------ *)
(* The checks themselves, shared by mint and replay                    *)
(* ------------------------------------------------------------------ *)

let check_lemma3 (plan : ML.plan) =
  let k = Array.length plan.ML.levels in
  let ok = ref true in
  for i = 0 to k - 2 do
    let report =
      I.lemma3_transition ~n:plan.ML.n ~alpha:plan.ML.levels.(i)
        ~beta:plan.ML.levels.(i + 1)
    in
    if not (I.passed report) then ok := false
  done;
  !ok

let check_marginals (plan : ML.plan) =
  let k = Array.length plan.ML.levels in
  let ok = ref true in
  for i = 0 to k - 1 do
    let marginal = ML.stage_marginal plan i in
    let geometric = Mech.Geometric.matrix ~n:plan.ML.n ~alpha:plan.ML.levels.(i) in
    if not (Mech.Mechanism.equal marginal geometric) then ok := false
  done;
  !ok

let posterior_digest dist =
  Digest.to_hex
    (Digest.string (String.concat ";" (List.map Rat.to_string (Array.to_list dist))))

(* Lemma 4 on the realized values: posterior given every rung equals
   posterior given the least-private rung alone. Returns the digest of
   the joint posterior when the equality holds. *)
let check_posterior (plan : ML.plan) values =
  let observed = Array.to_list (Array.mapi (fun i v -> (i, v)) values) in
  match (ML.posterior plan ~observed, ML.posterior plan ~observed:[ (0, values.(0)) ]) with
  | Some joint, Some least when Array.for_all2 Rat.equal joint least ->
    Some (posterior_digest joint)
  | _ -> None

let plan_checks plan =
  if not (check_lemma3 plan) then raise (Unverifiable { rule = rule_lemma3 });
  if not (check_marginals plan) then raise (Unverifiable { rule = rule_marginal });
  [ rule_lemma3; rule_marginal ]

let mint ~plan ~plan_checks ~group ~epoch ~values =
  Obs.span
    ~attrs:[ ("group", Obs.Str group); ("epoch", Obs.Int epoch) ]
    "session.certificate"
  @@ fun () ->
  match check_posterior plan values with
  | None -> raise (Unverifiable { rule = rule_posterior })
  | Some digest ->
    {
      group;
      epoch;
      n = plan.ML.n;
      levels = Array.copy plan.ML.levels;
      values = Array.copy values;
      checks = plan_checks @ [ rule_posterior ];
      posterior = digest;
    }

(* ------------------------------------------------------------------ *)
(* Replay: the certificate's own data is the whole input               *)
(* ------------------------------------------------------------------ *)

let replay t =
  match ML.make_plan ~n:t.n ~levels:(Array.to_list t.levels) with
  | exception Invalid_argument m -> Error ("certificate-structure: " ^ m)
  | plan ->
    if Array.length t.values <> Array.length t.levels then
      Error "certificate-structure: one value per level required"
    else if Array.exists (fun v -> v < 0 || v > t.n) t.values then
      Error "certificate-structure: value out of range"
    else if not (check_lemma3 plan) then Error rule_lemma3
    else if not (check_marginals plan) then Error rule_marginal
    else (
      match check_posterior plan t.values with
      | None -> Error rule_posterior
      | Some digest ->
        if not (String.equal digest t.posterior) then Error "posterior-digest"
        else Ok ())

(* ------------------------------------------------------------------ *)
(* Wire form                                                           *)
(* ------------------------------------------------------------------ *)

let to_json t =
  J.Obj
    [
      ("group", J.Str t.group);
      ("epoch", J.Int t.epoch);
      ("n", J.Int t.n);
      ("levels", J.List (Array.to_list (Array.map J.rat t.levels)));
      ("values", J.List (Array.to_list (Array.map (fun v -> J.Int v) t.values)));
      ("checks", J.List (List.map (fun c -> J.Str c) t.checks));
      ("posterior", J.Str t.posterior);
    ]

let of_json json =
  let open J in
  let ctx = "certificate" in
  let* group = str_field ~ctx "group" json in
  let* epoch = int_field ~ctx "epoch" json in
  let* n = int_field ~ctx "n" json in
  let* levels = list_field ~ctx "levels" json in
  let* levels =
    map_result
      (fun l ->
        match Option.bind (J.to_str_opt l) Rat.of_string_opt with
        | Some r -> Ok r
        | None -> Error "certificate level is not a rational")
      levels
  in
  let* values = list_field ~ctx "values" json in
  let* values =
    map_result
      (fun v ->
        match J.to_int_opt v with
        | Some i -> Ok i
        | None -> Error "certificate value is not an integer")
      values
  in
  let* checks = list_field ~ctx "checks" json in
  let* checks =
    map_result
      (fun c ->
        match J.to_str_opt c with
        | Some s -> Ok s
        | None -> Error "certificate check is not a string")
      checks
  in
  let* posterior = str_field ~ctx "posterior" json in
  Ok
    {
      group;
      epoch;
      n;
      levels = Array.of_list levels;
      values = Array.of_list values;
      checks;
      posterior;
    }
