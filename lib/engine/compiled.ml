(* Compiled mechanisms; see compiled.mli. *)

module M = Mech.Mechanism
module S = Minimax.Serve

type sampler = { mech : M.t; tables : Prob.Discrete.Alias.table array }

let sampler_of_mechanism mech =
  let size = M.size mech in
  let tables =
    Array.init size (fun i -> Prob.Discrete.Alias.build (M.row_distribution mech i))
  in
  { mech; tables }

let draw s ~input rng =
  if input < 0 || input >= Array.length s.tables then
    invalid_arg "Compiled.draw: input out of {0..n}";
  Prob.Discrete.Alias.sample s.tables.(input) rng

let draws s ~input ~count rng =
  if count < 1 then invalid_arg "Compiled.draws: count must be >= 1";
  if count = 1 then [| M.sample s.mech ~input rng |]
  else begin
    if input < 0 || input >= Array.length s.tables then
      invalid_arg "Compiled.draws: input out of {0..n}";
    let table = s.tables.(input) in
    Array.init count (fun _ -> Prob.Discrete.Alias.sample table rng)
  end

type t = { key : string; served : S.served; sampler : sampler }

exception Uncertified of { key : string; rule : string }

let () =
  Printexc.register_printer (function
    | Uncertified { key; rule } ->
      Some (Printf.sprintf "Compiled.Uncertified(key=%s,rule=%s)" key rule)
    | _ -> None)

let compile ?budget ~alpha ~key consumer =
  Obs.span ~attrs:[ ("key", Obs.Str key) ] "engine.compile" @@ fun () ->
  let served = S.serve ?budget ~alpha consumer in
  let sampler = sampler_of_mechanism served.S.mechanism in
  Obs.incr "engine.compiles";
  { key; served; sampler }

(* The warm-restart entry point: a release reconstituted from outside
   the serve ladder (e.g. deserialized from a disk store) earns its
   certificates by replaying the ladder's own certification for its
   rung, so an artifact that skipped the solver still cannot exist
   uncertified. Deliberately does not bump "engine.compiles": no solve
   happened. *)
let of_served ~key ~alpha (served : S.served) =
  match S.certify ~alpha served.S.provenance.S.rung served.S.mechanism with
  | Error rule -> raise (Uncertified { key; rule })
  | Ok certificates ->
    {
      key;
      served = { served with S.certificates };
      sampler = sampler_of_mechanism served.S.mechanism;
    }

let rung t = t.served.S.provenance.S.rung
let loss t = t.served.S.loss
