(** Compiled mechanisms: solve once, certify once, sample in O(1).

    A {!t} is what the engine caches per distinct consumer: the release
    from the {!Minimax.Serve} degradation ladder — mechanism, loss,
    provenance and the {!Check.Invariants} certificates the ladder
    earned on it, computed once by {!Minimax.Serve.certify} and never
    recomputed on a fresh compile — and one {!Prob.Discrete.Alias}
    table per mechanism row so answering a query costs O(1) per sample
    instead of an O(n)-rational CDF walk.

    The alias tables sample the float image of each exact row; the
    released matrix itself (and everything certified about it) stays
    exact. Sampling therefore matches the exact sampler's distribution
    to float precision — a property the frequency tests pin down — but
    not its draw-by-draw stream, which is why {!draws} keeps the exact
    path for single draws (preserving historical seed streams, e.g.
    [dpopt geometric --samples 1]). *)

type sampler
(** Per-row alias tables plus the exact mechanism they were built
    from. *)

val sampler_of_mechanism : Mech.Mechanism.t -> sampler
(** Build all [n+1] row tables; O(n²) once. *)

val draw : sampler -> input:int -> Prob.Rng.t -> int
(** One O(1) alias draw from row [input].
    @raise Invalid_argument on an out-of-range input. *)

val draws : sampler -> input:int -> count:int -> Prob.Rng.t -> int array
(** [count] draws. [count = 1] takes the exact-rational CDF path
    ({!Mech.Mechanism.sample}) so single-sample callers see exactly the
    stream they saw before compiled samplers existed; [count >= 2] uses
    the alias table. @raise Invalid_argument when [count < 1]. *)

type t = {
  key : string;  (** the {!Request.canonical_key} this artifact serves *)
  served : Minimax.Serve.served;
      (** mechanism, loss, provenance, and certificates — non-empty by
          construction *)
  sampler : sampler;
}

exception Uncertified of { key : string; rule : string }
(** {!of_served} found a reconstituted release failing
    re-certification; typed so it cannot put an uncertified artifact in
    a cache. *)

val compile : ?budget:Lp.Budget.t -> alpha:Rat.t -> key:string -> Minimax.Consumer.t -> t
(** Run the serve ladder — which certifies its release — and build the
    alias tables. Emits an ["engine.compile"] span.
    @raise Minimax.Serve.Certification_failed as {!Minimax.Serve.serve}
    does *)

val of_served : key:string -> alpha:Rat.t -> Minimax.Serve.served -> t
(** Admit an externally reconstituted release (e.g. one deserialized
    from a disk artifact store) through {!Minimax.Serve.certify} for
    its recorded rung: the returned artifact carries freshly replayed
    certificates, never the ones [served] claims, and rebuilt alias
    tables. Never bumps ["engine.compiles"] — no solve happened.
    @raise Uncertified if any re-verification fails *)

val rung : t -> Minimax.Serve.rung
val loss : t -> Rat.t
