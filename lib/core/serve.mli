(** The end-to-end "serve this consumer" path: budgeted solving with
    certified graceful degradation to the geometric mechanism.

    The ladder has two rungs, and both release [G(n,α)] — the
    universally optimal mechanism of Theorems 1–2 and of
    Ghosh–Roughgarden–Sundararajan's Bayesian counterpart:

    + {b Geometric_remap} — [G(n,α)] composed with the consumer's
      optimal interaction (§2.4.3). By Theorem 1 its loss {e is} the
      tailored §2.5 optimum, for every minimax consumer with a
      monotone loss (every loss the request grammar admits), at a
      fraction of the tailored LP's cost: the interaction LP has no
      differential-privacy rows.
    + {b Geometric_raw} — [G(n,α)] itself, no LP at all.

    The tailored LP ({!Optimal_mechanism}) is not on the ladder; it
    stays the Theorem-1 oracle that THM1, [dpopt optimal] and the tests
    compare served losses against.

    A rung is taken when its solve succeeds {e and} the produced matrix
    re-verifies through {!certify}. Exhaustion of the {!Lp.Budget.t},
    an injected fault, or a failed certificate all degrade the remap to
    raw [G(n,α)] — a degraded answer is still a certified private
    answer. Every descent bumps the ["resilience.degradations"]
    counter.

    The returned {!provenance} is deterministic (no timestamps): the
    same consumer, budget outcome, and fault plan produce byte-identical
    {!provenance_to_string} output, which chaos tests assert. *)

type rung =
  | Tailored
      (** the §2.5 LP vertex: never built by {!serve}; decoded only from
          artifacts that earlier builds persisted with [rung=tailored],
          so a store written before the ladder shrank still loads *)
  | Geometric_remap
  | Geometric_raw

(** Why a rung was abandoned. *)
type reason =
  | Solver of Lp.Solver_error.t
  | Uncertified of string  (** the {!Check.Invariants} rule that failed *)

type attempt = { attempted : rung; reason : reason }

type provenance = {
  rung : rung;  (** the rung actually served *)
  alpha : Rat.t;
  n : int;
  attempts : attempt list;  (** abandoned rungs, in descent order *)
  pivots_spent : int;  (** simplex pivots across all exhausted solves *)
  peak_bits : int;  (** largest coefficient bit-size across them *)
  checks : string list;  (** invariant rules certified on the release *)
}

type served = {
  mechanism : Mech.Mechanism.t;
  loss : Rat.t;  (** the consumer's minimax loss of [mechanism] *)
  provenance : provenance;
  certificates : Check.Invariants.certificate list;
      (** replayable certificates earned through {!certify}; their
          rules are [provenance.checks] *)
}

exception Certification_failed of { rung : string; rule : string }
(** The bottom rung's [G(n,α)] failed re-verification — impossible
    unless [lib/mech] or [lib/check] is broken, and typed so even that
    breakage cannot release an uncertified matrix. *)

val certify :
  alpha:Rat.t ->
  rung ->
  Mech.Mechanism.t ->
  (Check.Invariants.certificate list, string) Stdlib.result
(** The one rule for which invariants a release on each rung must pass:
    row-stochasticity and Definition-2 α-DP always, plus Theorem-2
    derivability on every rung except legacy [Tailored]. [Ok] carries
    one certificate per invariant, in that order; [Error] names the
    first rule that failed. A firing ["serve.certify"] fault trigger
    fails it with rule ["injected"]. *)

val serve : ?budget:Lp.Budget.t -> alpha:Rat.t -> Consumer.t -> served
(** Walk the ladder; always returns a certified mechanism, never on the
    [Tailored] rung.
    @raise Invalid_argument on a bad [alpha]
    @raise Certification_failed if even raw [G(n,α)] fails checks *)

val rung_to_string : rung -> string
(** ["tailored"], ["geometric+remap"], ["geometric"]. *)

val rung_of_string : string -> rung option
(** Inverse of {!rung_to_string}; still reads ["tailored"], the rung
    legacy artifacts were persisted under. *)

val provenance_to_string : provenance -> string
(** Single-line deterministic rendering, for logs and chaos tests. *)

val provenance_to_json : provenance -> Obs.Json.t

val provenance_of_json : ctx:string -> Obs.Json.t -> (provenance, string) result
(** Inverse of {!provenance_to_json} on undegraded provenance
    ([attempts = []]), the only shape the store persists; a non-empty
    [attempts] list is an error. [ctx] prefixes missing- and
    mistyped-field errors (see {!Obs.Json.field}). *)
