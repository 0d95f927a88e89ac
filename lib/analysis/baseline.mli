(** Accepted-findings baseline: the analyzer's ratchet.

    A baseline entry accepts up to [allowed] findings of one rule for
    one (file, symbol) pair — deliberately keyed without line numbers
    so unrelated edits don't invalidate it. Subtraction is
    all-or-nothing per key: while a group stays at or under its
    allowance it is fully suppressed; one finding over and the whole
    group surfaces (with the allowance in the witness), because a
    regression is best debugged with every instance visible.

    Entries that no longer match anything become [analysis/stale-baseline]
    warnings: the wall stays green, but `make analyze-baseline` should
    be re-run to ratchet the allowance down. *)

type entry = { brule : string; bfile : string; bsymbol : string; allowed : int }
type t

val empty : t
val entries : t -> entry list

val of_diagnostics : Check.Diagnostic.t list -> t
(** Group error-severity diagnostics into a baseline accepting exactly
    the current state. Warnings are not baselined. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result
val load : string -> (t, string) result
val save : string -> t -> unit

val apply :
  t ->
  Check.Diagnostic.t list ->
  Check.Diagnostic.t list * int * Check.Diagnostic.t list
(** [apply baseline diags] is [(kept, suppressed_count, stale)]:
    [kept] are the diagnostics that survive subtraction (in input
    order), [stale] are warning diagnostics for unmatched entries. *)
