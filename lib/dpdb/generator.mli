(** Synthetic population generator.

    Substitutes for the paper's (unavailable) survey data — see the
    substitution table in DESIGN.md. Only the count [f(d)] enters the
    privacy machinery, so any generator covering counts 0..n exercises
    the same code paths as real data.

    Schema: [(name:text, age:int, city:text, has_flu:bool,
    bought_drug:bool)]. The generator guarantees [bought_drug ⇒
    has_flu], making drug sales a certified lower bound on the flu
    count (the paper's side-information example). *)

val schema : Schema.t

val random_row :
  Prob.Rng.t -> flu_rate:float -> drug_rate_given_flu:float -> int -> Value.t array
(** One synthetic individual; the [int] is used for the name. *)

val population :
  Prob.Rng.t -> ?flu_rate:float -> ?drug_rate_given_flu:float -> int -> Database.t
(** Random population of the given size (defaults: flu 20%, drug 50%
    of flu cases). *)

val population_with_count : Prob.Rng.t -> n:int -> count:int -> Database.t
(** Population whose flu count is exactly [count].
    @raise Invalid_argument unless [0 <= count <= n]. *)

val flu_query : Count_query.t
(** The paper's query Q: adult San Diego residents with flu. *)

val flu_anywhere : Count_query.t
(** Flu count over the whole population. *)

val drug_query : Count_query.t
(** Drug purchases — the drug company's side information. *)
