(** Empirical statistics for validating samplers against their target
    distributions. *)

type summary = { count : int; mean : float; variance : float; min : int; max : int }

val summarize : int array -> summary
(** @raise Invalid_argument on an empty sample. *)

val empirical : int array -> Discrete.t
(** Empirical distribution of a sample. *)

val fits : ?min_expected:float -> int array -> Discrete.t -> bool
(** Does the sample pass the χ² goodness-of-fit test at the ≈0.1%
    level? *)

val empirical_tv : int array -> Discrete.t -> float
(** Total-variation distance between the empirical distribution of the
    sample and the target. *)

val draw : Discrete.t -> Rng.t -> int -> int array
(** [draw d rng n] samples [n] values. *)

val ks_statistic : int array -> Discrete.t -> float
(** Kolmogorov–Smirnov sup-distance between the sample's empirical CDF
    and the target CDF. @raise Invalid_argument on an empty sample. *)

val ks_fits : int array -> Discrete.t -> bool
(** KS goodness-of-fit at significance ≈0.001. *)

val wilson_interval : successes:int -> trials:int -> float * float
(** ~99.9% Wilson score interval for a Bernoulli proportion; used to
    bound Monte-Carlo estimates. @raise Invalid_argument on bad
    counts. *)
