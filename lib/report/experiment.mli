(** Experiment harness: named, self-describing reproduction units.

    Each experiment corresponds to one artifact of the paper (a table,
    a figure, a lemma, or a synthesized evaluation — see the index in
    DESIGN.md). The bench binary runs them and EXPERIMENTS.md records
    the outcomes.

    Timing uses the monotonic clock ({!Obs.Clock.monotonic}, injectable
    for tests) and output flows through an injectable sink, so callers
    can capture per-experiment results instead of scraping stdout. *)

type verdict =
  | Pass  (** every check of the artifact succeeded *)
  | Fail of string  (** at least one check failed, with a reason *)
  | Info  (** descriptive output only, nothing to check *)

type t = {
  id : string;  (** short id, e.g. "T1", "F1", "THM1" *)
  title : string;
  paper_claim : string;  (** what the paper reports *)
  run : unit -> verdict * string;  (** produces the measured detail *)
}

val make : id:string -> title:string -> paper_claim:string -> (unit -> verdict * string) -> t

(** Everything one run produced. *)
type outcome = {
  experiment : t;
  verdict : verdict;
  detail : string;
  wall_ns : int64;  (** monotonic-clock elapsed time *)
  obs : Obs.t option;
      (** with [observe:true], the recorder that was ambient during the
          run — pivot counts, coefficient-bit histograms, etc. *)
}

val run_streamed : ?out:(string -> unit) -> ?clock:Obs.Clock.t -> ?observe:bool -> t -> outcome
(** Run one experiment and write its human-readable report (header,
    detail, verdict, timing) to [out] (default [print_string]). The
    header is printed before the experiment runs, so long runs stream
    progress. With [observe] (default false) a fresh {!Obs.t} recorder
    is ambient for the duration of the run and returned in the outcome;
    any previously installed recorder is restored afterwards. *)

val run_one : ?out:(string -> unit) -> t -> verdict
(** Run and print one experiment; the verdict alone. *)

val run_all : ?out:(string -> unit) -> t list -> bool
(** Run a batch; prints a summary and returns whether everything
    passed. *)
