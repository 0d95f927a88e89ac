(** The one response surface.

    Every consumer-facing mouth of the system — [dpserved] over TCP,
    [dpopt engine] over files, [dpopt serve] printing a single release
    — speaks this type and its single JSON schema, replacing the three
    ad-hoc shapes those paths used to emit:

    - [{"v":1,"status":"ok","id"?,"key","rung","loss","samples"}] —
      served on the rung the ladder started at, [geometric+remap]
      (the tailored optimum, by Theorem 1): every unbudgeted answer is
      [ok];
    - [..."status":"degraded"...,"provenance":{...}] — served on raw
      [geometric] because the ladder abandoned the remap rung; the
      provenance names it and why;
    - [{"v":1,"status":"error","id"?,"error":{"kind","msg",...}}] — a
      typed refusal; [kind] is stable and machine-dispatchable, and
      structured fields ([pending]/[capacity], [key]/[rule], ...)
      accompany the kinds that have them;
    - [{"v":1,"status":"stats","id"?,"stats":{...},"prometheus":"..."}]
      — the answer to the [op=stats] admin verb: the {!Stats.to_json}
      snapshot plus its {!Stats.to_prometheus} text exposition.

    [id] is echoed verbatim from the request envelope when the caller
    supplied one. Rendering is {!Obs.Json.to_string} — compact,
    deterministic, rationals exact as ["p/q"] strings. *)

type payload = {
  id : string option;  (** echoed request id *)
  key : string;  (** canonical cache key the request was served under *)
  rung : Minimax.Serve.rung;
  loss : Rat.t;
  samples : int array;
  provenance : Minimax.Serve.provenance;
}

type error =
  | Unsupported_version of { got : string option }
  | Unknown_key of { key : string }
  | Malformed of { msg : string }
  | Invalid of { msg : string }
  | Overloaded of { pending : int; capacity : int }
      (** admission control refused: the pending queue is full *)
  | Deadline_exceeded  (** the connection's {!Resilience.Budget} ran out *)
  | Uncertified of { key : string; rule : string }
      (** a release failed re-certification; nothing was served *)
  | Budget_exhausted of { sub : string; group : string; spent : Rat.t; floor : Rat.t }
      (** the subscriber's cumulative privacy-budget ledger refused
          this epoch: [spent·α] would fall below [floor] *)
  | Internal of { msg : string }

(** Which session verb a {!Session_view} answers. *)
type session_status = Subscribed | Unsubscribed | Ledger_report

type t =
  | Ok of payload
  | Degraded of payload  (** served below the top rung; see [provenance] *)
  | Error of { id : string option; error : error }
  | Stats of { id : string option; stats : Stats.t }
      (** the telemetry snapshot answering [op=stats] *)
  | Session_view of { id : string option; status : session_status; view : Session.view }
      (** the subscriber's ledger view answering [op=subscribe],
          [op=unsubscribe] or [op=ledger] *)
  | Released of { id : string option; release : Session.release }
      (** the epoch summary answering [op=release]: the full rung
          vector, every subscriber's outcome, and the collusion
          certificate *)
  | Release_push of {
      id : string option;
      sub : string;
      group : string;
      epoch : int;
      level : Rat.t;
      value : int;
      spent : Rat.t;
      floor : Rat.t option;
      certificate : Session.Certificate.t;
    }
      (** one pushed [status:"release"] line delivering a served
          subscriber its own rung (and the epoch's certificate); [id]
          echoes the subscribe-time tag *)

val of_engine : ?id:string -> Engine.response -> t
(** [Ok] when the serve ladder's provenance records no abandoned
    rungs, [Degraded] otherwise. *)

val of_served : ?id:string -> key:string -> Minimax.Serve.served -> t
(** A release with no samples drawn ([dpopt serve]'s mouth): same
    [Ok]/[Degraded] rule, [samples] empty. *)

val of_wire_error : ?id:string -> Engine.Request.wire_error -> t
val of_job_error : ?id:string -> Engine.job_error -> t
val error : ?id:string -> error -> t
val stats : ?id:string -> Stats.t -> t
val subscribed : ?id:string -> Session.view -> t
val unsubscribed : ?id:string -> Session.view -> t
val ledger : ?id:string -> Session.view -> t
val released : ?id:string -> Session.release -> t

val release_pushes : Session.release -> t list
(** One {!Release_push} per {e served} subscriber of the epoch, in
    ledger order ([id] unset — stamp with {!with_id}); refused
    subscribers are omitted (the server sends them
    {!Budget_exhausted} error lines instead). *)

val with_id : string option -> t -> t
(** Replace the echoed id — how a push line gets stamped with its
    subscriber's subscribe-time tag. *)

val error_message : error -> string
val status : t -> string
(** ["ok"], ["degraded"], ["error"], ["stats"], ["subscribed"],
    ["unsubscribed"], ["ledger"], ["released"] or ["release"]. *)

val id : t -> string option

val to_json : t -> Obs.Json.t

val to_line : t -> string
(** Compact one-line JSON — exactly what goes on the wire. *)
