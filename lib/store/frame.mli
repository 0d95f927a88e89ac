(** Crash-safe checksummed disk frames.

    The one framing format every durable byte in this tree goes
    through: a [DPST] magic, a format version, the payload length, the
    payload itself, and an MD5 trailer over everything before it. The
    artifact store ({!Store}) wraps compiled mechanisms in it; the
    session service ({!Session}) wraps privacy-budget ledger
    checkpoints in it. Payloads self-describe (a JSON ["format"] tag),
    so the two never mistake each other's files: the frame layer
    guarantees integrity, the payload layer guarantees meaning.

    Writes are atomic and durable: payload to a pid-suffixed temp
    file, [fsync], [rename] into place, [fsync] the directory. A
    reader can never observe a half-written frame — only the old
    bytes, the new bytes, or a temp file it ignores. *)

type error =
  | Corrupt of string  (** truncated, length mismatch, checksum mismatch *)
  | Bad_magic  (** not a frame of any version *)
  | Stale_version of { got : int }  (** a future (or ancient) format *)
  | Io of string  (** filesystem refusal *)

val error_to_string : error -> string

val format_version : int

val decode : string -> (string, error) result
(** Recover the payload, checking truncation before magic, magic
    before version, version before checksum — so a foreign or future
    file reports what it is, not a nonsense digest mismatch. *)

val write : path:string -> payload:string -> (unit, error) result
(** Atomically persist [encode payload] at [path]: temp file, fsync,
    rename, directory fsync. On any error the temp file is removed
    and [path] still holds its previous bytes (or nothing). *)

val read : path:string -> (string, error) result
(** Read and {!decode} the frame at [path]. *)

val is_temp : string -> bool
(** Does a basename carry the [.tmp.<pid>] infix a killed writer
    leaves behind? Such files were never renamed into place. *)

