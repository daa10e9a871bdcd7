(** The write-ahead log: an append-only JSON-lines file of engine
    events, each record framed with a log sequence number and a CRC-32.

    The record grammar mirrors {!Mvcc_engine.Engine.wal_event} — initial
    state, attempt begins with timestamps, operations with read sources,
    version installs (logical redo records), commits, aborts, and
    checkpoints naming a snapshot. Records are flat
    {!Mvcc_obs.Json} objects, one per line, ending in a ["crc"] field
    computed over the record's own encoding; a record survives ingestion
    only if it parses {e and} its CRC matches, so a flipped byte or a
    torn write is detected, never silently replayed.

    Unlike an ARIES log there are no undo records and no CLRs: the
    engine buffers writes until commit (no-steal), so the store never
    holds uncommitted data and "undo" is simply not redoing — see
    {!Recovery}. *)

type src = Mvcc_engine.Event.read_src =
  | From_init  (** the entity's initial version *)
  | From_self  (** the transaction's own earlier write *)
  | From_txn of int  (** the writing transaction *)
(** A read's source: the engine's own type, so a hook logs it as is. *)

type record =
  | State of { entity : string; value : int }
  | Begin of { txn : int; ts : int }
  | Op of { txn : int; entity : string; write : bool; src : src option }
  | Install of { txn : int; entity : string; value : int; wts : int }
  | Commit of { txn : int }
  | Abort of { txn : int; reason : string }
  | Checkpoint of { snapshot : string; commits : int }
      (** [snapshot] names the snapshot holding every install logged
          before this record (a file path, or a harness-internal key) *)

val crc32 : string -> int
(** CRC-32 (IEEE, reflected) of a string, as a non-negative int. *)

val frame : (string * Mvcc_obs.Json.value) list -> string
(** A field list as one CRC-suffixed JSON line (no newline): the fields
    in order, then a ["crc"] field holding {!crc32} of the object
    without it. The framing {!Snapshot} shares with the log itself. *)

val encode : lsn:int -> record -> string
(** One log line (without the newline): the record's fields prefixed
    with the LSN and suffixed with the CRC of everything before it. *)

val decode : string -> (int * record) option
(** Inverse of {!encode}, and only of it: a single pass over exactly the
    canonical grammar {!encode} writes (fixed key order per record kind,
    no whitespace, [string_of_int] integers over the full int range,
    {!encode}'s string escapes), checking the CRC over the line's own
    bytes. [None] for anything else — malformed or truncated input, an
    unknown record shape, a CRC mismatch, or a line that is valid JSON
    but not byte-for-byte canonical. *)

val decode_sub : string -> pos:int -> len:int -> (int * record) option
(** [decode_sub s ~pos ~len] is [decode (String.sub s pos len)] without
    the copy. *)

val decode_prefix : string -> pos:int -> (int * record * int) option
(** [decode_prefix s ~pos] decodes the canonical record that starts at
    [s.[pos]], in place: no newline is searched for and nothing is
    copied. It returns the LSN, the record and the offset just past the
    record's closing brace, and ignores whatever follows that brace —
    the record is a whole line only if the byte there is ['\n'] or the
    end of [s]. No strict prefix of a canonical line decodes, so the
    end offset is where the line must end. *)

val scan :
  string ->
  pos:int ->
  on_record:(int -> record -> unit) ->
  on_skip:(unit -> unit) ->
  int
(** [scan s ~pos ~on_record ~on_skip] reads the newline-terminated lines
    of [s] from the line start [pos] on: [on_record lsn r] for each line
    that decodes, [on_skip ()] for each that does not and is not
    whitespace only. A line is decoded in place with {!decode_prefix}
    and accepted when its newline follows at once; only a failed parse
    searches for the newline. The lines it accepts are exactly those a
    line splitter running {!decode} on each line would.

    It returns the offset where the unterminated final line starts
    ([String.length s] when [s] is empty or ends in a newline). Whether
    that fragment is a record — {!decode_prefix} ending at the end of
    [s] — is the caller's to decide: {!read_string} takes it as one,
    and the follower takes it provisionally, since more bytes may yet
    extend the line. This is the one log scanner: {!read_string},
    {!read_file} and {!Follower.feed} all run it. *)

(** {1 Appending}

    Durability is simulated explicitly: appends accumulate in an open
    batch, and only {!force} — the fsync stand-in — moves the batch
    into the durable prefix (and, with a backing file, onto disk).
    Without a {!window} every append forces immediately, which is PR 6's
    flush-per-record discipline byte-for-byte; a window defers the force
    until a record-count or commit-count threshold fills, amortizing the
    flush across transactions (group commit). Commit records are
    {e acknowledged} only when forced: {!acked_commits} is the count the
    engine may report as durable, and everything after the last force
    boundary is lost in a crash. *)

type window = { max_records : int option; max_commits : int option }
(** Force the open batch when either threshold fills. *)

val window : ?records:int -> ?commits:int -> unit -> window
(** Smart constructor; thresholds must be [>= 1] and at least one must
    be given. [window ~records:1 ()] reproduces flush-per-record
    timing exactly. *)

type boundary = {
  b_bytes : int;  (** bytes durable after this force *)
  b_lsn : int;  (** records durable after this force *)
  b_acked : int;  (** commits acknowledged after this force *)
}
(** The writer's state at one force boundary — the crash harness cuts
    the log here to model a crash that lands between fsyncs. *)

type writer

val writer :
  ?path:string -> ?window:window -> ?obs:Mvcc_obs.Sink.t -> unit -> writer
(** An appender assigning LSNs from 0. Records accumulate in memory
    (for {!contents}); with [path] forced batches are written through
    to the file and flushed. Without [window] each append forces
    itself — the PR 6 WAL discipline of forcing the record before the
    action it covers. The log {e bytes} are identical either way: a
    force adds nothing to the stream, it only marks how much of it is
    durable.

    [obs] (default {!Mvcc_obs.Sink.noop}) is pure accounting — the log
    bytes are identical with or without it (qcheck-pinned): counter
    [wal.appends] and a [wal.append] point span per record; per force a
    [wal.force] span timing the write-through, carrying the batch's
    [force_boundary] LSN, [records]/[commits] batch sizes, [bytes]
    flushed and the cumulative [acked] count, plus counter [wal.forces]
    and gauges [wal.force-boundary-lsn], [wal.forced-bytes],
    [wal.acked-commits]. *)

val append : writer -> record -> int
(** Append one record; returns its LSN. Forces the batch if the window
    fills (or no window was given). *)

val force : writer -> unit
(** Force the open batch: write-through + flush if file-backed, advance
    the durable boundary, acknowledge the batch's commits. No-op when
    nothing is pending. *)

val next_lsn : writer -> int
(** The LSN the next {!append} will assign (= records appended). *)

val contents : writer -> string
(** Everything appended so far, as the exact bytes of the log file
    (including any not-yet-forced suffix). *)

val durable_contents : writer -> string
(** The forced prefix of {!contents} — exactly the bytes a crash right
    now would leave on disk, and exactly what a backing file holds. *)

val forced_bytes : writer -> int
(** [String.length (durable_contents w)]. *)

val forced_lsn : writer -> int
(** Records in the durable prefix; LSNs [>= forced_lsn w] are not yet
    durable. *)

val acked_commits : writer -> int
(** Commit records in the durable prefix — the deferred acknowledgement
    count the engine polls via [?wal_durable]. *)

val forces : writer -> int
(** Forces performed so far (simulated fsyncs). *)

val force_boundaries : writer -> boundary list
(** Every force so far, oldest first. *)

val close : writer -> unit
(** Force the open batch (exactly once — idempotent) and close the
    backing file, if any. *)

(** {1 Reading} *)

type read = {
  records : (int * record) list;  (** CRC-valid records, in file order *)
  stats : Mvcc_obs.Jsonl.stats;
      (** mid-file skips vs a torn final record, counted as
          {!Mvcc_obs.Jsonl.read_string} counts them *)
}

val read_string : string -> read
(** {!scan} over the whole string: the records, the non-blank lines
    that failed as skips, and a torn tail when an unterminated final
    fragment is neither a record nor whitespace only. *)

val read_file : string -> read
(** {!read_string} of the file's contents. *)
