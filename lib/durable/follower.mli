(** A log-shipping follower: recovery-in-a-loop.

    A follower consumes the WAL byte stream continuously — from a file
    being tailed or an in-memory feed — and maintains, incrementally,
    exactly what one-shot {!Recovery.recover} of the consumed prefix
    would produce (qcheck-pinned, including torn tails). It runs the
    shared {!Recovery.analysis} one record at a time and applies a
    transaction's installs when its [Commit] record arrives; the full
    recovered view ({!state}) is {!Recovery.assemble} of the live
    analysis.

    Ingest is one pass: the stream is read by {!Wal.scan}, the same
    in-place scanner one-shot {!Wal.read_string} runs, so the follower
    accepts and skips exactly the lines recovery does by construction.
    Apply is by id: a transaction's pending installs sit in an array
    indexed by transaction, the writer of each version in one indexed
    by write timestamp, and each install goes through
    {!Mvcc_engine.Store.install_id}. An entity is interned when its
    install commits, never at the [Install] record, so an aborted
    attempt cannot intern it earlier than recovery's redo does.

    Reads are served at a {e lagging snapshot timestamp}: the largest
    write timestamp applied so far. Ship the follower only forced bytes
    ({!Wal.durable_contents}, or a file the writer flushes at force
    boundaries) and it can never observe an unacknowledged commit — the
    replica serves a consistent, certified, slightly stale view, the
    standard asynchronous-replication contract.

    Chunking is irrelevant: bytes may arrive per record, per batch, or
    split mid-record. A trailing fragment that does not yet parse stays
    pending until the rest ships (a strict prefix of a framed line never
    parses — the crc field closes the object — so a parseable
    unterminated tail is a complete record missing only its newline and
    is applied at once, as the one-shot reader reads it at end of
    file). That record is provisional: if the next bytes go on with
    anything but its newline, one-shot recovery of the longer prefix
    no longer reads the line as a record, so the follower takes it back
    (from a copy of the analysis it kept) and degrades. Newline-terminated
    garbage is counted as a skip; a mid-stream skip can hide a lost
    [Commit], so from then on the follower degrades to rebuilding its
    store from {!Recovery.assemble} after every batch (cascade-correct,
    no longer incremental). Equality with one-shot recovery after every
    feed is qcheck-pinned on clean streams and on streams with garbage,
    blank lines, CRs and flipped bytes injected. *)

type t

val create :
  policy:Mvcc_engine.Engine.policy -> ?obs:Mvcc_obs.Sink.t -> unit -> t
(** [obs] (default {!Mvcc_obs.Sink.noop}) is pure accounting — replica
    state is identical with or without it: per chunk a
    [follower.ingest] span timing the feed (attrs [bytes], [records],
    [snapshot_ts]) with a [replicated] point span per commit applied
    under it (attrs [txn], [snapshot_ts] — the commit-to-replicated
    half of the {!Mvcc_obs.Latency} breakdown), counters
    [follower.chunks]/[follower.records]/[follower.commits], and
    gauges [follower.ingested-bytes]/[follower.snapshot-ts]/
    [follower.skips]. *)

val feed : t -> string -> int
(** Consume the next chunk of the stream; returns records applied. *)

val catch_up : t -> string -> int
(** [catch_up t log] feeds the not-yet-ingested suffix of [log], where
    [log] is the whole stream from byte 0 (e.g. {!Wal.durable_contents}).
    Idempotent: catching up twice on the same bytes applies nothing the
    second time.
    @raise Invalid_argument if [log] is shorter than what was already
    ingested. *)

val catch_up_file : t -> string -> int
(** {!catch_up} on a file's current contents — one poll of a tailed
    log. It seeks past the bytes already ingested and reads only the
    rest, so a poll costs the log's growth, not its size.
    @raise Invalid_argument if the file is shorter than what was
    already ingested. *)

(** {1 The replica's view} *)

val snapshot_ts : t -> int
(** The lagging snapshot timestamp: largest applied write timestamp. *)

val read : t -> string -> int option
(** The entity's value at {!snapshot_ts}; [None] if never heard of.
    Equal to [List.assoc_opt e (read_view t)], but one name lookup
    ({!Mvcc_engine.Store.find_at}): the view is not built, and an absent
    name is not interned. *)

val read_view : t -> (string * int) list
(** Every known entity's value at {!snapshot_ts}, sorted. *)

val certify :
  t -> Mvcc_core.Schedule.t * Mvcc_provenance.Witness.t * bool
(** Certified reads: the recovered committed history extended with an
    observer transaction reading every entity at {!snapshot_ts}, each
    observer read bound to the version it served, wrapped in a
    [Read_consistent] witness and confirmed (or refuted — the [bool])
    by the independent {!Mvcc_provenance.Checker}. *)

val certified_read_view : t -> (string * int) list * bool
(** {!read_view} plus the {!certify} verdict. *)

val state : t -> Recovery.t
(** The full recovered view of the consumed prefix —
    {!Recovery.assemble} over the live analysis. Equal in every
    observable to one-shot recovery of the same bytes (tested). *)

val store : t -> Mvcc_engine.Store.t
(** The incrementally-maintained version chains. *)

(** {1 Progress accounting} *)

val ingested_bytes : t -> int
(** Raw bytes consumed, including any pending fragment. *)

val records_applied : t -> int

val commits_applied : t -> int
(** Commits applied so far; the leader's [Wal.acked_commits] minus this
    is the follower's replication lag in commits. *)

val skips : t -> int
(** Newline-terminated garbage lines seen (0 on a healthy stream). *)

val stats : t -> Mvcc_obs.Jsonl.stats
(** Skips plus whether an unparseable fragment is currently pending —
    what a one-shot read of the ingested bytes would report. *)
