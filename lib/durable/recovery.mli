(** ARIES-style recovery, specialized to a no-steal multiversion store.

    [recover] runs the classic three passes over a {!Wal.read}:

    {b Analysis} scans the records, numbering attempts per transaction
    (each [Begin] starts one), collecting every operation with its
    logged read source, every [Install], and the commit order. A
    transaction is {e committed} iff a CRC-valid [Commit] record
    survives. Committed transactions whose logged read source turns out
    uncommitted — possible only when a [Commit] record is lost to
    {e mid-log} corruption, never by truncating the tail (tested) —
    are cascaded out, to a fixpoint, exactly as the engine would have
    cascaded the abort had it happened before the crash.

    {b Redo} rebuilds the version chains by re-installing the [Install]
    records of surviving committed transactions, in log order, onto the
    initial state ([State] records) or onto a {!Snapshot} (then only
    records at [lsn >= snapshot.lsn] replay). Redo is logical and
    idempotent-by-construction: it always starts from a consistent base
    image, so there is no pageLSN protocol.

    {b Undo} is the no-steal dividend: uncommitted transactions never
    touched the store (writes live in the transaction's buffer until
    commit), so undoing them means {e not redoing} their installs — no
    undo records, no compensation log records, no second log pass.

    Full-log recovery also rebuilds the committed history as a
    {!Mvcc_core.Schedule.t} and issues the witness the live engine did
    (both come from {!Mvcc_engine.Certificate}), so
    the independent {!Mvcc_provenance.Checker} can certify the
    recovered state with no trust in this module. Snapshot recovery
    sees only the log tail, which cannot carry the full history; it
    recovers the store (byte-identical to full-log recovery — tested)
    and reports [witness = None]. *)

type t = {
  commit_order : int list;
      (** transactions recovered as committed, in commit order *)
  undone : int list;
      (** in-flight at the crash: begun in the replayed range, never
          committed — their buffered writes are simply not redone *)
  cascaded : int list;
      (** logged as committed but undone anyway because a read source
          was lost; empty for every tail truncation (tested) *)
  store : Mvcc_engine.Store.t;  (** the recovered version chains *)
  state : (string * int) list;  (** latest committed values, sorted *)
  history : Mvcc_core.Schedule.t;
      (** committed final attempts in operation order (tail-only under
          snapshot recovery) *)
  read_srcs : (int * Wal.src) list;
      (** logged read source per read position of [history] — the raw
          material of {!Mvcc_engine.Event.version_fn} *)
  writers : (int * int) list;
      (** [(wts, txn)] for every redone install, log order: which
          transaction wrote each recovered version *)
  witness : Mvcc_provenance.Witness.t option;
      (** the policy's certificate over [history]; [None] under
          snapshot recovery *)
  stats : Mvcc_obs.Jsonl.stats;  (** skips and torn tail from the read *)
}

val recover :
  policy:Mvcc_engine.Engine.policy -> ?snapshot:Snapshot.t -> Wal.read -> t

(** {1 The incremental core}

    [recover] is [analysis] + [observe] per record + [assemble]; the
    pieces are exposed so the log-shipping {!Follower} can run the same
    analysis one streamed record at a time and materialize the full
    recovered view on demand — recovery-in-a-loop with no second code
    path to trust (their equivalence is qcheck-pinned anyway). *)

type analysis
(** Accumulated analysis state: a {!Mvcc_engine.Certificate.t} fold,
    installs, initial state. *)

val analysis : unit -> analysis

val copy : analysis -> analysis
(** An independent copy: observing into one leaves the other as it
    was. The follower keeps one to take back a record it consumed
    before the line's end arrived. *)

val observe : analysis -> Wal.record -> unit
(** Feed one CRC-valid record, in log order. *)

val assemble :
  policy:Mvcc_engine.Engine.policy ->
  ?snapshot:Snapshot.t ->
  stats:Mvcc_obs.Jsonl.stats ->
  analysis ->
  t
(** The cascade fixpoint, redo, and the surviving set's certificate
    over the analysis so far. Pure in [analysis]: calling it never
    perturbs later [observe]/[assemble] rounds. *)

val dump_string : Mvcc_engine.Store.t -> string
(** Canonical printable rendering of {!Mvcc_engine.Store.dump} — one
    line per entity — used to compare recovered stores byte-for-byte. *)
