(** The run certificate: one fold over the begin/op/commit events.

    The paper's classes are properties of a history alone, so a run's
    certificate is a function of its committed history and the logged
    read sources. This is the one place that builds them and maps a
    policy to its witness. {!Engine.run} feeds it the events it streams
    to its WAL listener and {!Mvcc_durable.Recovery} the records it
    reads back, so a run and the recovery of its log issue the same
    certificate. Each [Wal_begin] starts an attempt of its transaction;
    a transaction's history is its committed attempt's operations. *)

type t

val create : unit -> t

val copy : t -> t
(** An independent copy: observing into one leaves the other as it
    was. *)

val observe : t -> Event.t -> unit
(** Feed one event, in stream order. [Wal_install] only marks its
    transaction seen; state, abort and checkpoint events are ignored. *)

(** {1 The fold so far, for recovery's cascade and redo} *)

val attempt : t -> int -> int
(** The current attempt (0 before the transaction's first begin). *)

val is_final : t -> int -> int -> bool
(** [is_final t txn att]: [att] is the attempt [txn] committed. *)

val commits : t -> int list
(** Committed transactions, oldest commit first. *)

val in_flight : t -> int list
(** Seen but never committed, ascending. *)

val committed_reads_from : t -> (int * int) list
(** [(reader, writer)] for every read of a committed attempt from a
    transaction's write ([From_txn writer]), the writer seen in the
    stream: the read-from edges a recovery cascade follows. *)

(** {1 The certificate} *)

type history = {
  history : Mvcc_core.Schedule.t;  (** committed attempts, in op order *)
  read_srcs : (int * Event.read_src) list;  (** per read position *)
  commit_order : int list;  (** oldest commit first *)
  ts_order : int list;  (** by timestamp, then every other id *)
}

val assemble : ?survives:(int -> bool) -> t -> history
(** The history of the committed transactions [survives] keeps (default:
    all), over one more than the largest id seen. Pure in [t]. *)

val witness : policy:Policy_intf.policy -> history -> Mvcc_provenance.Witness.t
(** S2PL: [Member Csr], the commit order. TO: [Member Csr], the
    timestamp order. SGT: [Member Csr], a topological order of the
    history's own conflict graph (the commit order should it be
    cyclic). MVTO: [Member Mvsr], the timestamp order and
    {!Event.version_fn} of the read sources. SI: [Read_consistent] with
    that version function. *)
