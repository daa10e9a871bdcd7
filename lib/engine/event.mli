(** The durability events the engine streams to a WAL listener, and the
    read-source vocabulary they share with recovery.

    Kept out of {!Engine} (which re-exports the constructors under
    their historical names) because {!Policy}, which the engine is
    built on, names abort {!reason}s. See {!Engine.wal_event} for the
    per-constructor contracts. *)

type read_src =
  | From_init  (** the entity's initial version (write timestamp 0) *)
  | From_self  (** the reader's own earlier write *)
  | From_txn of int  (** the writing transaction *)

(** Why an attempt aborted. {!reason_name} is the string WAL abort
    records are written with, and {!reason_counter} the
    [engine.abort.<reason>] counter. *)
type reason =
  | Deadlock  (** S2PL waits-for cycle, requester is the victim *)
  | Wait_die  (** wait-die: younger requester dies *)
  | Wound  (** wound-wait: younger holder preempted *)
  | Ts_order  (** TO read/write arrived too late *)
  | Write_invalidated  (** MVTO write under an already-served read *)
  | First_committer  (** SI first-committer-wins *)
  | Certification  (** SGT: the operation would close a cycle *)
  | Cascade  (** aborted because a dirty predecessor aborted *)
  | Crash  (** injected failure *)

val reason_name : reason -> string

val reason_counter : reason -> string
(** ["engine.abort." ^ reason_name r], as a constant: the counter an
    abort for [r] increments. *)

val all_reasons : reason list

type t =
  | Wal_state of { entity : string; value : int }
  | Wal_begin of { txn : int; ts : int }
  | Wal_op of {
      txn : int;
      entity : string;
      write : bool;
      src : read_src option;
    }
  | Wal_install of { txn : int; entity : string; value : int; wts : int }
  | Wal_commit of { txn : int }
  | Wal_abort of { txn : int; reason : reason }
  | Wal_checkpoint of { store : Store.t; commits : int }

val version_fn :
  Mvcc_core.Schedule.t -> (int * read_src) list -> Mvcc_core.Version_fn.t
(** The version function a committed history's read sources induce, in
    one pass: [From_init] → the initial version, [From_self] → the
    reader's latest earlier write of the entity ([-1] if none),
    [From_txn j] → [j]'s last write of the entity (no entry if none).
    Every witness and certified read built from read sources uses it. *)
