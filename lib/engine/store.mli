(** An in-memory multiversion store, partitioned by interned entity id.

    Each entity carries an ordered chain of committed versions; the
    initial version of every entity has write timestamp 0 and the entity's
    initial value. Single-version policies simply confine themselves to
    the newest version.

    Entities are interned to dense ids on first touch and their chains
    are partitioned into [shards] buckets by [id mod shards] — the
    BOHM-style placement function the sharded pipeline's per-shard
    sweeps run over. The partitioning is physical, not semantic: every
    operation below returns identical results at any shard count.

    Version values are mutable so the pipeline's execution stage can
    {e place} a version at commit (reserving its timestamp slot in the
    chain, which is what concurrency control decisions depend on) and
    {!fill} in the computed value later, off the decision path. *)

type version = {
  mutable value : int;
      (** written once: at {!install}, or by {!fill} after {!place} *)
  wts : int;  (** timestamp of the writer (0 = initial) *)
  mutable max_rts : int;  (** largest timestamp that read this version *)
  mutable filled : bool;
      (** whether the value slot has been written; {!place} leaves it
          false, {!fill} flips it exactly once *)
}

type t

val create : initial:(string * int) list -> t
(** A store holding the given entities at their initial values, in one
    partition. Entities never accessed before can also be created lazily
    with initial value 0. *)

val create_sharded : shards:int -> initial:(string * int) list -> t
(** {!create} with the chains partitioned into [shards] buckets — what
    the engine builds when [cores > 1]. *)

val set_initial : t -> string -> int -> unit
(** [set_initial t e v] makes [v] the entity's initial (wts 0) value,
    interning [e] on first touch and replacing its whole chain —
    {!create_sharded} is one call per [initial] pair, so a repeated
    entity's last value wins. O(1): a replica bootstraps its initial
    state one record at a time with it. *)

val intern : t -> string -> int
(** The entity's dense interned id (assigned on first touch, in
    first-touch order). Interning alone does not make the entity
    present in {!entities}: only a read, install, or other chain
    access does. *)

val name : t -> int -> string
(** Inverse of {!intern}. *)

val shard_count : t -> int

val shard_of : t -> string -> int
(** The partition holding the entity's chain: [intern t e mod shards]. *)

val entities : t -> string list
(** Entities currently present (with a version chain), sorted. *)

val latest : t -> string -> version
(** The newest committed version. *)

val read_at : t -> string -> int -> version
(** [read_at store e ts] is the version of [e] with the largest write
    timestamp [<= ts] — the MVTO read rule. *)

val install : t -> string -> value:int -> wts:int -> unit
(** Commit a new version. Versions must be installed with strictly
    positive timestamps.
    @raise Invalid_argument if a version with the same [wts] exists or
    [wts <= 0]. *)

val place : t -> string -> wts:int -> version
(** {!install} with the value left as a hole (0) for a later {!fill}:
    the chain slot — everything concurrency control can observe — is
    claimed now; the value arrives when the execution stage runs. Same
    validation as {!install}. *)

val fill : version -> int -> unit
(** Write a placed version's value, before anything reads
    [version.value]. Each version is fillable exactly once — a double
    fill would silently corrupt the chain (the first value may already
    have been consumed by a later wave or dumped by a checkpoint).
    @raise Invalid_argument on a version that is already filled
    (including any {!install}ed, initial, or {!of_dump}-restored one). *)

val would_invalidate : t -> string -> wts:int -> bool
(** The MVTO write rule: would a new version of [e] at [wts] invalidate an
    existing read, i.e. is there a version with [wts' < wts] already read
    by some transaction younger than [wts]? *)

val version_count : t -> string -> int

val prune : t -> string -> watermark:int -> int
(** [prune store e ~watermark] discards versions no active transaction can
    still read: every version older than the newest version with
    [wts <= watermark] (that one is kept as the snapshot base). Returns
    the number of versions discarded. *)

val prune_shard : t -> int -> watermark:int -> int
(** {!prune} applied to every chain in one partition; the engine's
    sharded GC sweep runs one call per shard, on the shard's own worker
    domain (chains are never shared across partitions, so the sweeps
    are data-independent). Returns the versions discarded in that
    shard. *)

val value_map : t -> (string * int) list
(** Latest committed value of each entity, sorted — the "current database
    state" a single-version observer sees. *)

val dump : t -> (string * (int * int) list) list
(** The full committed version chains, as (entity, versions) with
    entities sorted and versions as (wts, value) pairs ascending in
    [wts] — the canonical durable image a snapshot persists. Read
    timestamps are runtime bookkeeping for live transactions and are
    deliberately not part of the durable state (after a crash no
    transaction that bumped them survives). *)

val of_dump : ?shards:int -> (string * (int * int) list) list -> t
(** Rebuild a store from {!dump} output (or a recovered subset of it).
    Each restored version gets [max_rts = wts], exactly as a fresh
    {!install} would. [of_dump (dump t)] and [t] agree on every read. *)
