(** An in-memory multiversion store.

    Each entity carries an ordered chain of committed versions; the
    initial version of every entity has write timestamp 0 and the entity's
    initial value. Single-version policies simply confine themselves to
    the newest version.

    Entities are interned to dense ids on first touch, in first-touch
    order, through one name table. The names and the version chains are
    arrays indexed by the same id. The engine resolves every entity of a
    run once, at admission, and from then on reaches chains only through
    the id forms ({!latest_id}, {!read_at_id}, {!install_id},
    {!would_invalidate_id}): an array index, no hashing. The policies
    index their metadata arrays by the same id. The name forms are
    one-line wrappers that intern first, for recovery, replicas,
    snapshots and tests. Ids carry no meaning beyond identity: which id
    an entity gets changes no decision.

    Interning is not presence: an entity that was only interned has no
    chain and is not in {!entities}, {!value_map} or {!dump} until a
    read, install or other chain access creates its initial version. *)

type version = {
  value : int;
  wts : int;  (** timestamp of the writer (0 = initial) *)
  mutable max_rts : int;  (** largest timestamp that read this version *)
}

type t

val create : initial:(string * int) list -> t
(** A store holding the given entities at their initial values.
    Entities never accessed before can also be created lazily with
    initial value 0. *)

val set_initial : t -> string -> int -> unit
(** [set_initial t e v] makes [v] the entity's initial (wts 0) value,
    interning [e] on first touch and replacing its whole chain —
    {!create} is one call per [initial] pair, so a repeated
    entity's last value wins. O(1): a replica bootstraps its initial
    state one record at a time with it. *)

val intern : t -> string -> int
(** The entity's dense interned id (assigned on first touch, in
    first-touch order). Interning alone does not make the entity
    present in {!entities}: only a read, install, or other chain
    access does. *)

val name : t -> int -> string
(** Inverse of {!intern}. *)

val entities : t -> string list
(** Entities currently present (with a version chain), sorted by
    [String.compare]. *)

val latest : t -> string -> version
(** The newest committed version. *)

val latest_id : t -> int -> version
(** {!latest} of the entity with this interned id. Every [_id] form
    takes an id {!intern} returned and makes the entity present, like
    its name form. *)

val read_at : t -> string -> int -> version
(** [read_at store e ts] is the version of [e] with the largest write
    timestamp [<= ts] — the MVTO read rule. *)

val read_at_id : t -> int -> int -> version

val find_at : t -> string -> int -> version option
(** {!read_at} as a pure query: it neither interns [e] nor makes it
    present. [None] when [e] was never interned, has no chain, or has
    no version at or below [ts]. *)

val install : t -> string -> value:int -> wts:int -> unit
(** Commit a new version. Versions must be installed with strictly
    positive timestamps; a refused [wts <= 0] interns nothing.
    @raise Invalid_argument if a version with the same [wts] exists or
    [wts <= 0]. *)

val install_id : t -> int -> value:int -> wts:int -> unit

val would_invalidate : t -> string -> wts:int -> bool
(** The MVTO write rule: would a new version of [e] at [wts] invalidate an
    existing read, i.e. is there a version with [wts' < wts] already read
    by some transaction younger than [wts]? *)

val would_invalidate_id : t -> int -> wts:int -> bool

val version_count : t -> string -> int

val longest_chain : t -> int
(** The largest {!version_count} over the present entities, 0 when none
    is present. One pass over the chain array: no name is sorted or
    hashed. *)

val prune : t -> string -> watermark:int -> int
(** [prune store e ~watermark] discards versions no active transaction can
    still read: every version older than the newest version with
    [wts <= watermark] (that one is kept as the snapshot base). Returns
    the number of versions discarded. *)

val prune_all : t -> watermark:int -> int
(** {!prune} applied to every chain — the engine's GC sweep at each
    commit. Returns the versions discarded. *)

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

val of_dump : (string * (int * int) list) list -> t
(** Rebuild a store from {!dump} output (or a recovered subset of it).
    Each restored version gets [max_rts = wts], exactly as a fresh
    {!install} would. [of_dump (dump t)] and [t] agree on every read.
    An entity listed with no versions is interned but not present. *)
