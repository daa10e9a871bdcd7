(** Online certification: accept or reject one step at a time.

    A certifier maintains, over a stream of accesses, either the
    single-version conflict graph ([Conflict] mode) or the multiversion
    conflict graph of Theorem 1 ([Mv_conflict] mode), as an always-acyclic
    {!Incr_digraph}. Feeding an access adds only the arcs it introduces —
    one per distinct earlier conflicting accessor of its entity, read off
    per-entity reader/writer {!Bitset}s over transaction ids, in
    ascending id order — instead of re-deriving all [O(n^2)]
    conflicting pairs of the prefix as {!Mvcc_core.Conflict.graph} resp.
    {!Mvcc_core.Conflict.mv_graph} does; an access whose arcs would close
    a cycle is rejected and rolled back arc by arc, leaving the certifier
    exactly as it was. MVCG arcs run only from an earlier read to a later
    write, so in [Mv_conflict] mode a read draws no arc and is always
    accepted.

    Arcs only accumulate as steps arrive, so a prefix's graph is a
    subgraph of every extension's: a certifier whose steps were all
    accepted has certified that every prefix of the fed sequence is CSR
    resp. MVCSR, which makes acceptance equivalent to the batch SGT resp.
    MVCG scheduler re-testing every prefix. The caller may keep feeding
    alternative steps after a rejection (the scheduler contract instead
    stops at the first one).

    There are two entries. {!feed} takes a {!Mvcc_core.Step.t}, interns
    its entity name, and keeps the position of each entity's last
    accepted write so an online scheduler can serve versions. {!feed_id}
    takes an entity id the caller has interned itself (the engine's SGT
    policy) and is the one place a feed's cost is accounted. *)

type mode =
  | Conflict  (** single-version conflict graph: certifies CSR *)
  | Mv_conflict  (** multiversion conflict graph: certifies MVCSR *)

type verdict = Accepted | Rejected

type t

val create : ?obs:Mvcc_obs.Sink.t -> ?log:Mvcc_provenance.Log.t -> mode -> t
(** [obs] (default {!Mvcc_obs.Sink.noop}) records per-feed accounting
    under [engine.cert] — the engine's SGT policy is the one caller that
    attaches a sink: counters [arcs] (arcs inserted by accepted feeds),
    [reorder-moves] (topological-order slots the Pearce–Kelly reorder
    reassigned), [rollbacks]/[rollback-arcs] (rejected feeds and the arcs
    they unwound), latency histogram [feed_s], and a ["cert"] span point
    per feed ([txn], [arcs], then [moves] or [rolled_back]). Decisions
    are identical with any sink — checked by the invariance properties in
    test/test_obs.ml. [log] makes {!feed_explained} register each
    witness there and emit a ["decision"] span point carrying its id
    ([site] = [engine.cert], [id], [ok]). *)

val feed_id : ?parent:int -> t -> txn:int -> write:bool -> int -> bool
(** [feed_id t ~txn ~write e] offers an access by transaction [txn] to
    the entity with caller-interned id [e] ([e >= 0]; ids need not be
    dense) and says whether it was accepted. [parent] is the span the
    ["cert"] point hangs under (default none). Does not touch the
    {!feed} entry's positions. *)

val forget_txn : t -> int -> footprint:((int -> unit) -> unit) -> unit
(** [forget_txn t txn ~footprint] erases an aborted transaction: it
    leaves the reader/writer sets of the entity ids [footprint] passes to
    its argument — every entity it accessed; repeats are harmless — and
    loses its incident arcs. No other entity is visited. *)

val feed : t -> Mvcc_core.Step.t -> verdict
(** Offer the next step. [Rejected] leaves the certifier untouched. *)

val n_accepted : t -> int
(** Steps accepted by {!feed} so far = the position the next accepted
    step gets. *)

val last_write : t -> string -> int option
(** Position of the last write of the entity accepted by {!feed}. *)

val standard_source :
  t -> Mvcc_core.Step.t -> Mvcc_core.Version_fn.source
(** The standard version source for a read offered now: the last
    accepted write of its entity, or the initial version — what
    {!Mvcc_sched.Scheduler.standard_source} computes by scanning the
    whole prefix, in O(1). *)

val accepts_all : mode -> Mvcc_core.Schedule.t -> bool
(** Feed a whole schedule through a fresh certifier: a linear-time
    [Csr.test] ([Conflict]) resp. [Mvcsr.test] ([Mv_conflict]) — arcs
    only accumulate, so the full graph is acyclic iff no step's arcs
    close a cycle when it arrives. *)

val scheduler : mode -> Mvcc_sched.Scheduler.t
(** The incremental scheduler of the mode: [sgt-inc] ([Conflict]), the
    serialization-graph-testing scheduler, resp. [mvcg-inc]
    ([Mv_conflict]), the [3]-style scheduler that recognizes exactly
    MVCSR. Each fresh instance feeds its own certifier and serves every
    accepted read the standard source. Decision-equivalent to the batch
    {!Mvcc_sched.Sgt} resp. {!Mvcc_sched.Mvcg_sched}, but an offer costs
    only the step's new arcs plus a bounded reorder of the dynamic
    topological order, instead of a rebuild of the prefix's graph and a
    full DFS. The instance ignores the [prefix] argument; like every
    scheduler instance it must be offered the accepted steps in sequence
    (which {!Mvcc_sched.Driver} does). *)

type explained = { verdict : verdict; witness : Mvcc_provenance.Witness.t }

val feed_explained : t -> Mvcc_core.Step.t -> explained
(** {!feed}, plus a certificate for the verdict: on acceptance, the
    maintained topological order — a serialization of the whole accepted
    prefix (claim [Member Csr] resp. [Member Mvcsr]); on rejection, the
    cycle the step's arcs would have closed
    ({!Incr_digraph.rejection_cycle}), a non-membership proof for the
    prefix extended with the refused step. An acceptance order is a
    permutation of [0 .. max transaction fed so far] — check it against
    the prefix built with [Schedule.of_steps]'s default [n_txns].
    Verified against those schedules by [Mvcc_provenance.Checker] in the
    test suite. *)
