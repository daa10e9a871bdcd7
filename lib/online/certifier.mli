(** Online certification: accept or reject one step at a time.

    A certifier owns a streaming graph maintainer ({!Incr_conflict} or
    {!Incr_mvcg}, by {!mode}) plus the bookkeeping an online scheduler
    needs to serve versions: the position of the last accepted write of
    each entity. Feeding a step is amortized near-constant work (the
    step's new arcs, plus a bounded reordering of the dynamic
    topological order when one lands against it) — versus the batch
    schedulers' full graph rebuild and DFS per offer.

    A certifier whose steps were all accepted has certified that every
    prefix of the fed sequence is CSR ([Conflict] mode) resp. MVCSR
    ([Mv_conflict] mode); a rejected step leaves the certifier exactly
    as it was, and the caller may keep feeding alternative steps (the
    scheduler contract instead stops at the first rejection). *)

type mode =
  | Conflict  (** single-version conflict graph: certifies CSR *)
  | Mv_conflict  (** multiversion conflict graph: certifies MVCSR *)

type verdict = Accepted | Rejected

type t

val create : ?obs:Mvcc_obs.Sink.t -> ?log:Mvcc_provenance.Log.t -> mode -> t
(** [obs] (default {!Mvcc_obs.Sink.noop}) records per-feed accounting
    under the prefix [cert.conflict] resp. [cert.mvcg]: counters
    [accepted]/[rejected]/[arcs] (arcs inserted), [reorder-moves]
    (topological-order slots the Pearce–Kelly reorder reassigned),
    [rollbacks]/[rollback-arcs] (rejected batches and the arcs they
    unwound), latency histogram [feed_s], and a ["cert"] span point per
    feed ([txn], [arcs], then [moves] or [rolled_back]). Decisions are
    identical with any sink — checked by the invariance properties in
    test/test_obs.ml. [log] makes {!feed_explained} register each
    witness there and emit a ["decision"] span point carrying its id
    ([site], [id], [ok]). *)

val mode : t -> mode

val feed : t -> Mvcc_core.Step.t -> verdict
(** Offer the next step. [Rejected] leaves the certifier untouched. *)

val n_accepted : t -> int
(** Steps accepted so far = the position the next accepted step gets. *)

val last_write : t -> string -> int option
(** Position of the last accepted write of the entity, if any. *)

val standard_source :
  t -> Mvcc_core.Step.t -> Mvcc_core.Version_fn.source
(** The standard version source for a read offered now: the last
    accepted write of its entity, or the initial version — what
    {!Mvcc_sched.Scheduler.standard_source} computes by scanning the
    whole prefix, in O(1). *)

val graph : t -> Incr_digraph.t
(** The live certification graph (do not mutate). *)

val accepts_all : mode -> Mvcc_core.Schedule.t -> bool
(** Feed a whole schedule through a fresh certifier: a linear-time
    [Csr.test] ([Conflict]) resp. [Mvcsr.test] ([Mv_conflict]) — arcs
    only accumulate, so the full graph is acyclic iff no step's arcs
    close a cycle when it arrives. *)

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
