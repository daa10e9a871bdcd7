(** Multiversion serializability (MVSR, Section 2).

    A schedule [s] is MVSR iff some version function [V] makes the full
    schedule [(s, V)] view-equivalent to a serial full schedule. MVSR is
    the performance limit of the multiversion approach, and testing it is
    NP-complete [8]; this module implements an exact exponential decision
    procedure.

    The search uses the characterization: [s] is MVSR iff there is a
    permutation [π] of the transactions such that for every read step
    [R_i(x)] with no earlier own write of [x], the last transaction [T_j]
    before [T_i] in [π] that writes [x] (if any) has its last write of [x]
    {e before} [R_i(x)] in [s] — then [V] can legally serve exactly the
    versions the serial schedule [π] produces. The search backtracks over
    which transaction to append next, with state (placed set, last writer
    per entity) and memoization.

    Convention: the paper's version [x_j] is the value of [T_j]'s {e last}
    write of [x] (the paper writes one value [x_j] per transaction and
    entity). *)

module Decider : Mvcc_analysis.Decider.S
(** The MVSR decision procedures over a shared analysis context: the
    unpinned backtracking search runs once per context (memoized under a
    context key) however many operations are called. [test] accepts an
    MVCSR schedule without searching (Theorem 3); [witness] and [decide]
    always search. [witness] is the serialization of the certificate
    order; [violation] is [None]. *)

val certificate_ctx :
  Mvcc_analysis.Ctx.t -> (int list * Mvcc_core.Version_fn.t) option
(** {!certificate} through the context's cached search. *)

val test : Mvcc_core.Schedule.t -> bool
(** Exact MVSR decision by the search alone. Exponential in the number
    of transactions. *)

val certificate :
  Mvcc_core.Schedule.t -> (int list * Mvcc_core.Version_fn.t) option
(** A serialization order [π] and a total legal version function [V] with
    [(s, V)] view-equivalent to [(serialization s π, standard)]. *)

val test_pinned :
  Mvcc_core.Schedule.t -> pinned:Mvcc_core.Version_fn.t -> bool
(** Like {!test}, but the reads in [pinned]'s domain must be served exactly
    the pinned versions (the on-line constraint of Section 4: versions
    already handed out by a scheduler cannot be revoked).
    @raise Invalid_argument if [pinned] is not legal for [s]. *)

val certificate_pinned :
  Mvcc_core.Schedule.t ->
  pinned:Mvcc_core.Version_fn.t ->
  (int list * Mvcc_core.Version_fn.t) option

val serializable_with :
  Mvcc_core.Schedule.t -> Mvcc_core.Version_fn.t -> bool
(** Is the full schedule [(s, V)] serializable? [V] must be total and
    legal. Equivalent to [test_pinned s ~pinned:V]. *)

val test_naive : Mvcc_core.Schedule.t -> bool
(** Paper-literal oracle: enumerate all legal version functions and all
    serializations and compare READ-FROM relations. Doubly exponential;
    for cross-validation on very small schedules only. *)

val decide : Mvcc_core.Schedule.t -> bool * Mvcc_provenance.Witness.t
(** The verdict of {!test} with a checkable certificate: the
    serialization order and induced version function on acceptance, the
    search effort (placements tried, memo prunes) on rejection. *)
