(** DMVSR (Papadimitriou & Kanellakis [8], discussed in Section 3).

    [8] shows MVSR is polynomial in the restricted model where no
    transaction writes an entity it has not read, and extends the test to
    the general model by inserting a read step before each "readless"
    (blind) write: a schedule is DMVSR if the transformed schedule is MVSR.
    The paper notes MVCSR corresponds to [8]'s MRW class, a superset of
    DMVSR (their MWW). *)

module Decider : Mvcc_analysis.Decider.S
(** The DMVSR decision procedures over a shared analysis context. The
    blind-write transform and the MVSR search over it run once per
    context; when the schedule has no blind writes the transform is the
    identity and the search is shared with the MVSR decider's cache.
    [test] accepts when the {Ww,Rw} conflict graph is acyclic (that is
    MVCSR of the transform, which implies DMVSR by Theorem 3) and rejects
    a non-MVSR schedule (DMVSR ⊆ MVSR); only the rest are searched.
    [decide] always searches. [witness] and [violation] are [None] (the
    certificate's order and version function live over the transformed
    schedule, not [s]). *)

val transform : Mvcc_core.Schedule.t -> Mvcc_core.Schedule.t
(** Insert [R_i(x)] immediately before every write [W_i(x)] whose
    transaction has not read [x] earlier in its program. A schedule with
    no blind write is returned as it is (physically). *)

val test : Mvcc_core.Schedule.t -> bool
(** [s] is DMVSR iff [transform s] is MVSR: the MVSR search over the
    transform, with no containment shortcut. *)

val has_blind_writes : Mvcc_core.Schedule.t -> bool
(** Does any transaction write an entity it has not previously read? In
    the restricted (no-blind-write) model, DMVSR coincides with MVSR. *)

val decide : Mvcc_core.Schedule.t -> bool * Mvcc_provenance.Witness.t
(** The verdict of {!test} with a checkable certificate over
    [transform s] (the checker re-derives the same padding). *)
