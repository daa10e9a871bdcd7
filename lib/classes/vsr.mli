(** View serializability (VSR, Section 2) — the paper's "SR" region in
    Fig. 1.

    A schedule is VSR iff its padded schedule is view-equivalent to a
    serial schedule under the standard (single-version) version function:
    identical READ-FROM relations and identical final writers. Testing VSR
    is NP-complete [6]; two exact procedures are provided and
    cross-validated in the test suite. *)

module Decider : Mvcc_analysis.Decider.S
(** The VSR decision procedures over a shared analysis context: the
    polygraph is built and solved once per context ([Ctx.polygraph] /
    [Ctx.polygraph_solution]) however many operations are called.
    [test] answers from CSR ⊆ VSR ⊆ MVSR when it can (a CSR schedule is
    VSR, a non-MVSR one is not) and solves the polygraph only for the
    rest; [witness] and [decide] always solve it. [violation] is [None]
    — VSR rejections are certified by search exhaustion, not a cycle. *)

val test : Mvcc_core.Schedule.t -> bool
(** Decide VSR via the polygraph of the padded schedule
    ({!polygraph_of}) — the construction of [6] — with no containment
    shortcut. *)

val test_exact : Mvcc_core.Schedule.t -> bool
(** Oracle: search all serializations for a view-equivalent one
    ([n!]; small schedules only). *)

val witness : Mvcc_core.Schedule.t -> Mvcc_core.Schedule.t option
(** A view-equivalent serial schedule, if any (decoded from a compatible
    acyclic digraph of the polygraph). *)

val polygraph_of : Mvcc_core.Schedule.t -> Mvcc_polygraph.Polygraph.t
(** The polygraph of [6] ([Mvcc_analysis.Vsr_polygraph.of_schedule]):
    the schedule is VSR iff it is acyclic. *)

val decide : Mvcc_core.Schedule.t -> bool * Mvcc_provenance.Witness.t
(** The verdict of {!test} with a checkable certificate: a serialization
    order decoded from the compatible acyclic digraph on acceptance, the
    choice-tree search effort on rejection. *)

val decide_sat : Mvcc_core.Schedule.t -> bool * Mvcc_provenance.Witness.t
(** Like {!decide} through the SAT order encoding: the order decoded
    from a satisfying assignment ([Accept_assignment]) on acceptance,
    DPLL search effort on rejection. *)

val decide_sat_ctx :
  Mvcc_analysis.Ctx.t -> bool * Mvcc_provenance.Witness.t
(** {!decide_sat} sharing the context's cached polygraph (the SAT solve
    itself is not cached — it is the cross-check route). *)
