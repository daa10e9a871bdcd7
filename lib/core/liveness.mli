(** Step liveness: which steps can influence the final database state.

    A write is {e live} when its value reaches the final state — it is the
    final write of its entity, or some live read is served it (under the
    standard version function). A read is live when its transaction
    performs a live write later in its program (a transaction's writes are
    uninterpreted functions of {e all} its earlier reads) — reads by the
    padding transaction Tf are live by definition. Final-state
    equivalence, and hence FSR, only constrains the live portion of a
    schedule. *)

val live_positions : Schedule.t -> bool array
(** [live_positions s] maps each position of [s] to its liveness, taking
    the padded schedule's semantics (the final write of each entity is
    read by Tf and therefore live) without materializing T0/Tf. *)

val live_read_froms : Schedule.t -> Read_from.triple list
(** The READ-FROM triples of [s]'s live reads under the standard version
    function, sorted and duplicate-free. Two schedules of the same system
    are final-state equivalent iff these and the final writers coincide. *)

val live_read_froms_ref : Schedule.t -> Read_from.triple list
(** Reference oracle for {!live_read_froms}: the string-keyed standard
    version function and a fixpoint that rescans the schedule suffix at
    every step. Same triples; kept for the property tests. *)

val dead_steps : Schedule.t -> Step.t list
(** The dead steps, in schedule order (for diagnostics). *)
