(** Concurrency-control policies as modules.

    The paper treats each concurrency-control algorithm as a scheduler
    of its own, realizing a subset of the serializable schedules. Here
    each engine policy is one module of signature {!S}, and {!Engine.run}
    is the policy-blind driver that calls it. A policy keeps its
    metadata (lock tables, read/write timestamps, write reservations,
    dirty lists, the certification graph) in arrays indexed by
    {!Store.intern} id or client id, and decides from that metadata
    alone, never from a tuple value. *)

include module type of struct
  include Policy_intf
end

val of_engine : ?deadlock:deadlock -> policy -> (module S)
(** [deadlock] (default [Detect]) parameterizes S2PL. *)
