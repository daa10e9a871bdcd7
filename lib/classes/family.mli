(** The lattice of conflict-based classes (Section 3's discussion of
    Ibaraki & Kameda [5]).

    [5] studies subclasses of MVSR obtained by demanding that various
    subsets of the conflict types — write-write, write-read, read-write —
    be preserved against a serial schedule (read-read never constrains).
    Each subset [K] yields the class of schedules whose [K]-conflict graph
    is acyclic. The familiar classes are instances:

    - [{Ww; Wr; Rw}] is CSR (every conflict preserved);
    - [{Rw}] is MVCSR ([5]'s MRW, as the paper notes);
    - [{}] accepts everything.

    Subsets containing [Rw] are {e safe}: their classes sit inside MVCSR
    and hence inside MVSR (Theorem 3). Subsets missing [Rw] accept
    schedules outside MVSR — reversing a read-then-write pair is the one
    thing no version function can repair (the paper's asymmetry
    rationale). The lattice census experiment quantifies this. *)

type conflict_kind =
  | Ww  (** write then later write, same entity, different transactions *)
  | Wr  (** write then later read *)
  | Rw  (** read then later write — the multiversion conflict *)

val all_kinds : conflict_kind list
val pp_kinds : Format.formatter -> conflict_kind list -> unit

val graph : kinds:conflict_kind list -> Mvcc_core.Schedule.t -> Mvcc_graph.Digraph.t
(** The conflict graph restricted to the given kinds: an arc [Ti -> Tj]
    per ordered pair of steps of the selected kinds. *)

val test : kinds:conflict_kind list -> Mvcc_core.Schedule.t -> bool
(** Acyclicity of {!graph} — the [kinds]-conflict-serializability test. *)

val witness :
  kinds:conflict_kind list ->
  Mvcc_core.Schedule.t ->
  Mvcc_core.Schedule.t option
(** A serial schedule ordering the transactions by a topological sort of
    the [kinds]-conflict graph, if acyclic. *)

val topo_ctx :
  kinds:conflict_kind list -> Mvcc_analysis.Ctx.t -> int list option
(** A topological order of the [kinds]-conflict graph ([None] iff
    cyclic), cached per context and subset; {!decider} reads the same
    cache. *)

val decider : kinds:conflict_kind list -> Mvcc_analysis.Decider.t
(** The [kinds]-conflict-serializability decider as a first-class
    {!Mvcc_analysis.Decider}: named ["K{WW,RW}"]-style, certified by a
    topological order ([Member (Kinds ...)]) or a shortest cycle of the
    restricted graph. The restricted graph, its order and its cycle are
    cached per context and per subset; the full subset and [{Rw}] share
    the CSR/MVCSR caches. *)

val subsets : conflict_kind list list
(** All eight subsets of the three conflict kinds, smallest first. *)

val safe : kinds:conflict_kind list -> bool
(** Does the subset contain [Rw] (hence its class is within MVSR)? *)
