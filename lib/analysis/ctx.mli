(** Per-schedule analysis context: compute-once caches for everything the
    decision procedures derive from a schedule.

    A context wraps one immutable schedule plus a memo table. Every
    accessor below computes its value on first use and returns the cached
    value afterwards, so the seven serializability deciders, [Report],
    [Topography], the census sweeps and the provenance CLI all share one
    conflict graph, one MVCG, one polygraph solve, one liveness pass —
    instead of each call rebuilding its own ({!builds} counts the
    constructions; the test suite pins the single-construction
    guarantee).

    {b Domain safety.} A context is single-domain: the memo table is an
    unsynchronized hashtable. Parallel sweeps ([Mvcc_exec.Pool]) get
    their decision invariance from the other direction — the schedule is
    immutable and every cached value is a pure function of it, so each
    domain builds its own context and necessarily computes identical
    values. Never share one context between domains. *)

type t

val make : Mvcc_core.Schedule.t -> t
val schedule : t -> Mvcc_core.Schedule.t

(** {1 Cached analyses} *)

val is_serial : t -> bool

val conflict_graph : t -> Mvcc_graph.Digraph.t
(** The single-version conflict graph ([Conflict.graph]). *)

val mv_graph : t -> Mvcc_graph.Digraph.t
(** MVCG ([Conflict.mv_graph]). *)

val kind_graph : t -> ww:bool -> wr:bool -> rw:bool -> Mvcc_graph.Digraph.t
(** The conflict graph restricted to the selected kinds (the
    Ibaraki-Kameda lattice). The full subset aliases {!conflict_graph}
    and [{rw}] aliases {!mv_graph}, so lattice consumers share the
    dedicated caches. *)

val conflict_topo : t -> int list option
(** Topological order of {!conflict_graph} ([None] iff cyclic) — the CSR
    verdict and serialization witness in one value. *)

val mv_topo : t -> int list option
val conflict_cycle : t -> int list option
val mv_cycle : t -> int list option
val conflict_shortest_cycle : t -> (int * int) list option
val mv_shortest_cycle : t -> (int * int) list option

val final_writers : t -> (string * Mvcc_core.Read_from.writer) list

val live_read_froms : t -> Mvcc_core.Read_from.triple list
(** The live READ-FROM triples ([Liveness]); with {!final_writers} this
    is the FSR signature. *)

val polygraph : t -> Mvcc_polygraph.Polygraph.t
(** The VSR polygraph of [6] ({!Vsr_polygraph.of_schedule}): built from
    the schedule with virtual T0 and Tf, no padded schedule cached. *)

val polygraph_solution :
  t -> Mvcc_graph.Digraph.t option * Mvcc_polygraph.Acyclicity.stats
(** One backtracking solve of {!polygraph}, shared by the VSR test,
    witness and certificate paths. *)

(** {1 Extending the cache}

    Downstream layers (the class deciders) memoize their own per-context
    results — the MVSR search, the FSR signature scan, the DMVSR
    transform — under typed keys. Create keys at module-initialization
    time; [memo] is not re-entrant for the same key. *)

type 'a key

val key : string -> 'a key
(** A fresh typed key. The name feeds the {!builds} counters (names need
    not be unique, but shared names pool their counts). *)

val memo : t -> 'a key -> (t -> 'a) -> 'a
(** [memo t k f] returns the cached value under [k], computing [f t]
    once on first use. *)

(** {1 Introspection} *)

val builds : t -> string -> int
(** How many times the named cache has been computed in this context —
    0 before first use, 1 ever after (the compute-once guarantee the
    test suite pins). *)

val build_counts : t -> (string * int) list
(** All computed caches with their construction counts, sorted. *)

(** {1 Caching contexts across schedules} *)

module Table : Hashtbl.S with type key = Mvcc_core.Schedule.t
(** Hashtables keyed by schedules ([Schedule.equal] /
    [Schedule.hash]) — for sweep deduplication and context reuse. *)

val cache : unit -> Mvcc_core.Schedule.t -> t
(** [cache ()] is a memoizing constructor: repeated calls on equal
    schedules return the same context (single-domain, unbounded — meant
    for batch runs over a universe with duplicates). *)
