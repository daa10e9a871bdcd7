(** Dynamic directed graphs with incremental cycle detection.

    A growable digraph over integer nodes that is {e acyclic by
    construction}: {!add_edge} certifies each insertion against a
    Pearce–Kelly dynamic topological order and refuses — without mutating
    anything — any edge that would close a cycle. An accepted insertion
    pays a two-way DFS bounded to the order interval the edge disturbs
    (nothing at all when the order already agrees), instead of the full
    graph DFS the batch testers pay per step.

    Edge removal never invalidates a topological order, so {!remove_edge}
    is O(1); a caller that inserted a batch of edges and then changed its
    mind rolls back by removing exactly the edges that were newly added
    (see {!Certifier}).

    Each node's successors and predecessors are a {!Bitset} row over
    node ids: an arc test, insertion or removal is one word operation
    (removal stays O(1)), and rows are walked in ascending node order,
    so {!iter_edges} and the DFS visit neighbours in that order. The
    DFS mark visited nodes with a per-search generation stamp in one
    int array instead of allocating a visited set. *)

type t
(** A mutable, always-acyclic digraph. Nodes are [0 .. n_nodes - 1] and
    are materialized on demand by {!ensure_node} / {!add_edge}. *)

val create : ?capacity:int -> unit -> t
(** An empty graph. [capacity] (default 8) pre-sizes the node arrays;
    the graph grows beyond it transparently. *)

val n_nodes : t -> int
val n_edges : t -> int

val reorder_moves : t -> int
(** Cumulative topological-order slots reassigned by Pearce–Kelly
    reorders since creation — the structure's total maintenance cost.
    Observability reads it as a delta around each insertion. *)

val rollbacks : t -> int
(** Cumulative {!add_edges} batches that were rejected and rolled
    back. *)

val rolled_back_arcs : t -> int
(** Cumulative arcs that were inserted and then removed again by those
    rollbacks. *)

val rejection_cycle : t -> (int * int) list option
(** The cycle the most recently rejected insertion would have closed,
    as an arc list [[(u, v); (v, w1); ...; (wk, u)]] whose head is the
    refused edge and whose tail is a shortest existing path back from
    [v] to [u]. Captured {e before} a rejected {!add_edges} batch is
    rolled back, so arcs inserted earlier in the batch may appear in
    the tail — they are genuine arcs of the attempted insertion.
    [None] until the first rejection; a later rejection overwrites it. *)

val ensure_node : t -> int -> unit
(** [ensure_node g u] materializes nodes [0 .. u] (edgeless nodes join at
    the end of the topological order).
    @raise Invalid_argument if [u < 0]. *)

val add_edge : t -> int -> int -> bool
(** [add_edge g u v] inserts [u -> v] and returns [true], growing the
    graph so both endpoints exist; returns [false] — with the graph,
    including its topological order, {e completely untouched} — if the
    edge would create a cycle (self-loops included). Idempotent on
    existing edges. *)

val add_edges : t -> (int * int) list -> bool
(** All-or-nothing batch insertion: adds the arcs in order and returns
    [true], or — if any arc would create a cycle — removes exactly the
    arcs that were newly added and returns [false], leaving the graph as
    before the call. The rollback path of a rejected scheduler step. *)

val remove_edge : t -> int -> int -> unit
(** Remove the edge if present. O(1); the topological order remains
    valid, so this is the rollback primitive for rejected insertions.
    @raise Invalid_argument on out-of-range nodes. *)

val remove_incident : t -> int -> unit
(** [remove_incident g u] removes every edge entering or leaving [u]
    (used when a transaction aborts and its arcs must be forgotten). *)

val mem_edge : t -> int -> int -> bool

val order : t -> int -> int
(** [order g u] is [u]'s index in the maintained topological order: a
    permutation of [0 .. n_nodes - 1] with [order u < order v] for every
    edge [u -> v]. *)

val topological_order : t -> int list
(** All nodes, sorted by {!order} — a topological sort, for free. *)

val iter_edges : (int -> int -> unit) -> t -> unit

val to_digraph : t -> Mvcc_graph.Digraph.t
(** Snapshot as a plain {!Mvcc_graph.Digraph.t} (for cross-validation
    against the batch algorithms). *)
