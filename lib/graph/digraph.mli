(** Mutable directed graphs over integer nodes [0 .. n-1].

    This is the shared graph substrate for conflict graphs, multiversion
    conflict graphs, serialization orders, and the directed part of
    polygraphs. Nodes are dense integers so that callers index transactions
    directly; parallel edges are collapsed.

    Graphs of at most [Sys.int_size - 1] nodes (62 on 64-bit — the dense
    small case every classification sweep lives in) store adjacency as
    one native-int bitmask per node: membership is a mask test and
    {!iter_succ}/{!fold_succ} walk set bits in ascending order without
    allocating. Larger graphs fall back to the hash-table adjacency. *)

type t
(** A mutable directed graph with a fixed node count. *)

val create : int -> t
(** [create n] is a graph with nodes [0 .. n-1] and no edges.
    @raise Invalid_argument if [n < 0]. *)

val n_nodes : t -> int
(** Number of nodes. *)

val n_edges : t -> int
(** Number of distinct edges. *)

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] adds the edge [u -> v]. Idempotent. Self-loops are
    allowed (and make the graph cyclic).
    @raise Invalid_argument if [u] or [v] is out of range. *)

val remove_edge : t -> int -> int -> unit
(** [remove_edge g u v] removes the edge [u -> v] if present. *)

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] is [true] iff the edge [u -> v] is present. *)

val succ : t -> int -> int list
(** Successors of a node, in unspecified order (ascending on the
    bitmask representation). Materializes a fresh list; hot loops
    should prefer {!iter_succ} or {!fold_succ}. *)

val iter_bits : (int -> unit) -> int -> unit
(** [iter_bits f mask] applies [f] to the index of each set bit of
    [mask], in ascending order, one iteration per set bit. *)

val iter_succ : (int -> unit) -> t -> int -> unit
(** [iter_succ f g u] applies [f] to each successor of [u], in
    unspecified order (ascending on the bitmask representation),
    without materializing the successor list or allocating. *)

val fold_succ : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a
(** [fold_succ f g u init] folds [f] over the successors of [u], in
    the {!iter_succ} order, without materializing the successor
    list. *)

val pred : t -> int -> int list
(** Predecessors of a node, in unspecified order (computed, O(E)). *)

val out_degree : t -> int -> int
(** Number of successors of a node. *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** Iterate over all edges. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over all edges. *)

val edges : t -> (int * int) list
(** All edges as a list, in unspecified order. *)

val copy : t -> t
(** Independent copy. *)

val of_edges : int -> (int * int) list -> t
(** [of_edges n es] is the graph with [n] nodes and edges [es]. *)

val transpose : t -> t
(** Graph with every edge reversed. *)

val equal : t -> t -> bool
(** Same node count and same edge set. *)

val pp : Format.formatter -> t -> unit
(** Debug printer: [digraph(n; u->v, ...)]. *)
