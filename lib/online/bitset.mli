(** Growable bitsets over non-negative integers — the adjacency rows of
    {!Incr_digraph} and the per-entity accessor sets of {!Certifier},
    both over transaction ids.

    Members are packed [Sys.int_size - 1] (62 on 64-bit) to a native-int
    word, the width of {!Mvcc_graph.Digraph}'s bitmask rows; a set grows
    to cover its largest member. Membership, insertion and removal are
    O(1); {!iter} walks the set bits word by word, in ascending order. *)

type t

val create : unit -> t
(** An empty set; allocates no words until the first {!add}. *)

val mem : t -> int -> bool

val add : t -> int -> unit
(** @raise Invalid_argument on a negative member. *)

val remove : t -> int -> unit

val clear : t -> unit

val iter : (int -> unit) -> t -> unit
(** Members in ascending order. *)
