(** READ-FROM relations and views (Section 2).

    [R_i(x_j)] — transaction [T_i] reads [x] from [T_j] — holds in a full
    schedule [(s, V)] when [V] maps the read to a write of [T_j]; under the
    standard version function this is the last preceding write. The
    READ-FROM relation is the set of triples [(T_i, x, T_j)]; T0, the
    implicit initial transaction, appears as [T0]. *)

type writer = T0 | T of int

val pp_writer : Format.formatter -> writer -> unit

val compare_writer : writer -> writer -> int
(** Monomorphic writer order, [T0] below every [T _] — the order
    polymorphic compare gave. *)

val equal_writer : writer -> writer -> bool

type triple = { reader : int; entity : string; writer : writer }

val compare_triple : triple -> triple -> int
(** Monomorphic: reader, then entity, then writer. *)

val equal_triple : triple -> triple -> bool

val equal_relation : triple list -> triple list -> bool
(** Monomorphic list equality, for comparing READ-FROM relations
    without polymorphic [=] over strings. *)

val equal_finals : (string * writer) list -> (string * writer) list -> bool
(** Monomorphic equality of {!final_writers}-shaped lists. *)

val relation : Schedule.t -> Version_fn.t -> triple list
(** READ-FROM relation of the full schedule [(s, V)], as a sorted,
    duplicate-free set of triples. [V] must be total and legal for [s].
    @raise Invalid_argument otherwise. *)

val std_relation : Schedule.t -> triple list
(** READ-FROM of [(s, V_s)] — the single-version reading of [s]. *)

val per_step : Schedule.t -> Version_fn.t -> (int * writer) list
(** Source of each read, as (read position, writer transaction), in
    position order. Finer than {!relation}: positions are not collapsed. *)

val final_writers : Schedule.t -> (string * writer) list
(** Last writer of each entity of [s] ([T0] for entities only read),
    sorted by entity. This is what the padding transaction Tf reads under
    the standard version function. *)

val final_writers_ref : Schedule.t -> (string * writer) list
(** Reference oracle for {!final_writers}: a string-keyed last-write
    table probed once per sorted entity. Same list; kept for the
    property tests. *)

val view : Schedule.t -> Version_fn.t -> int -> (string * writer) list
(** The view of a transaction in [(s, V)]: for each entity it reads, the
    writer(s) it reads from — as a sorted association list of (entity,
    writer), duplicates removed. *)

val last_write_of : Schedule.t -> txn:int -> entity:string -> int option
(** Position of [txn]'s last write of [entity] in the schedule, if any.
    The paper's [x_j] version is the value of this write. *)
