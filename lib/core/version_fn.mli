(** Version functions (Section 2).

    A version function [V] supplements a schedule [s] to a full schedule
    [(s, V)]: it assigns to each read step a previous write step of the
    same entity — not necessarily the last one — or the initial version
    (the padding transaction T0's write). Versions are identified by the
    *position* of the write step in the schedule, so multiple writes of the
    same entity are distinguished. *)

type source =
  | Initial  (** the version written by the padding transaction T0 *)
  | From of int  (** the version written by the step at this position *)

type t
(** A (possibly partial) version function: a finite map from read-step
    positions to sources. *)

val empty : t

val add : int -> source -> t -> t
(** [add pos src v] binds read position [pos] to [src] (replacing any
    previous binding). *)

val get : t -> int -> source option
(** Binding of a read position, if any. *)

val domain : t -> int list
(** Bound read positions, ascending. *)

val of_list : (int * source) list -> t
val to_list : t -> (int * source) list

val standard : Schedule.t -> t
(** [standard s] is V_s: every read is assigned the last previous write of
    the same entity ([Initial] if there is none). Defined on every read
    position of [s]. *)

val standard_ref : Schedule.t -> t
(** Reference oracle for {!standard}: one pass with a string-keyed
    last-write table. Same bindings; kept for the property tests. *)

val legal : Schedule.t -> t -> bool
(** Is the function legal for [s]: every bound position is a read of [s],
    and each [From p] binding names a write step of the same entity
    strictly before the read. (Partial functions are legal if their
    bindings are.) *)

val total : Schedule.t -> t -> bool
(** Does the function bind every read position of [s]? *)

val choices : Schedule.t -> int -> source list
(** [choices s pos] are the legal sources for the read at position [pos]:
    [Initial] plus every earlier write of the same entity.
    @raise Invalid_argument if [pos] is not a read step. *)

val enumerate : ?fixed:t -> Schedule.t -> t Seq.t
(** All total legal version functions for [s], lazily. With [~fixed], only
    those extending the given partial function. The count is the product of
    per-read choice counts — exponential; meant for small schedules and the
    exact OLS checker. *)

val extends : t -> base:t -> bool
(** [extends v ~base]: does [v] agree with [base] on all of [base]'s
    domain? *)

val restrict : t -> upto:int -> t
(** Bindings at positions strictly below [upto] (a prefix's reads). *)

val equal : t -> t -> bool

val pp : Schedule.t -> Format.formatter -> t -> unit
(** Render as [R2(x) <- W1(x)@3, R3(y) <- T0, ...]. *)
