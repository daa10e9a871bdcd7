(** A witness registry.

    Spans are flat JSON and cannot carry a structured certificate;
    instead, decision sites register their witness here and emit only the
    returned id, as the [id] attribute of a zero-duration ["decision"]
    span point ({!Mvcc_obs.Sink.span_event}). Post-mortem tooling joins
    the spans back against the log. *)

type t

val create : unit -> t

val register : t -> Witness.t -> int
(** Append a witness; ids are dense, starting at 0. *)

val find : t -> int -> Witness.t option
val length : t -> int

val to_list : t -> (int * Witness.t) list
(** All registered witnesses with their ids, in registration order. *)
