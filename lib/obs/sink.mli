(** The instrumentation funnel handed to the engine, the schedulers,
    the certifier, the WAL writer, and the follower.

    A sink bundles an optional {!Metrics.t} registry and an optional
    {!Span.t} ring — the one event stream. Instrumented code calls the
    operations below unconditionally; on {!noop} each call is a single
    pattern match on [None], the attribute thunks of the span
    operations are never forced, and {!time}/{!span_start} never read
    the clock — observability is free when off, and the
    decision-invariance property tests (test/test_obs.ml) check it is
    also {e silent}: enabling a sink never changes any scheduling or
    certification decision, nor a byte of the WAL. *)

type t

val noop : t
(** The disabled sink: every operation is a no-op. *)

val create : ?metrics:Metrics.t -> ?spans:Span.t -> unit -> t

val enabled : t -> bool
(** [false] exactly for sinks with no component (e.g. {!noop}) — the
    guard for instrumentation that must read auxiliary state (graph
    sizes, clocks) before it can record anything. *)

val metrics : t -> Metrics.t option
val spans : t -> Span.t option

val incr : ?by:int -> t -> string -> unit
val set_gauge : t -> string -> int -> unit
val observe : t -> string -> float -> unit

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t name f] runs [f] and records its wall-clock duration (in
    seconds) in histogram [name]; without metrics it is exactly [f ()]
    — the clock is never read. *)

val span_start :
  ?parent:int ->
  ?attrs:(unit -> (string * Json.value) list) ->
  t ->
  string ->
  int
(** Open a span in the attached ring and return its id, or [-1] when
    no ring is attached (the id {!span_finish} ignores). [attrs] is a
    thunk, only forced when a ring is live; a negative [parent] means
    no parent, so callers can thread returned ids directly. *)

val span_finish :
  ?attrs:(unit -> (string * Json.value) list) -> t -> int -> unit

val span_event :
  ?parent:int ->
  ?attrs:(unit -> (string * Json.value) list) ->
  t ->
  string ->
  unit
(** A zero-duration point span (see {!Span.event}): how decisions are
    reported — delays, commit waits, certification steps, scheduler
    offers, provenance verdicts (DESIGN.md lists the grammar). *)
