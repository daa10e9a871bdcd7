(** Per-transaction pipeline spans in a bounded ring buffer.

    A span is a named interval with an id, an optional parent, integer
    start/end ticks, and flat key/value attributes — the unit the
    commit-pipeline waterfall ([timeline]) and the Chrome trace export
    are built from. Ticks are nanoseconds since the ring's creation
    (the ring reads its clock once at {!create} and subtracts), rounded
    to the nearest and kept as integers so the JSON-lines round-trip is
    exact and comparisons ([commit <= durable <= replicated]) never hit
    float rounding. The clock is monotonically clamped: a span started
    after another can never carry an earlier tick even if the wall
    clock steps back.

    Finished spans land in a bounded ring — the oldest are overwritten
    (and counted as dropped) rather than growing without bound. Spans
    still open are held aside until {!finish}, so their memory is
    bounded by the number of concurrently open spans, not by run
    length. *)

type span = {
  id : int;  (** unique, assigned in {!start} order *)
  parent : int option;
  name : string;
  t0 : int;  (** start tick, ns since ring creation *)
  t1 : int;  (** end tick; [t0 <= t1] *)
  attrs : (string * Json.value) list;
}

type t

val create : ?capacity:int -> ?clock:(unit -> float) -> unit -> t
(** [capacity] bounds {e finished} spans kept (default 4096);
    [clock] returns seconds (default [Unix.gettimeofday]) — inject a
    counter for deterministic tests.
    @raise Invalid_argument if [capacity <= 0]. *)

val counter_clock : unit -> unit -> float
(** A fresh deterministic clock for {!create}: every read advances one
    microsecond, so a ring's ticks depend only on the calls made. *)

val start :
  t -> ?parent:int -> ?attrs:(string * Json.value) list -> string -> int
(** Open a span and return its id. A negative [parent] means no parent
    — instrumented code can thread "span or -1 when off" ints without
    option juggling. *)

val finish : t -> ?attrs:(string * Json.value) list -> int -> unit
(** Close an open span, appending [attrs] to those given at {!start},
    and move it into the ring. Unknown (or negative) ids are ignored,
    so finishing through a disabled sink is harmless. *)

val event :
  t -> ?parent:int -> ?attrs:(string * Json.value) list -> string -> unit
(** A zero-duration span ([t0 = t1], one clock read) — for points in
    the pipeline (op decided, commit durable, commit replicated) and
    for decisions (delay, certification step, provenance verdict). *)

val capacity : t -> int

val emitted : t -> int
(** Finished spans ever recorded, including overwritten ones. *)

val dropped : t -> int
val open_spans : t -> int

val to_list : t -> span list
(** Retained finished spans, oldest-first in finish order. Note finish
    order is not id order: a child opened later can close earlier than
    its parent. *)

val check : span list -> string option
(** Structural well-formedness of a span list: ids unique, [t0 <= t1]
    everywhere, and every span whose parent is {e in the list} starts
    no earlier than that parent and has a larger id. [None] when sound,
    [Some reason] naming the first violation. Parents evicted by the
    ring are skipped, not flagged. *)

val to_json : span -> string
(** One-line flat JSON via {!Json.obj}: [id], [parent] (omitted for
    roots), [name], [t0], [t1], then each attribute as an ["a."]-
    prefixed field. Exact inverse of {!of_json}. *)

val of_json : string -> span option
val write_jsonl : out_channel -> t -> unit

val read_jsonl : in_channel -> span list * Jsonl.stats
(** Tolerant ingestion via {!Jsonl}, in file order: blank lines are
    ignored, garbage lines before the end are counted as skips, and a
    partial final line (a write torn by a crash) is reported as
    {!Jsonl.stats.torn_tail} instead — the discipline [replay --trace]
    and WAL recovery share. Inverse of {!write_jsonl} on well-formed
    files ({!Jsonl.clean} stats). *)
