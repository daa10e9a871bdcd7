(** Minimal JSON emission and parsing for lib/obs.

    Covers exactly the fragment the observability layer produces: flat,
    single-line objects whose values are integers, floats, strings, or
    booleans. {!obj} and {!parse_obj} are inverses on that fragment —
    the basis of the span JSON-lines round-trip — with no external
    JSON dependency. *)

type value = Int of int | Float of float | Str of string | Bool of bool

val quote : string -> string
(** [quote s] is [s] as a JSON string literal, quotes included. *)

val obj : (string * value) list -> string
(** Serialize a field list as a one-line JSON object, in order, with
    full string escaping. *)

val parse_obj : string -> (string * value) list option
(** Parse a line produced by {!obj} (or hand-written flat JSON of the
    same shape). [None] on anything malformed, nested, or followed by
    trailing garbage. Numbers without ['.'] or an exponent parse as
    {!Int}, others as {!Float}. *)
