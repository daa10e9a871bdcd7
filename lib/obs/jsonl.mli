(** Tolerant JSON-lines ingestion for on-disk line-oriented logs (trace
    replay). The write-ahead log reads its lines with its own in-place
    scanner, which keeps exactly these rules and these {!stats}, and is
    tested against this reader.

    A log file that lived through a crash can be damaged in two very
    different ways, and recovery must tell them apart:

    - a {e torn tail}: the final line was cut mid-write (it is missing
      its newline and does not parse) — the expected signature of a
      crash during an append, handled by dropping exactly that record;
    - {e mid-file skips}: complete lines that fail to parse (foreign
      output, corruption) — suspicious anywhere, and fatal to
      prefix-consistency guarantees if they hide a commit record.

    Blank lines are ignored and count as neither. *)

type stats = {
  skipped : int;
      (** complete lines (newline-terminated, or parseable without one)
          that failed to parse anywhere before the tail *)
  torn_tail : bool;
      (** the final line lacks its newline {e and} fails to parse — a
          partial record torn by an interrupted write *)
}

val clean : stats
(** [{ skipped = 0; torn_tail = false }] — an undamaged file. *)

val read_string : (string -> 'a option) -> string -> 'a list * stats
(** [read_string parse s] splits [s] into lines and runs [parse] over
    each, keeping successes in order. A final line without a trailing
    newline is still parsed — if it succeeds it is a complete record
    whose newline was simply cut, if it fails it is reported as a torn
    tail rather than a skip. *)

val read_channel : (string -> 'a option) -> in_channel -> 'a list * stats
(** {!read_string} over the channel's remaining content. *)
