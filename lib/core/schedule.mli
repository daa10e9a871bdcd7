(** Schedules: interleaved sequences of transaction steps.

    A transaction system is a finite set of transactions; a schedule is a
    sequence of steps in the shuffle of the system (Section 2). A schedule
    value also fixes the transaction system: transaction [i]'s program is
    the subsequence of its steps. *)

type t
(** An immutable schedule. Transactions are [0 .. n_txns - 1]; every
    transaction with no steps is a legal (empty) member of the system. *)

val of_steps : ?n_txns:int -> Step.t list -> t
(** [of_steps steps] builds a schedule. [n_txns] defaults to one more than
    the largest transaction index mentioned (0 if none).
    @raise Invalid_argument if a step's transaction is negative or
    [>= n_txns]. *)

val derive : t -> n_txns:int -> Step.t array -> int array -> t
(** [derive parent ~n_txns steps old_ids] is the schedule of [steps]
    over [n_txns] transactions, for a schedule built from [parent]'s
    entities (a padding, a serialization, a transform). [old_ids.(p)] is
    the {e parent's} entity id of [steps.(p)]'s entity, and the step's
    entity name must be [entity_name parent old_ids.(p)]. The result's
    ids are its own, in first-appearance order, so its index is the one
    {!of_steps} would build over the same steps; only the names of the
    new entity table are hashed. [steps] is owned by the result (not
    copied).
    @raise Invalid_argument if [old_ids] and [steps] differ in length or
    a step's transaction is negative or [>= n_txns]. *)

val of_string : string -> t
(** Parse the paper's linear notation, e.g. ["R1(x) W1(x) R2(y) W2(y)"].
    Transaction subscripts are 1-based in the notation ([R1] is transaction
    0). Steps are separated by whitespace, commas or semicolons.
    @raise Invalid_argument on a malformed step. *)

val steps : t -> Step.t array
(** The steps in schedule order. The array is fresh; mutating it does not
    affect the schedule. *)

val step : t -> int -> Step.t
(** [step s p] is the step at position [p]. *)

val length : t -> int
val n_txns : t -> int

val entities : t -> string list
(** Distinct entities accessed, sorted. *)

(** {2 The interned view}

    Every schedule interns its entity names to dense ids
    [0 .. n_entities - 1] in first-appearance order and precomputes
    per-entity step buckets and per-transaction position arrays at
    construction. Strings survive only in the [Step.t] records and at
    the parse/print edges; the decision layers sweep these indexes. *)

val n_entities : t -> int
(** Number of distinct entities accessed. *)

val entity_name : t -> int -> string
(** [entity_name s e] is the name of entity id [e]
    ([0 <= e < n_entities s]). *)

val entity_index : t -> string -> int option
(** The id of an entity name, if the schedule accesses it. *)

val entity_at : t -> int -> int
(** [entity_at s p] is the entity id accessed by the step at position
    [p]. *)

val entity_bucket : t -> int -> int array
(** [entity_bucket s e] is the positions accessing entity [e], in
    ascending schedule order. Physically the schedule's own index — do
    not mutate. *)

val entity_rank : t -> int -> int
(** [entity_rank s p] is position [p]'s index within
    [entity_bucket s (entity_at s p)]. *)

val txn_positions_arr : t -> int -> int array
(** Positions (ascending) of transaction [i]'s steps, as an array.
    Physically the schedule's own index — do not mutate. *)

val sorted_entity_ids : t -> int array
(** Entity ids in ascending name order — the order {!entities} lists
    names in. Fresh array, computed per call. *)

val txn_program : t -> int -> Step.t list
(** [txn_program s i] is transaction [i]'s program: the subsequence of its
    steps in order. *)

val txn_positions : t -> int -> int list
(** Positions (ascending) of transaction [i]'s steps. *)

val same_system : t -> t -> bool
(** Do the two schedules have identical transaction systems (same count,
    same programs)? Equivalence notions are only defined between schedules
    of the same system. *)

val is_serial : t -> bool
(** Any two adjacent steps of a transaction are also adjacent in the
    schedule, i.e. transactions run one after the other. *)

val serial_order : t -> int list option
(** If the schedule is serial, the order in which (non-empty) transactions
    run. *)

val serialization : t -> int list -> t
(** [serialization s order] is the serial schedule of [s]'s transaction
    system running the transactions in [order].
    @raise Invalid_argument if [order] is not a permutation of
    [0 .. n_txns - 1]. *)

val append : t -> Step.t -> t
(** [append s st] is [s] with [st] added as its last step; [n_txns] grows
    to include [st]'s transaction if needed. One array copy, no
    intermediate list — this is the hot path of the batch schedulers.
    @raise Invalid_argument if [st]'s transaction index is negative. *)

val prefix : t -> int -> t
(** [prefix s k] is the schedule made of the first [k] steps (over the same
    [n_txns]); transaction programs are truncated accordingly. *)

val is_prefix : t -> of_:t -> bool
(** [is_prefix p ~of_:s] iff [p]'s step sequence is a prefix of [s]'s. *)

val swap_adjacent : t -> int -> t
(** [swap_adjacent s p] exchanges the steps at positions [p] and [p + 1]
    (used by the Theorem 2 switching characterization).
    @raise Invalid_argument if out of range or if both steps belong to the
    same transaction (that would change a program). *)

val interleavings : t list -> t Seq.t
(** All shuffles of the given single-transaction step lists, presented as
    schedules of the combined system, for exhaustive small-world testing.
    The input list gives each transaction's program; programs beyond a few
    steps explode combinatorially. *)

val all_serializations : t -> t list
(** The [n!] serial schedules of [s]'s system (empty transactions
    included in every order). Intended for small [n]. *)

val equal : t -> t -> bool
(** Same system and same step sequence. *)

val hash : t -> int
(** Consistent with {!equal} (equal schedules hash alike) and sensitive
    to every step — unlike polymorphic [Hashtbl.hash], which only
    inspects a bounded prefix of the structure. Together with {!equal}
    this makes [Schedule] usable as a [Hashtbl.Make] key for analysis
    caches and sweep deduplication. *)

val pp : Format.formatter -> t -> unit
(** Linear rendering: [R1(x) W1(x) R2(y)]. *)

val to_string : t -> string

val pp_grid : Format.formatter -> t -> unit
(** The paper's Fig. 1 layout: one row per transaction, one column per
    schedule position. *)
