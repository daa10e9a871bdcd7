(** Transaction programs for the storage engine.

    A program is a sequence of reads and computed writes over string-keyed
    integer entities. Values written are expressions over the values the
    transaction has read so far — the paper's "uninterpreted function of
    the values read" made concrete, so that engine runs can be checked
    against semantic invariants (e.g. money conservation). *)

type expr =
  | Const of int
  | Reg of string  (** the last value this transaction read from an entity *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mix of int * expr
      (** [Mix (rounds, e)]: evaluate [e], then apply [rounds] iterations
          of a fixed integer mixing permutation. Pure and deterministic,
          but deliberately CPU-heavy — it models the transaction logic
          between a transaction's reads and its writes (the benchmark's
          engine workloads lean on it). *)

type op = Read of string | Write of string * expr

type t = { label : string; ops : op list }

val eval : (string -> int) -> expr -> int
(** Evaluate an expression given the transaction's register file; a
    [Reg] the file lacks raises whatever the file raises. The engine
    admits no program whose write names a register not read before it
    (see {!Intake.check_registers}). *)

val transfer : label:string -> from_:string -> to_:string -> int -> t
(** Read both accounts, move [amount] between them. *)

val read_all : label:string -> string list -> t
(** An analytics transaction: read every listed entity. *)

val increment : label:string -> string -> int -> t
(** Read-modify-write a single entity. *)

val blind_write : label:string -> string -> int -> t
(** Write a constant without reading. *)

val read_only : t -> bool
(** Does the program consist of reads only (and at least one)? Read-only
    programs are the ones the engine's [ro_snapshot] fast path may
    execute off the decision loop, against a snapshot timestamp. *)
