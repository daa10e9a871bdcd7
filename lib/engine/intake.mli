(** The intake stage: batch admission of a run's transaction programs.

    Intake owns the machine-level client state the engine's tick loop
    drives — program counters, register and write-buffer bindings,
    timestamps and open spans (each policy keeps its own footprints, see
    {!Policy}) — and performs the batch work that happens once per run.
    Every operation's entity is resolved to its store id here, once
    (BOHM-style: the footprint is known before execution), so the tick
    loop and the policies index by id and never hash a name. Begin
    timestamps are assigned to the whole batch up front
    (Faleiro–Abadi's batched timestamp allocation; the clock is the
    caller's, so restarts draw from the same sequence), and the per-txn
    begin events land in the span ring and the WAL before the first
    tick. *)

type status = Ready | Waiting of string | Backoff of int | Committed

type binding = { entity : string; eid : int; value : int }
(** A value read ([regs]) for one entity, with the entity's store id —
    part of the attempt's footprint, so a policy dropping it indexes
    [eid] and never re-interns [entity]. *)

type write = {
  w_entity : string;
  w_eid : int;  (** the store id of [w_entity] *)
  expr : Program.expr;
  regs_at : binding list;
      (** the attempt's registers as they stood at the write (the
          immutable [regs] list, shared) *)
  mutable forced : bool;
  mutable w_value : int;  (** the value, once [forced] *)
}
(** A buffered write. The reads before it fix its value, but the value
    is computed only when something asks for it ({!force}): the
    attempt's own read-back, an SGT dirty read, or the install at
    commit. An attempt that aborts first never runs the write's
    transaction logic, and a write overwritten before commit only when
    read back. *)

val force : write -> int
(** The write's value: [expr] evaluated over [regs_at] on the first
    call, the kept result after. The engine's one caller of
    {!Program.eval}. *)

type client = {
  id : int;
  program : Program.t;
  ops : Program.op array;
  ids : int array;  (** [ids.(i)] is the store id of [ops.(i)]'s entity *)
  mutable pc : int;
  mutable regs : binding list;  (** newest first *)
  mutable buffer : write list;  (** newest first *)
  mutable ts : int;
  mutable snapshot : int;
  mutable status : status;
  mutable sp_txn : int;
  mutable sp_attempt : int;
}

val admit :
  policy_name:string ->
  programs:Program.t list ->
  intern:(string -> int) ->
  obs:Mvcc_obs.Sink.t ->
  fresh_ts:(unit -> int) ->
  wal_begin:(txn:int -> ts:int -> unit) ->
  unit ->
  client array
(** Build the client array for one run: ids in program order, each
    operation's entity resolved through [intern] (in program order, then
    operation order), one begin timestamp each (drawn from [fresh_ts],
    in id order), [txn]/[attempt] spans opened, and [wal_begin] called
    per client.
    @raise Invalid_argument
      if a write's expression names a [Reg r] its program does not read
      before that write (checked for every program before any other
      work). *)
