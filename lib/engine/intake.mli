(** The client state the engine's tick loop drives: program counters,
    register and write-buffer bindings, timestamps and open spans (each
    policy keeps its own footprints, see {!Policy}), with the buffered
    write's deferred value ({!force}) and the program check admission
    runs ({!check_registers}).

    Admission itself is the first step of [Engine.run]: it resolves
    every operation's entity to its store id once (BOHM-style: the
    footprint is known before execution), so the tick loop and the
    policies index by id and never hash a name, and assigns begin
    timestamps to the whole batch up front (Faleiro–Abadi's batched
    timestamp allocation, from the run's one clock, so restarts draw
    from the same sequence). *)

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

val check_registers : Program.t -> unit
(** @raise Invalid_argument
      if a write's expression names a [Reg r] its program does not read
      before that write. *)
