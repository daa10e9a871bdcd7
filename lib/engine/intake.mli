(** The intake stage: batch admission of a run's transaction programs.

    Intake owns the machine-level client state the engine's tick loop
    drives — program counters, register and write-buffer bindings,
    timestamps and open spans (each policy keeps its own footprints, see
    {!Policy}) — and performs the batch work that happens once per run:
    begin timestamps are assigned to the whole batch up front
    (Faleiro–Abadi's batched timestamp allocation; the clock is the
    caller's, so restarts draw from the same sequence), and the per-txn
    begin events land in the span ring and the WAL before the first
    tick. *)

type status = Ready | Waiting of string | Backoff of int | Committed

type client = {
  id : int;
  program : Program.t;
  ops : Program.op array;
  mutable pc : int;
  mutable regs : (string * int) list;
  mutable buffer : (string * int) list;
  mutable ts : int;
  mutable snapshot : int;
  mutable status : status;
  mutable sp_txn : int;
  mutable sp_attempt : int;
}

val admit :
  policy_name:string ->
  programs:Program.t list ->
  obs:Mvcc_obs.Sink.t ->
  fresh_ts:(unit -> int) ->
  wal_begin:(txn:int -> ts:int -> unit) ->
  unit ->
  client array
(** Build the client array for one run: ids in program order, one begin
    timestamp each (drawn from [fresh_ts], in id order), [txn]/[attempt]
    spans opened, and [wal_begin] called per client. *)
