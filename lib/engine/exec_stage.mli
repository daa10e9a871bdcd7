(** The parallel execution stage ([cores > 1]).

    Committed plans queue here in commit order; at each flush the stage
    levels the batch into dependency waves (a transaction waits only for
    same-batch transactions it reads from) and replays the waves on the
    {!Mvcc_exec.Shard} runner, filling the version records the
    concurrency-control stage placed. Durability events buffered between
    flushes are released afterwards, in arrival order, with install
    values read from the now-filled records — so the WAL byte stream is
    identical to the sequential engine's. *)

type batch =
  | Fixed of int  (** flush every N committed plans *)
  | Auto
      (** adaptive: start at the fixed default (8 x cores) and steer
          from the observed batch shape — grow while full batches level
          into wide, shallow waves (barrier cost amortizes), halve when
          waves go narrower than the worker count (intra-batch
          dependencies are serializing the batch). Bounds [4, 64 x
          cores]; driven by counts only, so the target trajectory is
          deterministic for a given commit stream. Flush timing changes
          neither decisions nor WAL bytes — events are buffered in
          arrival order either way — so any [batch] setting preserves
          the cores=1 identity. *)

type t

val create :
  cores:int ->
  store:Store.t ->
  n_clients:int ->
  writer_of:(int -> int option) ->
  ?wal:(Event.t -> unit) ->
  obs:Mvcc_obs.Sink.t ->
  ?batch:batch ->
  unit ->
  t
(** [writer_of wts] maps an installed version timestamp to the client
    that committed it (used to find same-batch dependencies). [wal] is
    the run's event listener; omit it and the stage buffers nothing.
    [batch] (default [Fixed (8 * cores)]) sets the flush-target policy;
    the live target is exported as the [engine.stage.batch-target]
    gauge. *)

val buffer : t -> Event.t -> unit
(** Queue a metadata event (already fully evaluated) for emission at the
    next flush. No-op when the stage has no [wal] listener. *)

val buffer_install :
  t -> txn:int -> entity:string -> record:Store.version -> wts:int -> unit
(** Queue an install event whose value is read from [record] at flush
    time, after the execution waves have filled it. *)

val submit : t -> int -> Plan.t -> unit
(** Enqueue a committed client's plan for the next batch. *)

val due : t -> bool
(** [true] once the pending batch has reached its target size. *)

val flush : t -> unit
(** Execute the pending batch in dependency waves, then emit buffered
    events. Also called before checkpoints (the checkpoint dumps the
    live store, which must be value-complete) and at end of run. *)

val prune : t -> watermark:int -> int
(** Sharded GC sweep: one prune task per store partition, run on the
    stage's workers. Returns the number of versions dropped. *)

val shutdown : t -> unit
