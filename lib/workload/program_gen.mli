(** Seeded engine-workload generation: Zipfian mixed read-only /
    read-write transaction programs, the input of the perfbench engine
    workloads and the pipeline identity properties. *)

val mixed :
  ?n_entities:int ->
  ?theta:float ->
  ?read_fraction:float ->
  ?reads_per_txn:int ->
  ?writes_per_txn:int ->
  ?mix_rounds:int ->
  n_txns:int ->
  seed:int ->
  unit ->
  (string * int) list * Mvcc_engine.Program.t list
(** [mixed ~n_txns ~seed ()] is [(initial, programs)]: [n_entities]
    (default 16) entities at initial value 100, and [n_txns] programs of
    which each is read-only with probability [read_fraction] (default
    0.5). A read-only program reads [reads_per_txn] (default 4) distinct
    entities; a read-write program read-modify-writes [writes_per_txn]
    (default 2) distinct entities, each write a [Mix]-hardened increment
    ([mix_rounds], default 64 — the deliberate CPU weight the execution
    stage takes off the decision loop). Entity choice is Zipfian with
    skew [theta] (default 0.8; 0 = uniform), so contention concentrates
    on hot entities. Deterministic for a given seed.
    @raise Invalid_argument
      if [n_entities <= 0] or [read_fraction] is outside [0, 1]. *)
