(** A small transactional engine executing concurrent programs under
    pluggable concurrency control — the systems substrate behind the
    paper's opening claim that keeping multiple versions enhances
    performance (E10).

    [run] is a policy-blind driver over one run's state: admission of
    the programs as clients ({!Intake}), a serial tick loop running one
    operation or commit attempt of a pseudo-randomly chosen client per
    tick (the pick is O(1) in the client count: the set it draws from
    changes only at commits), and the span and WAL streams. Every
    decision is the policy's module ({!Policy.S}). Writes are buffered,
    their values computed on first use, and installed at commit; reads
    see committed versions (or, under SGT, dirty writes) plus the
    transaction's own buffer. *)

type policy = Policy.policy =
  | S2pl  (** strict two-phase locking: blocking + deadlock victims *)
  | To  (** single-version timestamp ordering: abort and restart *)
  | Mvto  (** multiversion timestamp ordering: reads never block/abort *)
  | Si
      (** snapshot isolation: reads from the commit-time snapshot taken at
          transaction start, first-committer-wins on writes. Beware: SI is
          {e not} serializable in general (write skew) — included so the
          anomaly is demonstrable end-to-end. *)
  | Sgt
      (** serialization-graph testing: every operation is certified
          online against the incremental conflict graph
          ({!Mvcc_online.Certifier} in [Conflict] mode, fed the entity's
          interned id; its cost is accounted under [engine.cert]); a
          cycle-closing operation aborts its transaction, and an abort
          erases the attempt's footprint from the graph. Reads see the
          newest write, dirty or committed; commits wait for dirty
          predecessors and aborts cascade to dirty readers. Accepts
          exactly the conflict-serializable interleavings. *)

val all_policies : policy list
(** Every policy, in declaration order. *)

val policy_name : policy -> string
(** The CLI name: ["s2pl"], ["to"], ["mvto"], ["si"], ["sgt"]. *)

val policy_of_name : string -> policy option
(** Inverse of {!policy_name}. *)

type deadlock_policy = Policy.deadlock =
  | Detect  (** waits-for cycle detection; the requester is the victim *)
  | Wait_die
      (** non-preemptive prevention: a requester younger than the lock
          holder aborts itself instead of waiting *)
  | Wound_wait
      (** preemptive prevention: a requester older than the lock holder
          aborts ("wounds") the younger holder; younger requesters wait *)

val deadlock_policy_name : deadlock_policy -> string

type read_src = Event.read_src =
  | From_init  (** the entity's initial version (write timestamp 0) *)
  | From_self  (** the transaction's own buffered write *)
  | From_txn of int  (** the (possibly still dirty, under SGT) writer *)

type wal_event = Event.t =
  | Wal_state of { entity : string; value : int }
      (** one initial binding; emitted for every entity before any
          transaction runs, so recovery can rebuild the base store *)
  | Wal_begin of { txn : int; ts : int }
      (** an attempt starts (at run start and after every abort) with
          this timestamp; resets the transaction's logged footprint *)
  | Wal_op of {
      txn : int;
      entity : string;
      write : bool;
      src : read_src option;
    }
      (** an executed operation of the current attempt; reads carry
          their source so recovery can rebuild the committed history's
          version function and read-from edges *)
  | Wal_install of { txn : int; entity : string; value : int; wts : int }
      (** a version about to be installed at commit (logical redo
          record; emitted {e before} the store mutation) *)
  | Wal_commit of { txn : int }  (** the attempt's commit point *)
  | Wal_abort of { txn : int; reason : Event.reason }
  | Wal_checkpoint of { store : Store.t; commits : int }
      (** offered every [snapshot_every] commits, on a commit boundary:
          the listener may persist {!Store.dump} and write a checkpoint
          record. The store is the live one — read, don't mutate. *)

type stats = {
  commits : int;
  aborts : int;  (** restarts: deadlock victims + timestamp violations *)
  ticks : int;  (** total simulation ticks consumed *)
  blocked_ticks : int;  (** ticks spent waiting on locks *)
  reads : int;
  writes : int;  (** operations executed, including aborted attempts *)
  max_version_chain : int;
      (** longest version chain any entity reached; the store records
          commit history for every policy, but only the multiversion
          policies read old entries *)
  gc_pruned : int;  (** versions discarded by garbage collection *)
}

val pp_stats : Format.formatter -> stats -> unit

type batch = Fixed of int | Auto
(** The type of {!run}'s inert [batch] argument; removed with it. *)

type result = {
  stats : stats;
  final_state : (string * int) list;
  provenance : (Mvcc_core.Schedule.t * Mvcc_provenance.Witness.t) option;
      (** with [prov]: the committed history (final attempts of committed
          transactions, in operation order) and the run's certificate *)
  durable_commits : int option;
      (** with [wal_durable]: how many of [stats.commits] the log had
          acknowledged as durable when the run ended. Under group commit
          this lags [stats.commits] — commits in the open batch have not
          been forced and would not survive a crash. [None] when the
          callback was not supplied. *)
  ro_reads : (int * int * (string * int) list) list;
      (** with [ro_snapshot]: one entry per off-loop read-only
          transaction, in launch order — (client id, snapshot timestamp,
          served (entity, version write-timestamp) per read in program
          order). The qcheck suite checks each entry against the version
          function of the committed prefix at the snapshot. Empty
          otherwise. *)
}

val run :
  policy:policy ->
  initial:(string * int) list ->
  programs:Program.t list ->
  ?max_ticks:int ->
  ?gc:bool ->
  ?crash_probability:float ->
  ?deadlock:deadlock_policy ->
  ?obs:Mvcc_obs.Sink.t ->
  ?prov:Mvcc_provenance.Log.t ->
  ?wal:(wal_event -> unit) ->
  ?wal_durable:(unit -> int) ->
  ?snapshot_every:int ->
  ?cores:int ->
  ?client_queues:int ->
  ?batch:batch ->
  ?ro_snapshot:bool ->
  seed:int ->
  unit ->
  result
(** Run every program to commit (each aborted attempt restarts from the
    beginning) or until [max_ticks] (default 1_000_000) elapses.
    Deterministic for a given seed. [gc] (default [false]) prunes, after
    each commit, the versions no running transaction can read.
    [crash_probability] (default 0) aborts and restarts the running
    transaction before each operation with that probability — buffered
    writes are discarded, so committed state and invariants must survive
    arbitrary mid-flight failures. [deadlock] (default {!Detect}) selects
    how S2PL resolves lock conflicts; the other policies ignore it.
    A write's value is computed on its first use (a read-back, an SGT
    dirty read, or the install), over the registers as they stood at
    the write, so an attempt that aborts first never evaluates it.

    [obs] (default {!Mvcc_obs.Sink.noop}) streams accounting into the
    observability layer without ever changing a decision (a tested
    invariant): counters [engine.commits], [engine.aborts] plus
    [engine.abort.<reason>] per {!Event.reason},
    [engine.delays] (transitions into a wait),
    [engine.writes.unevaluated] (buffered writes whose value nothing
    asked for before their attempt ended), [engine.commit-waits]
    (SGT commits parked on a dirty predecessor), and under SGT the
    certifier's cost ([engine.cert.arcs], [engine.cert.reorder-moves],
    [engine.cert.rollbacks], [engine.cert.rollback-arcs], feed latency
    histogram [engine.cert.feed_s]). With a span ring attached it emits
    the span grammar (DESIGN.md): a [txn] root span per client (attrs
    [txn]/[policy], closed with [outcome] and [attempts]), an [attempt]
    child per attempt (closed with [outcome] and the abort [reason],
    ["cascade"] for cascades), [op]/[install]/[commit] points under the
    attempt and beside them the decision points [delay] ([txn],
    [entity]), [commit-wait] ([txn]) and under SGT [cert] ([txn],
    [arcs], then [moves] or [rolled_back]), and with [wal_durable] a
    [durable] point per acknowledged commit carrying [lag_ticks]. Spans
    cut off by [max_ticks] close with [outcome = "running"].

    [prov] (default off) makes the run issue a certificate: the
    committed history and a witness of the policy's guarantee —
    [Member Csr] with the commit order (S2PL), the timestamp order (TO)
    or a topological order of the history's own conflict graph (SGT);
    [Member Mvsr] with the timestamp order and the served version
    function (MVTO); [Read_consistent] with the served version function
    (SI, which is {e not} serializable in general). {!Certificate}
    builds it from the {!wal_event}s the run streams, so recovering the
    run's log issues the same one. The witness is registered in [prov]
    and a root ["decision"] span point carries its id ([site], [id],
    [ok]).

    [wal] (default off) streams {!wal_event}s to a durability listener;
    [lib/durable] turns them into a CRC-framed write-ahead log and
    recovers committed state and history from any prefix of it. With
    [snapshot_every = Some n] a [Wal_checkpoint] carrying the live
    store is also offered every [n] commits. Both are pure accounting:
    the run is bit-for-bit identical with or without them, and with
    neither [wal] nor [prov] no event is built. [wal_durable] (default
    off) polls how many commit records the log has forced (e.g.
    [Wal.acked_commits]) each tick, matches acknowledgements to commits
    in commit order (counter ["engine.acks"], histogram
    ["engine.ack-lag-ticks"]) and reports the final count as
    [result.durable_commits]; the engine never waits on it.

    [cores], [client_queues] and [batch] have no effect: the run is
    the same whatever they are set to. They are accepted only because
    the benchmark harness ([perfbench/]) still passes them, and will be
    removed once a benchmark change drops its [cores]/[trace_cores]/
    [client_queues]/[batch] workload-shape fields.

    [ro_snapshot] (default [false]) routes all-read programs off the
    tick loop: each launches at a commit boundary once every read/write
    client submitted before it has committed and the policy's
    position-safety test passes ({!Policy.S.ro_safe}), reads the newest
    committed version of each entity at a snapshot timestamp, and
    commits on the spot, never blocking, aborting, or entering the
    certification graph. Served reads are reported in
    [result.ro_reads]. The fast path changes scheduling, so a run with
    it is compared only to another run with it.

    @raise Invalid_argument
      if a write names a register its program does not read before it. *)
