(** Online schedulers (Section 2).

    A scheduler examines the steps of a schedule in sequence and accepts a
    step iff the steps examined so far are a prefix of a schedule in the
    set it recognizes; a multiversion scheduler additionally assigns a
    version to each read step as it accepts it — a decision it cannot
    revoke (the source of the OLS limitation, Section 4).

    A scheduler value is a factory; {!fresh} creates an independent
    mutable instance for one run. Instances are driven by {!Driver}. *)

type verdict =
  | Accepted of Mvcc_core.Version_fn.source option
      (** the step is accepted; for a read, the version served (single
          version schedulers serve the standard source) *)
  | Rejected

type instance = {
  offer :
    prefix:Mvcc_core.Schedule.t ->
    last_of_txn:bool ->
    Mvcc_core.Step.t ->
    verdict;
      (** [offer ~prefix ~last_of_txn step] submits the next step.
          [prefix] is the accepted schedule so far (not including [step]);
          [last_of_txn] tells the scheduler this is the transaction's
          final step (commit), which lock-based schedulers use to release
          locks. After a [Rejected] verdict the instance must not be
          offered further steps. *)
}

type t = { name : string; fresh : unit -> instance }

val instrument : Mvcc_obs.Sink.t -> t -> t
(** [instrument sink sched] counts, times, and traces every offer under
    [sched]'s name: counters [sched.<name>.offered/accepted/rejected],
    latency histogram [sched.<name>.offer_s], and an ["offer"] span
    point ([txn], [entity], [write], [accepted]). Verdicts are
    forwarded untouched — instrumentation never changes a decision (the
    invariance property in test/test_obs.ml) — and on a disabled sink
    the scheduler is returned as-is, so the wrapper costs nothing when
    observability is off. *)

val extend : Mvcc_core.Schedule.t -> Mvcc_core.Step.t -> Mvcc_core.Schedule.t
(** [extend prefix st] is the accepted prefix with [st] appended — the
    schedule a batch scheduler re-examines on each offer. Shared by the
    graph-based batch schedulers ({!Sgt}, {!Mvcg_sched}); a single array
    copy per offer. *)

val standard_source :
  Mvcc_core.Schedule.t -> Mvcc_core.Step.t -> Mvcc_core.Version_fn.source
(** The source a single-version scheduler serves: the last write of the
    entity in [prefix], or the initial version. *)
