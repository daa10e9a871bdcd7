(** One-call classification reports: every class verdict with its witness
    or violation, for the CLI and for interactive exploration. *)

type verdict = {
  in_class : bool;
  witness : Mvcc_core.Schedule.t option;
      (** an equivalent serial schedule, when membership holds and the
          procedure is constructive *)
  note : string option;  (** violation summary when membership fails *)
}

type t = {
  schedule : Mvcc_core.Schedule.t;
  serial : bool;
  csr : verdict;
  vsr : verdict;
  fsr : verdict;
  mvcsr : verdict;
  mvsr : verdict;
  dmvsr : verdict;
  region : Topography.region;
  mvsr_certificate : (int list * Mvcc_core.Version_fn.t) option;
}

val make : Mvcc_core.Schedule.t -> t
(** Run every decision procedure (exponential for the NP-complete ones).
    All verdicts are derived from one shared {!Mvcc_analysis.Ctx}: the
    conflict graph, MVCG, polygraph solve and MVSR search each run
    once. *)

val of_ctx : Mvcc_analysis.Ctx.t -> t
(** {!make} over a caller-provided context (for callers that also need
    other analyses of the same schedule). *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable rendering. *)
