(** First-class decision procedures over an analysis context.

    Every serializability class implements this one interface; [Report],
    [Topography], the census sweeps and the provenance CLI consume
    deciders uniformly through it. All functions of one
    module called on the {e same} context share that context's caches —
    the test, witness and violation of a class cost one graph (or one
    polygraph solve, or one search) between them. *)

module type S = sig
  val name : string
  (** The class name as printed by the CLI ("CSR", "MVSR", ...). *)

  val test : Ctx.t -> bool
  (** Class membership. [test] may answer from a containment the paper
      proves (CSR ⊆ VSR, MVCSR ⊆ MVSR, ...) through classes already
      cached in the context, skipping the class's own procedure;
      [decide] and [witness] never do, so every certificate comes from
      the full procedure. *)

  val witness : Ctx.t -> Mvcc_core.Schedule.t option
  (** An equivalent serial schedule, when membership holds and the
      procedure is constructive. *)

  val violation : Ctx.t -> int list option
  (** A cycle of the class's graph (transaction indices) when the class
      is graph-characterized and membership fails; [None] for the
      search-based classes. *)

  val decide : Ctx.t -> bool * Mvcc_provenance.Witness.t
  (** The verdict of [test] with a checkable certificate
      ([Mvcc_provenance.Checker] re-validates it independently). *)
end

type t = (module S)

val name : t -> string
val test : t -> Ctx.t -> bool
val witness : t -> Ctx.t -> Mvcc_core.Schedule.t option
val violation : t -> Ctx.t -> int list option
val decide : t -> Ctx.t -> bool * Mvcc_provenance.Witness.t

val test_schedule : t -> Mvcc_core.Schedule.t -> bool
(** [test] over a fresh single-use context. *)
