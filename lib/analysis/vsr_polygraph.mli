(** The VSR polygraph construction of [6].

    Nodes are the padded schedule's: T0 is 0, transaction [t] is [t + 1]
    and Tf is [n + 1]; an arc [writer -> reader] per READ-FROM pair of the
    padded schedule, and per such pair a choice sending every other writer
    of the entity before the writer or after the reader. The schedule is
    VSR iff this polygraph is acyclic. [Mvcc_classes.Vsr] re-exports it;
    {!Ctx.polygraph} caches it per context. *)

val of_schedule : Mvcc_core.Schedule.t -> Mvcc_polygraph.Polygraph.t
(** The polygraph of [Padding.pad s], built from [s]'s entity ids in one
    sweep: T0 and Tf are never materialised. *)
