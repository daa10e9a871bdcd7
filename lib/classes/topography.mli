(** The topography of schedule classes (Fig. 1) and the paper's six
    witness schedules.

    Fig. 1 draws: serial ⊂ CSR; CSR ⊂ SR(=VSR) ⊂ MVSR; CSR ⊂ MVCSR ⊂
    MVSR; with MVCSR and SR overlapping but incomparable. [classify]
    computes a schedule's membership in every class; [region] names the
    Fig. 1 region it falls in. *)

type membership = {
  serial : bool;
  csr : bool;
  vsr : bool;
  mvcsr : bool;
  mvsr : bool;
  dmvsr : bool;
}

val classify : Mvcc_core.Schedule.t -> membership
(** Every class's [Decider.test]. Exponential in the worst case (VSR and
    MVSR are NP-complete). *)

val classify_ctx : Mvcc_analysis.Ctx.t -> membership
(** {!classify} over a shared analysis context: all six memberships are
    read off the context's caches. VSR, MVSR and DMVSR answer from the
    paper's containments where they settle the verdict, so the search and
    the polygraph run only for the schedules those leave open. *)

val consistent : membership -> bool
(** Do the memberships respect the provable containments: serial ⊆ CSR;
    CSR ⊆ VSR ∩ MVCSR; VSR ∪ MVCSR ∪ DMVSR ⊆ MVSR? {!classify} answers
    from these containments, so to test them, build the membership from
    the schedule-level [test] functions, which run the full procedures. *)

type region =
  | Outside_mvsr  (** not even MVSR — example (1) *)
  | Mvsr_only  (** MVSR but neither VSR nor MVCSR — example (2) *)
  | Vsr_not_mvcsr  (** VSR (hence MVSR) but not MVCSR — example (3) *)
  | Mvcsr_not_vsr  (** MVCSR but not VSR — example (4) *)
  | Vsr_and_mvcsr_not_csr  (** in both, not CSR — example (5) *)
  | Csr_not_serial  (** CSR but not serial *)
  | Serial  (** example (6) *)

val region : membership -> region
val region_name : region -> string

val fig1_examples : (string * region * Mvcc_core.Schedule.t) list
(** The paper's example schedules (1)-(6), with the region each is claimed
    to witness. (1) s1 non-MVSR; (2) s2 MVSR but not SR or MVCSR; (3) s3 SR
    but not MVCSR; (4) s4 MVCSR but not SR; (5) s5 MVCSR and SR but not
    CSR; (6) a serial schedule. *)

val pp_membership : Format.formatter -> membership -> unit
