(* E1 — Fig. 1: the topography of schedule classes.

   Part 1 verifies the six witness schedules; part 2 is a census of random
   schedules per region, exhibiting the strict containments
   serial < CSR < SR < MVSR and the SR/MVCSR overlap the figure draws. *)

open Mvcc_core
module T = Mvcc_classes.Topography

(* Memberships from the schedule-level tests, each a full procedure:
   [T.classify] answers VSR, MVSR and DMVSR from the containments the
   census counts as violations, so it could never report one. *)
let full_membership s =
  {
    T.serial = Schedule.is_serial s;
    csr = Mvcc_classes.Csr.test s;
    vsr = Mvcc_classes.Vsr.test s;
    mvcsr = Mvcc_classes.Mvcsr.test s;
    mvsr = Mvcc_classes.Mvsr.test s;
    dmvsr = Mvcc_classes.Dmvsr.test s;
  }

let run ~samples =
  Util.section "E1  Fig. 1: topography of schedule classes";
  Util.subsection "witness schedules (paper examples (1)-(6))";
  let ok = ref true in
  List.iter
    (fun (name, claimed, s) ->
      let m = T.classify s in
      let r = T.region m in
      if r <> claimed then ok := false;
      Util.row "%-3s %-45s -> %-28s %s@." name (Schedule.to_string s)
        (T.region_name r)
        (if r = claimed then "OK" else "MISMATCH"))
    T.fig1_examples;
  Util.subsection (Printf.sprintf "census of %d random schedules" samples);
  let rng = Util.rng 2026 in
  let params =
    { Mvcc_workload.Schedule_gen.default with n_txns = 3; n_entities = 2 }
  in
  let drawn = Mvcc_workload.Schedule_gen.sample params rng samples in
  let counts = Hashtbl.create 8 in
  let memberships = Util.pmap full_membership drawn in
  List.iter
    (fun m ->
      let r = T.region m in
      Hashtbl.replace counts r
        (1 + Option.value (Hashtbl.find_opt counts r) ~default:0))
    memberships;
  List.iter
    (fun r ->
      let c = Option.value (Hashtbl.find_opt counts r) ~default:0 in
      Util.row "%-30s %5d  (%5.1f%%)@." (T.region_name r) c
        (Util.pct c samples))
    [
      T.Serial; T.Csr_not_serial; T.Vsr_and_mvcsr_not_csr; T.Vsr_not_mvcsr;
      T.Mvcsr_not_vsr; T.Mvsr_only; T.Outside_mvsr;
    ];
  let count pred = List.length (List.filter pred memberships) in
  Util.subsection "class sizes (cumulative)";
  Util.row "serial %5.1f%% < CSR %5.1f%% < SR %5.1f%% < MVSR %5.1f%%;  MVCSR %5.1f%%@."
    (Util.pct (count (fun m -> m.T.serial)) samples)
    (Util.pct (count (fun m -> m.T.csr)) samples)
    (Util.pct (count (fun m -> m.T.vsr)) samples)
    (Util.pct (count (fun m -> m.T.mvsr)) samples)
    (Util.pct (count (fun m -> m.T.mvcsr)) samples);
  let inconsistent = count (fun m -> not (T.consistent m)) in
  Util.row "containment violations: %d@." inconsistent;
  !ok && inconsistent = 0
