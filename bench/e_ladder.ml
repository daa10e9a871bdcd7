(* E9 — the permissiveness ladder: the fraction of random schedules each
   scheduler accepts vs the class sizes, at several contention levels.

   This quantifies two of the paper's qualitative claims: (1) multiversion
   schedulers accept strictly more than single-version ones (the point of
   the approach), and (2) no on-line scheduler attains its full class —
   the maximal schedulers sit strictly below MVCSR / MVSR because those
   classes are not OLS (Section 4). *)

open Mvcc_core
module Driver = Mvcc_sched.Driver

let schedulers =
  [
    ("serial", Mvcc_sched.Serial_sched.scheduler);
    ("2pl", Mvcc_sched.Two_pl.scheduler);
    ("tso", Mvcc_sched.Tso.scheduler);
    (* the incremental certifiers stand in for the batch sgt/mvcg
       schedulers: decision-equivalent (the containment checks below
       still compare them against the CSR / MVCSR testers) but cheap
       enough to keep E9's sample counts high *)
    ("sgt", Mvcc_online.Certifier.(scheduler Conflict));
    ("2v2pl", Mvcc_sched.Two_v2pl.scheduler);
    ("mvto", Mvcc_sched.Mvto.scheduler);
    ("si", Mvcc_sched.Si.scheduler);
    ("mvcg", Mvcc_online.Certifier.(scheduler Mv_conflict));
    ("max-mvcsr", Mvcc_ols.Maximal.mvcsr_maximal);
    ("max-mvsr", Mvcc_ols.Maximal.mvsr_maximal);
  ]

let classes =
  [
    ("serial", Schedule.is_serial);
    ("CSR", Mvcc_classes.Csr.test);
    ("VSR", Mvcc_classes.Vsr.test);
    ("MVCSR", Mvcc_classes.Mvcsr.test);
    ("MVSR", Mvcc_classes.Mvsr.test);
  ]

let run ~samples =
  Util.section "E9  Permissiveness ladder: schedulers vs classes";
  let contention_levels =
    [ ("low (4 entities)", 4, 0.); ("medium (2 entities)", 2, 0.);
      ("high (2 entities, zipf)", 2, 1.5) ]
  in
  Util.row "%-10s" "";
  List.iter (fun (name, _, _) -> Util.row " %22s" name) contention_levels;
  Util.row "@.";
  let per_level =
    List.map
      (fun (_, n_entities, theta) ->
        let rng = Util.rng (100 + n_entities) in
        let params =
          { Mvcc_workload.Schedule_gen.default with
            n_txns = 3; n_entities; max_steps = 3; zipf_theta = theta }
        in
        Mvcc_workload.Schedule_gen.sample params rng samples)
      contention_levels
  in
  let print_fractions name pred =
    Util.row "%-10s" name;
    List.iter
      (fun drawn ->
        let c = List.length (List.filter pred drawn) in
        Util.row " %21.1f%%" (Util.pct c samples))
      per_level;
    Util.row "@."
  in
  Util.subsection "schedulers";
  List.iter
    (fun (name, sched) -> print_fractions name (Driver.accepts sched))
    schedulers;
  Util.subsection "classes (upper bounds)";
  List.iter (fun (name, test) -> print_fractions name test) classes;
  Util.subsection "the OLS gap (Section 4 made quantitative)";
  let medium = List.nth per_level 1 in
  let frac pred = Util.pct (List.length (List.filter pred medium)) samples in
  let gap_mvcsr =
    frac Mvcc_classes.Mvcsr.test
    -. frac (Driver.accepts Mvcc_ols.Maximal.mvcsr_maximal)
  in
  let gap_mvsr =
    frac Mvcc_classes.Mvsr.test
    -. frac (Driver.accepts Mvcc_ols.Maximal.mvsr_maximal)
  in
  Util.row
    "MVCSR %.1f%% vs maximal scheduler %.1f%% (gap %.1f points)@."
    (frac Mvcc_classes.Mvcsr.test)
    (frac (Driver.accepts Mvcc_ols.Maximal.mvcsr_maximal))
    gap_mvcsr;
  Util.row "MVSR  %.1f%% vs maximal scheduler %.1f%% (gap %.1f points)@."
    (frac Mvcc_classes.Mvsr.test)
    (frac (Driver.accepts Mvcc_ols.Maximal.mvsr_maximal))
    gap_mvsr;
  Util.subsection "soundness: does each scheduler stay inside MVSR?";
  let all = List.concat per_level in
  List.iter
    (fun (name, sched) ->
      let accepted = List.filter (Driver.accepts sched) all in
      let escapes =
        List.length (List.filter (fun s -> not (Mvcc_classes.Mvsr.test s)) accepted)
      in
      Util.row "%-10s accepted %4d, outside MVSR: %3d%s@." name
        (List.length accepted) escapes
        (if name = "si" && escapes > 0 then "   <- snapshot isolation anomaly"
         else ""))
    schedulers;
  (* sanity: containments that must hold sample-wise *)
  let ok = ref true in
  List.iter
    (fun drawn ->
      List.iter
        (fun s ->
          let acc name = Driver.accepts (List.assoc name schedulers) s in
          if acc "2pl" && not (Mvcc_classes.Csr.test s) then ok := false;
          if acc "sgt" <> Mvcc_classes.Csr.test s then ok := false;
          if acc "mvcg" <> Mvcc_classes.Mvcsr.test s then ok := false;
          if acc "2v2pl" && not (Mvcc_classes.Mvsr.test s) then ok := false)
        drawn)
    per_level;
  Util.row "@.containment checks: %s@." (if !ok then "all hold" else "VIOLATED");
  !ok
