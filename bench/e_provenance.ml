(* E20 — decision provenance: witness-production overhead vs blind
   decisions.

   Every decision site that learned to certify itself in the provenance
   PR is timed twice over the same random schedules — the blind decision
   procedure against the witness-producing one — and every produced
   witness is handed to the independent checker. The interesting figures
   are the overhead ratios: the graph classes pay only for a shortest
   cycle on rejection, the search classes already had the certificate in
   hand, and the online certifier's explained feed adds a topological
   sort per accepted step. A refuted witness or a verdict disagreement
   fails the experiment. *)

module Gen = Mvcc_workload.Schedule_gen
module Checker = Mvcc_provenance.Checker
module Witness = Mvcc_provenance.Witness
module Cert = Mvcc_online.Certifier
module E = Mvcc_engine.Engine
module P = Mvcc_engine.Program

let classes :
    (string
    * (Mvcc_core.Schedule.t -> bool)
    * (Mvcc_core.Schedule.t -> bool * Witness.t)
    * Gen.params)
    list =
  [
    ( "csr",
      Mvcc_classes.Csr.test,
      Mvcc_classes.Csr.decide,
      { Gen.default with n_txns = 8; n_entities = 4; max_steps = 4 } );
    ( "mvcsr",
      Mvcc_classes.Mvcsr.test,
      Mvcc_classes.Mvcsr.decide,
      { Gen.default with n_txns = 8; n_entities = 4; max_steps = 4 } );
    ( "vsr",
      Mvcc_classes.Vsr.test,
      Mvcc_classes.Vsr.decide,
      { Gen.default with n_txns = 5; n_entities = 3 } );
    ( "vsr/sat",
      Mvcc_classes.Vsr.test,
      Mvcc_classes.Vsr.decide_sat,
      { Gen.default with n_txns = 4; n_entities = 3 } );
    ( "mvsr",
      Mvcc_classes.Mvsr.test,
      Mvcc_classes.Mvsr.decide,
      { Gen.default with n_txns = 5; n_entities = 3 } );
    ( "fsr",
      Mvcc_classes.Fsr.test,
      Mvcc_classes.Fsr.decide,
      { Gen.default with n_txns = 5; n_entities = 3 } );
    ( "dmvsr",
      Mvcc_classes.Dmvsr.test,
      Mvcc_classes.Dmvsr.decide,
      { Gen.default with n_txns = 5; n_entities = 3 } );
  ]

let accounts = List.init 8 (fun i -> Printf.sprintf "acct%d" i)
let initial = List.map (fun a -> (a, 100)) accounts

let workload =
  List.init 5 (fun i ->
      P.read_all ~label:(Printf.sprintf "audit%d" i) accounts)
  @ List.init 4 (fun i ->
        P.transfer
          ~label:(Printf.sprintf "xfer%d" i)
          ~from_:(List.nth accounts (i mod 8))
          ~to_:(List.nth accounts ((i + 1) mod 8))
          10)

let run ~samples =
  Util.section "E20  Decision provenance: witness overhead vs blind";
  let ok = ref true in
  let require name cond =
    if not cond then begin
      ok := false;
      Util.row "FAILED: %s@." name
    end
  in
  (* batch deciders *)
  Util.row "%-8s %10s %12s %12s %9s %10s@." "class" "schedules" "blind(ms)"
    "witness(ms)" "overhead" "confirmed";
  List.iter
    (fun (name, test, decide, params) ->
      let rng = Util.rng 2000 in
      let schedules = Gen.sample params rng samples in
      let blind, t_blind =
        Util.time_ms (fun () -> List.map test schedules)
      in
      let decided, t_decide =
        Util.time_ms (fun () -> List.map decide schedules)
      in
      require (name ^ " verdicts agree") (blind = List.map fst decided);
      let confirmed = ref 0 in
      List.iter2
        (fun s (_, w) ->
          match Checker.check s w with
          | Checker.Confirmed -> incr confirmed
          | Checker.Too_large -> ()
          | Checker.Refuted -> require (name ^ " witness confirmed") false)
        schedules decided;
      Util.row "%-8s %10d %12.2f %12.2f %8.2fx %6d/%d@." name samples
        t_blind t_decide
        (if t_blind > 0. then t_decide /. t_blind else 0.)
        !confirmed samples)
    classes;
  (* online certifier: feed vs feed_explained, witnesses verified against
     the accepted prefix (resp. prefix + refused step) *)
  Util.subsection "online certifier";
  List.iter
    (fun (mode, mode_name) ->
      let rng = Util.rng 2100 in
      let schedules =
        Gen.sample
          { Gen.default with n_txns = 6; n_entities = 2; max_steps = 4 }
          rng samples
      in
      let feed_all explain s =
        let t = Cert.create mode in
        Array.iter
          (fun st ->
            if explain then ignore (Cert.feed_explained t st)
            else ignore (Cert.feed t st))
          (Mvcc_core.Schedule.steps s)
      in
      let (), t_blind =
        Util.time_ms (fun () -> List.iter (feed_all false) schedules)
      in
      let (), t_expl =
        Util.time_ms (fun () -> List.iter (feed_all true) schedules)
      in
      (* correctness pass: every explained verdict's witness checks out *)
      List.iter
        (fun s ->
          let t = Cert.create mode in
          let prefix = ref [] in
          Array.iter
            (fun st ->
              let { Cert.verdict; witness } = Cert.feed_explained t st in
              let against =
                match verdict with
                | Cert.Accepted ->
                    prefix := st :: !prefix;
                    List.rev !prefix
                | Cert.Rejected -> List.rev (st :: !prefix)
              in
              (* default n_txns = highest transaction seen + 1, exactly
                 the range the certifier's maintained order covers *)
              let sched = Mvcc_core.Schedule.of_steps against in
              require
                (mode_name ^ " witness confirmed")
                (Checker.verify sched witness))
            (Mvcc_core.Schedule.steps s))
        schedules;
      Util.row "%-13s %12.2f %12.2f %8.2fx@." mode_name t_blind t_expl
        (if t_blind > 0. then t_expl /. t_blind else 0.))
    [ (Cert.Conflict, "cert.conflict"); (Cert.Mv_conflict, "cert.mvcg") ];
  (* engine: blind run vs certificate-issuing run *)
  Util.subsection "engine";
  List.iter
    (fun policy ->
      let seed = 5 in
      let blind, t_blind =
        Util.time_ms (fun () ->
            E.run ~policy ~initial ~programs:workload ~seed ())
      in
      let log = Mvcc_provenance.Log.create () in
      let certified, t_cert =
        Util.time_ms (fun () ->
            E.run ~policy ~initial ~programs:workload ~prov:log ~seed ())
      in
      require
        (E.policy_name policy ^ " decisions invariant")
        (blind.E.stats = certified.E.stats
        && blind.E.final_state = certified.E.final_state);
      (match certified.E.provenance with
      | None -> require (E.policy_name policy ^ " witness issued") false
      | Some (history, w) ->
          require
            (E.policy_name policy ^ " witness confirmed")
            (Checker.verify history w));
      Util.row "%-5s %12.3f %12.3f %8.2fx@." (E.policy_name policy) t_blind
        t_cert
        (if t_blind > 0. then t_cert /. t_blind else 0.))
    E.all_policies;
  Util.row "@.provenance: %s@."
    (if !ok then "all verdicts agree and every witness is checker-confirmed"
     else "FAILED");
  !ok
