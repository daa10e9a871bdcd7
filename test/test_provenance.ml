(* Tests for the decision-provenance layer: every decision site's witness
   must survive the independent checker, the witness log, the certifier's
   explained feed, the engine's run certificate, and the checker's
   refusal of tampered or ill-formed evidence. *)

open Mvcc_core
module Witness = Mvcc_provenance.Witness
module Checker = Mvcc_provenance.Checker
module Log = Mvcc_provenance.Log
module Cert = Mvcc_online.Certifier
module Ig = Mvcc_online.Incr_digraph
module E = Mvcc_engine.Engine
module P = Mvcc_engine.Program

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let sched_of = Schedule.of_string

(* -- witness log -- *)

let test_log_registry () =
  let log = Log.create () in
  check_int "empty" 0 (Log.length log);
  check "find on empty" true (Log.find log 0 = None);
  let w i =
    { Witness.claim = Member Csr; evidence = Accept_topo [ i ] }
  in
  check_int "first id" 0 (Log.register log (w 0));
  check_int "second id" 1 (Log.register log (w 1));
  check_int "third id" 2 (Log.register log (w 2));
  check_int "length" 3 (Log.length log);
  check "find 1" true (Log.find log 1 = Some (w 1));
  check "find out of range" true
    (Log.find log 3 = None && Log.find log (-1) = None);
  check "listed in registration order" true
    (Log.to_list log = [ (0, w 0); (1, w 1); (2, w 2) ])

(* -- checker refuses tampered and ill-formed witnesses -- *)

let test_checker_refutes () =
  let s = sched_of "R1(x) W1(x) R2(x) W2(x)" in
  (* s is serial, hence CSR; the honest witness confirms *)
  let ok, w = Mvcc_classes.Csr.decide s in
  check "honest verdict" true ok;
  check "honest witness" true (Checker.verify s w);
  (* tampered serialization order: T2 before T1 is not equivalent *)
  check "tampered order refuted" true
    (Checker.check s
       { Witness.claim = Member Csr; evidence = Accept_topo [ 1; 0 ] }
    = Checker.Refuted);
  (* order that is not a permutation of the transactions *)
  check "non-permutation refuted" true
    (Checker.check s
       { Witness.claim = Member Csr; evidence = Accept_topo [ 0 ] }
    = Checker.Refuted);
  (* a cycle whose arcs the schedule cannot derive *)
  check "fabricated cycle refuted" true
    (Checker.check s
       {
         Witness.claim = Non_member Csr;
         evidence = Reject_cycle [ (0, 1); (1, 0) ];
       }
    = Checker.Refuted);
  (* ill-formed pairings: evidence kind does not fit the claim *)
  check "membership with cycle evidence refuted" true
    (Checker.check s
       { Witness.claim = Member Csr; evidence = Reject_cycle [ (0, 1) ] }
    = Checker.Refuted);
  check "rejection with topo evidence refuted" true
    (Checker.check s
       { Witness.claim = Non_member Csr; evidence = Accept_topo [ 0; 1 ] }
    = Checker.Refuted);
  (* a genuine cycle witness, then the same cycle under the wrong class *)
  let bad = sched_of "R1(x) R2(x) W1(x) W2(x)" in
  let ok, w = Mvcc_classes.Csr.decide bad in
  check "cycle verdict" false ok;
  check "cycle witness confirmed" true (Checker.verify bad w);
  check "same arcs, serial schedule: refuted" true
    (match w.Witness.evidence with
    | Reject_cycle arcs ->
        Checker.check s
          { Witness.claim = Non_member Csr; evidence = Reject_cycle arcs }
        = Checker.Refuted
    | _ -> false)

(* -- random schedules for the property layer -- *)

let gen_schedule =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let rng = Random.State.make [| seed |] in
    return
      (Mvcc_workload.Schedule_gen.schedule
         { Mvcc_workload.Schedule_gen.default with
           n_txns = 4; n_entities = 2; max_steps = 4 }
         rng))

let deciders =
  [
    ("csr", Mvcc_classes.Csr.test, Mvcc_classes.Csr.decide);
    ("mvcsr", Mvcc_classes.Mvcsr.test, Mvcc_classes.Mvcsr.decide);
    ("vsr", Mvcc_classes.Vsr.test, Mvcc_classes.Vsr.decide);
    ("vsr/sat", Mvcc_classes.Vsr.test, Mvcc_classes.Vsr.decide_sat);
    ("mvsr", Mvcc_classes.Mvsr.test, Mvcc_classes.Mvsr.decide);
    ("fsr", Mvcc_classes.Fsr.test, Mvcc_classes.Fsr.decide);
    ("dmvsr", Mvcc_classes.Dmvsr.test, Mvcc_classes.Dmvsr.decide);
  ]

let prop_deciders_certified =
  QCheck2.Test.make
    ~name:"every class decider agrees with test and checker confirms"
    ~count:200 gen_schedule (fun s ->
      List.for_all
        (fun (_name, test, decide) ->
          let ok, w = decide s in
          ok = test s
          && Witness.accepts w = ok
          &&
          (* self-certifying evidence must confirm outright; an
             exhausted-search summary may exceed the checker's re-check
             budget (dmvsr's blind-write padding inflates it), so
             Too_large is tolerated there — Refuted never is *)
          match (w.Witness.evidence, Checker.check s w) with
          | _, Checker.Confirmed -> true
          | Witness.Reject_exhausted _, Checker.Too_large -> true
          | _, _ -> false)
        deciders)

(* -- certifier: explained feed agrees with blind feed; every witness
   checks out against the prefix it speaks about -- *)

let prop_certifier_explained =
  QCheck2.Test.make
    ~name:"feed_explained = feed and every witness checker-confirmed"
    ~count:200 gen_schedule (fun s ->
      List.for_all
        (fun mode ->
          let blind = Cert.create mode in
          let expl = Cert.create mode in
          let prefix = ref [] in
          Array.for_all
            (fun st ->
              let v = Cert.feed blind st in
              let { Cert.verdict; witness } = Cert.feed_explained expl st in
              let against =
                match verdict with
                | Cert.Accepted ->
                    prefix := st :: !prefix;
                    List.rev !prefix
                | Cert.Rejected -> List.rev (st :: !prefix)
              in
              (* default n_txns = highest transaction mentioned + 1,
                 exactly the range the certifier's order covers *)
              let sched = Schedule.of_steps against in
              v = verdict && Checker.verify sched witness)
            (Schedule.steps s))
        [ Cert.Conflict; Cert.Mv_conflict ])

(* -- Incr_digraph rejection cycles -- *)

let cycle_well_formed ~refused g arcs =
  match arcs with
  | [] -> false
  | (u0, _) :: _ ->
      let hd = List.hd arcs in
      hd = refused
      (* consecutive arcs chain and the walk closes *)
      && (let rec chained = function
            | [] -> true
            | [ (_, v) ] -> v = u0
            | (_, v) :: ((u', _) :: _ as rest) -> v = u' && chained rest
          in
          chained arcs)
      (* simple: no source repeats *)
      && (let srcs = List.map fst arcs in
          List.length (List.sort_uniq compare srcs) = List.length srcs)
      (* every arc except the refused head is a real edge *)
      && List.for_all (fun (u, v) -> Ig.mem_edge g u v) (List.tl arcs)

let prop_incr_rejection_cycle =
  QCheck2.Test.make
    ~name:"incr-digraph rejection cycle: refused head, closed, simple"
    ~count:300
    QCheck2.Gen.(
      let* n = int_range 1 7 in
      let* edges =
        list_size (int_range 1 20)
          (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      return (n, edges))
    (fun (_n, edges) ->
      let g = Ig.create () in
      List.for_all
        (fun (u, v) ->
          if Ig.add_edge g u v then
            (* acceptance never disturbs the last rejection's witness *)
            true
          else
            match Ig.rejection_cycle g with
            | None -> false
            | Some arcs ->
                cycle_well_formed ~refused:(u, v) g arcs
                && not (Ig.mem_edge g u v))
        edges)

let test_incr_rejection_cycle_batch () =
  (* a rejected batch's witness may run through arcs of the same batch;
     it is captured before the rollback removes them *)
  let g = Ig.create () in
  check "seed" true (Ig.add_edge g 2 0);
  check "batch rejected" false (Ig.add_edges g [ (0, 1); (1, 2) ]);
  (match Ig.rejection_cycle g with
  | None -> Alcotest.fail "expected a rejection cycle"
  | Some arcs ->
      check "head is the refused arc" true (List.hd arcs = (1, 2));
      check "closed walk" true
        (let rec chained = function
           | [] -> true
           | [ (_, v) ] -> v = 1
           | (_, v) :: ((u', _) :: _ as rest) -> v = u' && chained rest
         in
         chained arcs));
  check "self-loop witness" true
    (Ig.add_edge g 4 4 = false && Ig.rejection_cycle g = Some [ (4, 4) ])

(* -- engine: provenance leaves decisions untouched; the run certificate
   is checker-confirmed -- *)

let accounts = [ "a"; "b"; "c" ]
let initial = List.map (fun a -> (a, 100)) accounts

let workload =
  [
    P.read_all ~label:"audit" accounts;
    P.transfer ~label:"t0" ~from_:"a" ~to_:"b" 5;
    P.transfer ~label:"t1" ~from_:"b" ~to_:"c" 7;
    P.read_all ~label:"audit2" accounts;
  ]

let test_engine_provenance () =
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          let name =
            Printf.sprintf "%s seed %d" (E.policy_name policy) seed
          in
          let blind = E.run ~policy ~initial ~programs:workload ~seed () in
          let log = Log.create () in
          let cert =
            E.run ~policy ~initial ~programs:workload ~prov:log ~seed ()
          in
          check (name ^ ": stats invariant") true
            (blind.E.stats = cert.E.stats);
          check (name ^ ": state invariant") true
            (blind.E.final_state = cert.E.final_state);
          check (name ^ ": blind run issues nothing") true
            (blind.E.provenance = None);
          match cert.E.provenance with
          | None -> Alcotest.fail (name ^ ": no certificate")
          | Some (history, w) ->
              check (name ^ ": witness accepts") true (Witness.accepts w);
              check (name ^ ": witness logged") true (Log.length log >= 1);
              check (name ^ ": checker confirms") true
                (Checker.verify history w))
        [ 1; 2; 5; 11 ])
    E.all_policies

let () =
  Alcotest.run "provenance"
    [
      ("log", [ Alcotest.test_case "registry" `Quick test_log_registry ]);
      ( "checker",
        [ Alcotest.test_case "refutes tampering" `Quick test_checker_refutes ]
      );
      ( "incr-digraph",
        [
          Alcotest.test_case "batch rejection witness" `Quick
            test_incr_rejection_cycle_batch;
        ] );
      ( "engine",
        [
          Alcotest.test_case "run certificates" `Quick test_engine_provenance;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_deciders_certified;
            prop_certifier_explained;
            prop_incr_rejection_cycle;
          ] );
    ]
