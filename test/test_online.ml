(* Tests for the incremental online-certification subsystem: the dynamic
   digraph against the batch cycle detector under random edge
   insertion/rollback sequences, and decision-equivalence of the
   incremental schedulers with the batch SGT / MVCG schedulers on
   exhaustive small universes and random workloads. *)

open Mvcc_core
module Ig = Mvcc_online.Incr_digraph
module Certifier = Mvcc_online.Certifier
module Digraph = Mvcc_graph.Digraph
module Cycle = Mvcc_graph.Cycle
module Driver = Mvcc_sched.Driver

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let sched_of = Schedule.of_string

(* -- Incr_digraph -- *)

let order_valid g =
  (* the maintained order is a topological sort of the snapshot *)
  Mvcc_graph.Topo.is_topological (Ig.to_digraph g) (Ig.topological_order g)

let test_incr_digraph_basics () =
  let g = Ig.create () in
  check_int "empty" 0 (Ig.n_nodes g);
  check "chain accepted" true
    (Ig.add_edge g 0 1 && Ig.add_edge g 1 2 && Ig.add_edge g 2 3);
  check_int "nodes grown" 4 (Ig.n_nodes g);
  check_int "edges" 3 (Ig.n_edges g);
  check "idempotent" true (Ig.add_edge g 0 1);
  check_int "no duplicate edge" 3 (Ig.n_edges g);
  check "order respects edges" true (Ig.order g 0 < Ig.order g 1);
  check "valid topological order" true (order_valid g);
  (* an order-violating but acyclic edge forces a reorder *)
  let h = Ig.create () in
  check "prepare" true (Ig.add_edge h 0 1 && Ig.add_edge h 2 3);
  check "back-ordered edge accepted" true (Ig.add_edge h 3 0);
  check "reordered" true
    (Ig.order h 2 < Ig.order h 3
    && Ig.order h 3 < Ig.order h 0
    && Ig.order h 0 < Ig.order h 1);
  check "still valid" true (order_valid h)

let test_incr_digraph_cycle_rejection () =
  let g = Ig.create () in
  check "chain" true (Ig.add_edge g 0 1 && Ig.add_edge g 1 2);
  let before_edges = Ig.n_edges g in
  let before_order = Ig.topological_order g in
  check "closing edge rejected" false (Ig.add_edge g 2 0);
  check "self-loop rejected" false (Ig.add_edge g 1 1);
  check_int "edge count untouched" before_edges (Ig.n_edges g);
  check "order untouched" true (before_order = Ig.topological_order g);
  check "still usable" true (Ig.add_edge g 0 2)

let test_incr_digraph_batch_rollback () =
  let g = Ig.create () in
  check "seed edge" true (Ig.add_edge g 2 0);
  (* the batch's last arc closes a cycle through its first arc *)
  check "batch rejected" false (Ig.add_edges g [ (0, 1); (3, 4); (1, 2) ]);
  check_int "rolled back to the seed edge" 1 (Ig.n_edges g);
  check "seed edge intact" true (Ig.mem_edge g 2 0);
  check "0->1 rolled back" false (Ig.mem_edge g 0 1);
  check "3->4 rolled back" false (Ig.mem_edge g 3 4);
  check "valid order after rollback" true (order_valid g);
  check "batch accepted" true (Ig.add_edges g [ (0, 1); (3, 4) ]);
  check_int "batch landed" 3 (Ig.n_edges g)

let test_incr_digraph_remove_incident () =
  let g = Ig.create () in
  check "edges" true
    (Ig.add_edges g [ (0, 1); (1, 2); (3, 1); (1, 1 + 3) ]);
  Ig.remove_incident g 1;
  check_int "only non-incident left" 0 (Ig.n_edges g);
  check "re-add previously cyclic direction" true (Ig.add_edge g 2 1);
  check "valid order" true (order_valid g)

(* Adjacency rows are bitsets of 62 nodes to a word: removal around and
   past the word boundaries (61 | 62, 123 | 124) must clear exactly the
   incident arcs. *)
let test_incr_digraph_remove_incident_multiword () =
  let g = Ig.create () in
  let arcs =
    [ (5, 62); (62, 123); (123, 124); (61, 62); (62, 149); (130, 62);
      (124, 149); (0, 61) ]
  in
  check "edges" true (Ig.add_edges g arcs);
  Ig.remove_incident g 62;
  check_int "five arcs of 62 gone" 3 (Ig.n_edges g);
  List.iter
    (fun (u, v) ->
      check (Printf.sprintf "%d->%d" u v)
        (u <> 62 && v <> 62) (Ig.mem_edge g u v))
    arcs;
  Ig.remove_incident g 124;
  check_int "two arcs of 124 gone" 1 (Ig.n_edges g);
  check "123->124 gone" false (Ig.mem_edge g 123 124);
  check "62->123 gone" false (Ig.mem_edge g 62 123);
  check "0->61 kept" true (Ig.mem_edge g 0 61);
  check "reverse of a removed arc" true
    (Ig.add_edge g 149 124 && Ig.add_edge g 62 5 && Ig.add_edge g 124 123);
  check "cycle across words still refused" false (Ig.add_edge g 61 0);
  check "valid order" true (order_valid g)

(* Random insert / rollback / forget sequences, cross-validated against
   the batch detector on a plain Digraph mirror: at [n = 12] inside one
   bitset word, at [n = 150] across three. *)
let random_vs_batch ~n ~ops =
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = Ig.create () in
      let mirror = Digraph.create n in
      for _ = 1 to ops do
        let u = Random.State.int rng n and v = Random.State.int rng n in
        (match Random.State.int rng 10 with
        | 0 ->
            (* removal: keep the mirror in sync *)
            if u < Ig.n_nodes g && v < Ig.n_nodes g then begin
              Ig.remove_edge g u v;
              Digraph.remove_edge mirror u v
            end
        | 1 when u < Ig.n_nodes g ->
            Ig.remove_incident g u;
            List.iter (fun v -> Digraph.remove_edge mirror u v)
              (Digraph.succ mirror u);
            List.iter (fun w -> Digraph.remove_edge mirror w u)
              (Digraph.pred mirror u)
        | _ ->
            let probe = Digraph.copy mirror in
            Digraph.add_edge probe u v;
            let expect = Cycle.is_acyclic probe && u <> v in
            let got = Ig.add_edge g u v in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d edge %d->%d" seed u v)
              expect got;
            if got then Digraph.add_edge mirror u v);
        (* the touched arc and the arc count agree after every step *)
        let here = Printf.sprintf "seed %d after %d->%d" seed u v in
        if u < Ig.n_nodes g && v < Ig.n_nodes g then
          Alcotest.(check bool) (here ^ ": arc")
            (Digraph.mem_edge mirror u v) (Ig.mem_edge g u v);
        check_int (here ^ ": arc count") (Digraph.n_edges mirror)
          (Ig.n_edges g)
      done;
      check "final graphs agree" true
        (let snap = Ig.to_digraph g in
         Digraph.fold_edges
           (fun a b ok -> ok && Digraph.mem_edge snap a b)
           mirror true
         && Digraph.n_edges mirror = Digraph.n_edges snap);
      check "final order valid" true (order_valid g))
    [ 7; 42; 1234 ]

let test_incr_digraph_random_vs_batch () = random_vs_batch ~n:12 ~ops:400

let test_incr_digraph_random_vs_batch_multiword () =
  random_vs_batch ~n:150 ~ops:1500

(* -- Certifier as a linear-time class tester -- *)

let test_certifier_full_schedule () =
  List.iter
    (fun text ->
      let s = sched_of text in
      Alcotest.(check bool)
        ("csr " ^ text) (Mvcc_classes.Csr.test s)
        (Certifier.accepts_all Certifier.Conflict s);
      Alcotest.(check bool)
        ("mvcsr " ^ text) (Mvcc_classes.Mvcsr.test s)
        (Certifier.accepts_all Certifier.Mv_conflict s))
    [
      "R1(x) R2(x) W1(x) W2(x)";
      "R1(x) W1(x) R2(x) W2(x)";
      "R1(x) R2(y) W1(y) W2(x)";
      "W1(x) R2(x) W2(y) R1(y)";
      "R1(x) W1(x) R2(x) R2(y) W2(y) R1(y) W1(y)";
      "W1(x) R2(x) R3(y) W2(y) W3(x)";
    ]

let test_certifier_rejection_keeps_state () =
  (* after a rejection the certifier still accepts what the old state
     accepted, i.e. the rejected step really left nothing behind *)
  let cert = Certifier.create Certifier.Conflict in
  let feed txt = Certifier.feed cert (Schedule.step (sched_of txt) 0) in
  check "W1(x)" true (feed "W1(x)" = Certifier.Accepted);
  check "R2(x)" true (feed "R2(x)" = Certifier.Accepted);
  check "W2(y)" true (feed "W2(y)" = Certifier.Accepted);
  check "R1(y) closes the cycle" true (feed "R1(y)" = Certifier.Rejected);
  check_int "position unchanged" 3 (Certifier.n_accepted cert);
  check "an unrelated step still lands" true
    (feed "R3(y)" = Certifier.Accepted)

let test_certifier_last_write () =
  let cert = Certifier.create Certifier.Conflict in
  let s = sched_of "W1(x) W2(x) R3(y)" in
  Array.iter
    (fun st -> ignore (Certifier.feed cert st))
    (Schedule.steps s);
  check "last write tracked" true (Certifier.last_write cert "x" = Some 1);
  check "no write of y" true (Certifier.last_write cert "y" = None);
  check "standard source matches the batch scan" true
    (Certifier.standard_source cert (Step.read 3 "x")
    = Mvcc_sched.Scheduler.standard_source s (Step.read 3 "x"))

(* -- decision equivalence with the batch schedulers -- *)

let same_outcome (a : Driver.outcome) (b : Driver.outcome) =
  a.Driver.accepted = b.Driver.accepted
  && a.Driver.accepted_steps = b.Driver.accepted_steps
  && Version_fn.equal a.Driver.version_fn b.Driver.version_fn

let pairs =
  [
    ("sgt", Mvcc_sched.Sgt.scheduler, Certifier.(scheduler Conflict));
    ("mvcg", Mvcc_sched.Mvcg_sched.scheduler, Certifier.(scheduler Mv_conflict));
  ]

let test_equivalence_exhaustive () =
  (* every interleaving of every 2-transaction system over 2 entities
     with <= 2 distinct accesses per transaction *)
  let checked = ref 0 in
  Seq.iter
    (fun s ->
      incr checked;
      List.iter
        (fun (name, batch, inc) ->
          check
            (Printf.sprintf "%s ~ %s-inc on %s" name name
               (Schedule.to_string s))
            true
            (same_outcome (Driver.run batch s) (Driver.run inc s)))
        pairs)
    (Mvcc_workload.Enumerate.schedules ~n_txns:2 ~n_entities:2 ~max_steps:2
       ());
  check "universe was nontrivial" true (!checked > 1000)

let gen_schedule ~distinct =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let rng = Random.State.make [| seed |] in
    return
      (Mvcc_workload.Schedule_gen.schedule
         { Mvcc_workload.Schedule_gen.default with
           n_txns = 4; n_entities = 2; max_steps = 4;
           distinct_accesses = distinct }
         rng))

let prop_equivalence ~distinct ~count name =
  QCheck2.Test.make ~name ~count (gen_schedule ~distinct) (fun s ->
      List.for_all
        (fun (_, batch, inc) ->
          same_outcome (Driver.run batch s) (Driver.run inc s))
        pairs)

let prop_certifier_tests_classes =
  QCheck2.Test.make
    ~name:"certifier accepts_all = Csr.test / Mvcsr.test" ~count:300
    (gen_schedule ~distinct:false) (fun s ->
      Certifier.accepts_all Certifier.Conflict s = Mvcc_classes.Csr.test s
      && Certifier.accepts_all Certifier.Mv_conflict s
         = Mvcc_classes.Mvcsr.test s)

let () =
  Alcotest.run "online"
    [
      ( "incr-digraph",
        [
          Alcotest.test_case "basics" `Quick test_incr_digraph_basics;
          Alcotest.test_case "cycle rejection" `Quick
            test_incr_digraph_cycle_rejection;
          Alcotest.test_case "batch rollback" `Quick
            test_incr_digraph_batch_rollback;
          Alcotest.test_case "remove incident" `Quick
            test_incr_digraph_remove_incident;
          Alcotest.test_case "remove incident across words" `Quick
            test_incr_digraph_remove_incident_multiword;
          Alcotest.test_case "random vs batch detector" `Quick
            test_incr_digraph_random_vs_batch;
          Alcotest.test_case "random vs batch detector across words" `Quick
            test_incr_digraph_random_vs_batch_multiword;
        ] );
      ( "certifier",
        [
          Alcotest.test_case "full-schedule tester" `Quick
            test_certifier_full_schedule;
          Alcotest.test_case "rejection keeps state" `Quick
            test_certifier_rejection_keeps_state;
          Alcotest.test_case "last write" `Quick test_certifier_last_write;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "exhaustive small universe" `Slow
            test_equivalence_exhaustive;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_equivalence ~distinct:false ~count:600
              "inc schedulers = batch schedulers (general model)";
            prop_equivalence ~distinct:true ~count:600
              "inc schedulers = batch schedulers (distinct accesses)";
            prop_certifier_tests_classes;
          ] );
    ]
