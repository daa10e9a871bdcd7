(* Bechamel timing benches: one Test.make per decision procedure /
   construction, so the per-operation costs reported in EXPERIMENTS.md are
   statistically estimated rather than one-shot wall-clock. *)

open Bechamel
open Toolkit
open Mvcc_core

(* Fixed representative inputs, built once. *)
let small_schedule = Schedule.of_string "W1(x) R2(x) R3(y) W2(y) W3(x)"

let medium_schedule =
  let rng = Util.rng 77 in
  Mvcc_workload.Schedule_gen.schedule
    { Mvcc_workload.Schedule_gen.default with
      n_txns = 6; n_entities = 3; max_steps = 3 }
    rng

let polygraph_medium =
  let rng = Util.rng 78 in
  Mvcc_workload.Polygraph_gen.generate
    { Mvcc_workload.Polygraph_gen.n_nodes = 12; arc_density = 0.3;
      choices_per_arc = 1.0 }
    rng

let monotone_formula =
  let rng = Util.rng 79 in
  Mvcc_workload.Polygraph_gen.random_monotone ~n_vars:5 ~n_clauses:6 rng

let disjoint_polygraph =
  let rng = Util.rng 80 in
  Mvcc_workload.Polygraph_gen.generate_disjoint
    { Mvcc_workload.Polygraph_gen.n_nodes = 4; arc_density = 0.5;
      choices_per_arc = 1.0 }
    rng

let ols_pair = Mvcc_ols.Examples.mvcsr_not_ols_pair

let tests =
  Test.make_grouped ~name:"mvcc"
    [
      Test.make ~name:"csr-test-6txn" (Staged.stage (fun () ->
          Mvcc_classes.Csr.test medium_schedule));
      Test.make ~name:"mvcsr-test-6txn" (Staged.stage (fun () ->
          Mvcc_classes.Mvcsr.test medium_schedule));
      Test.make ~name:"vsr-test-6txn" (Staged.stage (fun () ->
          Mvcc_classes.Vsr.test medium_schedule));
      Test.make ~name:"mvsr-test-6txn" (Staged.stage (fun () ->
          Mvcc_classes.Mvsr.test medium_schedule));
      Test.make ~name:"dmvsr-test-6txn" (Staged.stage (fun () ->
          Mvcc_classes.Dmvsr.test medium_schedule));
      Test.make ~name:"switching-bfs-small" (Staged.stage (fun () ->
          Mvcc_classes.Switching.test small_schedule));
      Test.make ~name:"polygraph-solve-12n" (Staged.stage (fun () ->
          Mvcc_polygraph.Acyclicity.is_acyclic polygraph_medium));
      Test.make ~name:"polygraph-sat-encoding-12n" (Staged.stage (fun () ->
          Mvcc_polygraph.Sat_encoding.is_acyclic_sat polygraph_medium));
      Test.make ~name:"dpll-monotone-5v6c" (Staged.stage (fun () ->
          Mvcc_sat.Dpll.satisfiable (Mvcc_sat.Monotone.to_cnf monotone_formula)));
      Test.make ~name:"sat-to-polygraph-reduce" (Staged.stage (fun () ->
          Mvcc_polygraph.Sat_to_polygraph.reduce monotone_formula));
      Test.make ~name:"ols-check-sec4-pair" (Staged.stage (fun () ->
          let s, s' = ols_pair in
          Mvcc_ols.Ols.is_ols [ s; s' ]));
      Test.make ~name:"theorem4-build" (Staged.stage (fun () ->
          Mvcc_ols.Theorem4.build disjoint_polygraph));
      Test.make ~name:"theorem5-build+mvsr" (Staged.stage (fun () ->
          Mvcc_classes.Mvsr.test (Mvcc_ols.Theorem5.build disjoint_polygraph)));
      Test.make ~name:"fsr-test-6txn" (Staged.stage (fun () ->
          Mvcc_classes.Fsr.test medium_schedule));
      Test.make ~name:"family-rw-test-6txn" (Staged.stage (fun () ->
          Mvcc_classes.Family.test ~kinds:[ Mvcc_classes.Family.Rw ]
            medium_schedule));
      Test.make ~name:"liveness-6txn" (Staged.stage (fun () ->
          Mvcc_core.Liveness.live_positions medium_schedule));
      Test.make ~name:"sgt-batch-run-6txn" (Staged.stage (fun () ->
          Mvcc_sched.Driver.run Mvcc_sched.Sgt.scheduler medium_schedule));
      Test.make ~name:"sgt-inc-run-6txn" (Staged.stage (fun () ->
          Mvcc_sched.Driver.run
            Mvcc_online.Certifier.(scheduler Conflict)
            medium_schedule));
      Test.make ~name:"mvcg-batch-run-6txn" (Staged.stage (fun () ->
          Mvcc_sched.Driver.run Mvcc_sched.Mvcg_sched.scheduler
            medium_schedule));
      Test.make ~name:"mvcg-inc-run-6txn" (Staged.stage (fun () ->
          Mvcc_sched.Driver.run Mvcc_online.Certifier.(scheduler Mv_conflict)
            medium_schedule));
      Test.make ~name:"mvto-run-6txn" (Staged.stage (fun () ->
          Mvcc_sched.Driver.run Mvcc_sched.Mvto.scheduler medium_schedule));
      Test.make ~name:"si-run-6txn" (Staged.stage (fun () ->
          Mvcc_sched.Driver.run Mvcc_sched.Si.scheduler medium_schedule));
      Test.make ~name:"engine-mvto-banking" (Staged.stage (fun () ->
          Mvcc_engine.Engine.run ~policy:Mvcc_engine.Engine.Mvto
            ~initial:[ ("a", 100); ("b", 100) ]
            ~programs:
              [
                Mvcc_engine.Program.transfer ~label:"t" ~from_:"a" ~to_:"b" 5;
                Mvcc_engine.Program.read_all ~label:"r" [ "a"; "b" ];
              ]
            ~seed:1 ()));
    ]

let run () =
  Util.section "Timing (bechamel, ns per run)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let ns =
          match Analyze.OLS.estimates result with
          | Some (e :: _) -> e
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      if ns < 1_000. then Util.row "%-40s %12.0f ns@." name ns
      else if ns < 1_000_000. then Util.row "%-40s %12.2f us@." name (ns /. 1e3)
      else Util.row "%-40s %12.2f ms@." name (ns /. 1e6))
    rows
