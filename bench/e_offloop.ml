(* E27 — the decision-parallel engine: partitioned intake, off-loop
   snapshot reads, adaptive batching.

   Part 1 gates the refactor's invariant across the whole configuration
   grid: for every policy, cores, client-queue count, and batch mode,
   a run with GC, checkpoints, group commit, provenance, and the
   read-only snapshot path enabled must match the cores=1 reference
   (same flags) on stats, final state, acknowledged commits, served
   snapshot reads, the certificate, and the exact WAL bytes. Partitioned
   intake merges back into submission order, flush timing never reaches
   a decision, and the read-only launch rule is deterministic — so the
   grid collapses to one run.

   Part 2 measures what taking read-only transactions off the serial
   tick loop buys on a read-heavy (90%) Zipfian mix: the new path
   (ro-snapshot + 4 client queues + auto batching) against the PR 9
   fixed-batch engine, which still burns a decision-loop slot per read.
   Gates: committed-txn throughput at cores=4 at least matches cores=2
   on the new path for some policy (closing the E26 inversion), and the
   new path at cores=4 at least doubles the old engine's throughput for
   some policy. S2PL rows go through the completion driver so they
   report committed throughput, not deadlock attrition. *)

module E = Mvcc_engine.Engine
module Gen = Mvcc_workload.Program_gen
module D_wal = Mvcc_durable.Wal
module D_hook = Mvcc_durable.Hook
module Sink = Mvcc_obs.Sink
module Metrics = Mvcc_obs.Metrics

let minimum xs = List.fold_left min infinity xs

let batch_name = function
  | None -> "fixed"
  | Some E.Auto -> "auto"
  | Some (E.Fixed n) -> string_of_int n

let run ~passes =
  Util.section
    "E27  decision-parallel engine: off-loop reads, queues, auto batching";
  let json_rows = ref [] in
  let emit row =
    json_rows := row :: !json_rows;
    Util.row "  %s@." row
  in
  let quick = passes <= 3 in

  Util.subsection "part 1: identity across {policy x cores x queues x batch}";
  let identical = ref true in
  List.iter
    (fun policy ->
      let initial, programs =
        Gen.mixed ~n_txns:24 ~read_fraction:0.5 ~mix_rounds:1_000 ~seed:28 ()
      in
      let leg ~cores ~queues ~batch =
        let writer = D_wal.writer ~window:(D_wal.window ~commits:8 ()) () in
        let hook = D_hook.create writer in
        let prov = Mvcc_provenance.Log.create () in
        let r =
          E.run ~policy ~initial ~programs ~gc:true ~prov
            ~wal:(D_hook.listener hook)
            ~wal_durable:(fun () -> D_wal.acked_commits writer)
            ~snapshot_every:6 ~cores ~client_queues:queues ?batch
            ~ro_snapshot:true ~seed:28 ()
        in
        D_wal.close writer;
        (r, D_wal.contents writer)
      in
      let r1, w1 = leg ~cores:1 ~queues:1 ~batch:None in
      List.iter
        (fun cores ->
          List.iter
            (fun queues ->
              List.iter
                (fun batch ->
                  if not (cores = 1 && queues = 1 && batch = None) then begin
                    let rc, wc = leg ~cores ~queues ~batch in
                    let same =
                      r1.E.stats = rc.E.stats
                      && r1.E.final_state = rc.E.final_state
                      && r1.E.durable_commits = rc.E.durable_commits
                      && r1.E.ro_reads = rc.E.ro_reads
                      && w1 = wc
                      &&
                      match (r1.E.provenance, rc.E.provenance) with
                      | Some (h1, p1), Some (h2, p2) ->
                          Mvcc_core.Schedule.equal h1 h2 && p1 = p2
                      | _ -> false
                    in
                    if not same then identical := false;
                    emit
                      (Printf.sprintf
                         "{\"experiment\":\"e27\",\"part\":\"identity\",\
                          \"policy\":\"%s\",\"cores\":%d,\"queues\":%d,\
                          \"batch\":\"%s\",\"commits\":%d,\"ro\":%d,\
                          \"identical\":%b}"
                         (E.policy_name policy) cores queues (batch_name batch)
                         rc.E.stats.E.commits
                         (List.length rc.E.ro_reads)
                         same)
                  end)
                [ None; Some E.Auto ])
            [ 1; 4 ])
        [ 1; 2; 4 ])
    E.all_policies;
  Util.row "identical at every {cores x queues x batch} point: %b@." !identical;

  Util.subsection "part 2: 90%-read Zipfian throughput — off-loop vs in-loop";
  let txns = if quick then 96 else 192 in
  let mix_rounds = if quick then 20_000 else 40_000 in
  let initial, programs =
    Gen.mixed ~n_txns:txns ~read_fraction:0.9 ~reads_per_txn:8 ~mix_rounds
      ~seed:29 ()
  in
  let n_ro =
    List.length (List.filter Mvcc_engine.Program.read_only programs)
  in
  Util.row "  workload: %d txns, %d read-only, mix=%d@." txns n_ro mix_rounds;
  let closed_inversion = ref false and doubled = ref false in
  List.iter
    (fun policy ->
      (* the new path's completion run doubles as its reference *)
      let r_ref, new_seed, new_ticks, new_tries =
        Util.run_to_completion ~n_txns:txns ~seed:29 (fun ~seed ~max_ticks ->
            E.run ~policy ~initial ~programs ~max_ticks ~cores:1
              ~ro_snapshot:true ~seed ())
      in
      let commits = r_ref.E.stats.E.commits in
      let time_new cores =
        minimum
          (List.init passes (fun _ ->
               snd
                 (Util.time_ms (fun () ->
                      E.run ~policy ~initial ~programs ~max_ticks:new_ticks
                        ~cores ~client_queues:4 ~batch:E.Auto
                        ~ro_snapshot:true ~seed:new_seed ()))))
      in
      let tput_new =
        List.map
          (fun c -> (c, float_of_int commits /. (time_new c /. 1000.)))
          [ 1; 2; 4 ]
      in
      (* the PR 9 engine: everything through the tick loop, fixed batch *)
      let r_old, old_seed, old_ticks, old_tries =
        Util.run_to_completion ~n_txns:txns ~seed:29 (fun ~seed ~max_ticks ->
            E.run ~policy ~initial ~programs ~max_ticks ~cores:1 ~seed ())
      in
      let old_commits = r_old.E.stats.E.commits in
      let time_old =
        minimum
          (List.init passes (fun _ ->
               snd
                 (Util.time_ms (fun () ->
                      E.run ~policy ~initial ~programs ~max_ticks:old_ticks
                        ~cores:4 ~seed:old_seed ()))))
      in
      let tput_old = float_of_int old_commits /. (time_old /. 1000.) in
      let t2 = List.assoc 2 tput_new and t4 = List.assoc 4 tput_new in
      if t4 >= t2 then closed_inversion := true;
      if t4 >= 2. *. tput_old then doubled := true;
      (* the controller's landing point, from one instrumented auto leg *)
      let m = Metrics.create () in
      let obs = Sink.create ~metrics:m () in
      ignore
        (E.run ~policy ~initial ~programs ~obs ~max_ticks:new_ticks ~cores:4
           ~client_queues:4 ~batch:E.Auto ~ro_snapshot:true ~seed:new_seed ());
      emit
        (Printf.sprintf
           "{\"experiment\":\"e27\",\"part\":\"throughput\",\
            \"policy\":\"%s\",\"txns\":%d,\"ro_txns\":%d,\"commits\":%d,\
            \"completion_tries\":%d,\"old_tries\":%d,%s,\
            \"tput_old_c4\":%.0f,\"c4_over_c2\":%.2f,\"c4_over_old\":%.2f,\
            \"batch_target\":%d,\"ro_offloop\":%d,\"ro_deferred\":%d}"
           (E.policy_name policy) txns n_ro commits new_tries old_tries
           (String.concat ","
              (List.map
                 (fun (c, t) -> Printf.sprintf "\"tput_new_c%d\":%.0f" c t)
                 tput_new))
           tput_old (t4 /. t2)
           (t4 /. tput_old)
           (Metrics.gauge m "engine.stage.batch-target")
           (Metrics.counter m "engine.ro.offloop")
           (Metrics.counter m "engine.ro.deferred")))
    E.all_policies;
  Util.row "cores=4 >= cores=2 on the new path somewhere: %b@."
    !closed_inversion;
  Util.row "new path at cores=4 doubles the fixed-batch engine somewhere: %b@."
    !doubled;

  let oc = open_out "e27.json" in
  List.iter (fun r -> output_string oc (r ^ "\n")) (List.rev !json_rows);
  close_out oc;
  Util.row "@.rows written to e27.json@.";
  !identical && !closed_inversion && !doubled
