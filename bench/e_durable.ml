(* E23 — durability: what write-ahead logging costs, and what recovery
   costs as the log grows.

   Part 1 runs the same seeded Zipfian workload three ways per policy —
   blind (no wal), logging to an in-memory buffer, and logging through
   to a file with a flush per record (the real WAL discipline) — and
   reports the overhead of the two logging legs over the blind leg.
   The engine's contract says logging is pure accounting, so all three
   legs must agree on stats and final state (gated); the timing medians
   are taken over paired passes, as in E21/E22, to survive noise.

   Part 2 measures full-log recovery time against log length, and
   snapshot-plus-tail recovery against the same logs, gating on the
   recovered stores being byte-identical and (full-log) on the
   checker confirming the recovered witness. Rows land in e23.json. *)

module E = Mvcc_engine.Engine
module D_wal = Mvcc_durable.Wal
module D_hook = Mvcc_durable.Hook
module D_rec = Mvcc_durable.Recovery
module Crash = Mvcc_durable.Crash


let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s -> List.nth s (List.length s / 2)

(* Moderate contention: enough conflicts to exercise every policy's
   abort paths (restarts re-log their attempts, so the log is a real
   multiple of the committed work) without livelocking the blocking
   policies at the larger sizes. *)
let cfg ~policy ~txns =
  {
    Crash.default with
    policy;
    seed = 23;
    txns;
    entities = 24;
    theta = 0.6;
    ops_per_txn = 6;
    snapshot_every = Some (max 2 (txns / 4));
  }

let run_leg ?wal ?snapshot_every c =
  let programs = Crash.workload c in
  let initial = List.init c.Crash.entities (fun i -> (Printf.sprintf "e%d" i, 100)) in
  E.run ~policy:c.Crash.policy ~initial ~programs ?wal ?snapshot_every
    ~seed:c.Crash.seed ()

let run ~passes =
  Util.section "E23  WAL overhead and recovery time";
  let json_rows = ref [] in
  let emit row =
    json_rows := row :: !json_rows;
    Util.row "  %s@." row
  in
  let identical = ref true in
  let recovered_ok = ref true in

  Util.subsection "part 1: logging overhead (blind vs wal-mem vs wal-file)";
  List.iter
    (fun policy ->
      let c = cfg ~policy ~txns:24 in
      let timings =
        List.init passes (fun _ ->
            let blind, t_blind = Util.time_ms (fun () -> run_leg c) in
            let mem_writer = D_wal.writer () in
            let mem_hook = D_hook.create mem_writer in
            let mem, t_mem =
              Util.time_ms (fun () ->
                  run_leg ~wal:(D_hook.listener mem_hook)
                    ?snapshot_every:c.Crash.snapshot_every c)
            in
            let path = Filename.temp_file "e23" ".wal" in
            let file_writer = D_wal.writer ~path () in
            let file_hook = D_hook.create file_writer in
            let file, t_file =
              Util.time_ms (fun () ->
                  run_leg ~wal:(D_hook.listener file_hook)
                    ?snapshot_every:c.Crash.snapshot_every c)
            in
            D_wal.close file_writer;
            Sys.remove path;
            (* logging must not move a single decision *)
            if
              blind.E.stats <> mem.E.stats
              || blind.E.final_state <> mem.E.final_state
              || blind.E.stats <> file.E.stats
              || blind.E.final_state <> file.E.final_state
            then identical := false;
            (D_wal.next_lsn mem_writer, String.length (D_wal.contents mem_writer),
             t_blind, t_mem, t_file))
      in
      let records, bytes, _, _, _ = List.hd timings in
      let pick f = median (List.map f timings) in
      let t_blind = pick (fun (_, _, b, _, _) -> b)
      and t_mem = pick (fun (_, _, _, m, _) -> m)
      and t_file = pick (fun (_, _, _, _, f) -> f) in
      let pct t = 100. *. (t -. t_blind) /. t_blind in
      emit
        (Printf.sprintf
           "{\"experiment\":\"e23\",\"part\":\"overhead\",\"policy\":\"%s\",\
            \"records\":%d,\"bytes\":%d,\"blind_ms\":%.3f,\"wal_mem_ms\":%.3f,\
            \"wal_file_ms\":%.3f,\"overhead_mem_pct\":%.1f,\
            \"overhead_file_pct\":%.1f}"
           (E.policy_name policy) records bytes t_blind t_mem t_file
           (pct t_mem) (pct t_file)))
    E.all_policies;
  Util.row "logging never changed a decision: %b@." !identical;

  Util.subsection "part 2: recovery time vs log length";
  List.iter
    (fun txns ->
      List.iter
        (fun policy ->
          let c = cfg ~policy ~txns in
          let writer = D_wal.writer () in
          let hook = D_hook.create writer in
          let live =
            run_leg ~wal:(D_hook.listener hook)
              ?snapshot_every:c.Crash.snapshot_every c
          in
          let bytes = D_wal.contents writer in
          let read, t_read =
            Util.time_ms (fun () -> D_wal.read_string bytes)
          in
          let full, t_full =
            Util.time_ms (fun () -> D_rec.recover ~policy read)
          in
          if full.D_rec.state <> live.E.final_state then recovered_ok := false;
          (match full.D_rec.witness with
          | Some w when Mvcc_provenance.Checker.verify full.D_rec.history w ->
              ()
          | _ -> recovered_ok := false);
          let t_tail, tail_from =
            match D_hook.last_snapshot hook with
            | None -> (nan, 0)
            | Some snap ->
                let tail, t =
                  Util.time_ms (fun () ->
                      D_rec.recover ~policy ~snapshot:snap read)
                in
                if
                  D_rec.dump_string tail.D_rec.store
                  <> D_rec.dump_string full.D_rec.store
                then recovered_ok := false;
                (t, snap.Mvcc_durable.Snapshot.lsn)
          in
          emit
            (Printf.sprintf
               "{\"experiment\":\"e23\",\"part\":\"recovery\",\"policy\":\"%s\",\
                \"records\":%d,\"bytes\":%d,\"commits\":%d,\"read_ms\":%.3f,\
                \"full_ms\":%.3f,\"tail_from_lsn\":%d,\"tail_ms\":%.3f}"
               (E.policy_name policy)
               (List.length read.D_wal.records)
               (String.length bytes) live.E.stats.E.commits t_read t_full
               tail_from t_tail))
        E.all_policies)
    (if passes <= 3 then [ 12; 36 ] else [ 12; 36; 96 ]);
  Util.row "recovery matched the live run everywhere: %b@." !recovered_ok;

  let oc = open_out "e23.json" in
  List.iter (fun r -> output_string oc (r ^ "\n")) (List.rev !json_rows);
  close_out oc;
  Util.row "@.rows written to e23.json@.";
  !identical && !recovered_ok
