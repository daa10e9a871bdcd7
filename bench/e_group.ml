(* E24 — group commit buys back the file-WAL overhead, and what a
   log-shipping follower costs.

   E23 measured flush-per-record file logging at +94-384% over the
   blind run: the flush syscall per record dominates. Part 1 reruns the
   same paired-pass comparison with a third leg — file logging through
   a group-commit window (commits<=8), where only a batch force flushes
   — and gates the aggregate wall clock of the group leg across the
   five policies at under +50% of blind. Per-policy overheads are
   reported next to the gate: the cheap-op policies (si, mvto) still
   show the in-memory encoding floor as a large percentage of their
   near-free blind runs, while the file discipline's own cost is gone.
   The engine contract still holds: all legs must agree on stats and
   final state (decision identity), and after close the writer must
   have acknowledged every commit.

   Part 2 ships a group-committed log to a Follower one force boundary
   at a time, timing each catch-up, and gates that (a) every
   intermediate lagging view is certified by the independent checker,
   (b) the caught-up replica store is byte-identical to one-shot
   recovery, and (c) the caught-up read view equals the live engine's
   final state. Rows land in e24.json. *)

module E = Mvcc_engine.Engine
module D_wal = Mvcc_durable.Wal
module D_hook = Mvcc_durable.Hook
module D_rec = Mvcc_durable.Recovery
module Follower = Mvcc_durable.Follower
module Crash = Mvcc_durable.Crash


(* Timing noise on a shared machine is one-sided (preemption only adds
   time), so the minimum over paired passes is the stable estimator of
   each leg's true cost; a median over 5 passes still wobbles the
   aggregate gate by ±10 points run to run. *)
let minimum xs = List.fold_left min infinity xs

(* Same shape as E23's workload so the overhead numbers compare. *)
let cfg ~policy ~txns =
  {
    Crash.default with
    policy;
    seed = 24;
    txns;
    entities = 24;
    theta = 0.6;
    ops_per_txn = 6;
    snapshot_every = Some (max 2 (txns / 4));
  }

let run_leg ?wal ?wal_durable ?snapshot_every c =
  let programs = Crash.workload c in
  let initial =
    List.init c.Crash.entities (fun i -> (Printf.sprintf "e%d" i, 100))
  in
  E.run ~policy:c.Crash.policy ~initial ~programs ?wal ?wal_durable
    ?snapshot_every ~seed:c.Crash.seed ()

let run ~passes =
  Util.section "E24  group commit and the log-shipping follower";
  let json_rows = ref [] in
  let emit row =
    json_rows := row :: !json_rows;
    Util.row "  %s@." row
  in
  let identical = ref true in
  let follower_ok = ref true in
  let sum_blind = ref 0. in
  let sum_group = ref 0. in

  Util.subsection
    "part 1: file-WAL overhead, flush-per-record vs group commit";
  List.iter
    (fun policy ->
      let c = cfg ~policy ~txns:24 in
      let window = D_wal.window ~commits:8 () in
      let timings =
        List.init passes (fun _ ->
            let blind, t_blind = Util.time_ms (fun () -> run_leg c) in
            (* flush-per-record file leg, close (the final flush) timed *)
            let p1 = Filename.temp_file "e24_perrec" ".wal" in
            let w1 = D_wal.writer ~path:p1 () in
            let h1 = D_hook.create w1 in
            let per_rec, t_per_rec =
              Util.time_ms (fun () ->
                  let r =
                    run_leg ~wal:(D_hook.listener h1)
                      ?snapshot_every:c.Crash.snapshot_every c
                  in
                  D_wal.close w1;
                  r)
            in
            let forces_per_rec = D_wal.forces w1 in
            Sys.remove p1;
            (* group-commit file leg: forces only at batch boundaries *)
            let p2 = Filename.temp_file "e24_group" ".wal" in
            let w2 = D_wal.writer ~path:p2 ~window () in
            let h2 = D_hook.create w2 in
            let group, t_group =
              Util.time_ms (fun () ->
                  let r =
                    run_leg ~wal:(D_hook.listener h2)
                      ~wal_durable:(fun () -> D_wal.acked_commits w2)
                      ?snapshot_every:c.Crash.snapshot_every c
                  in
                  D_wal.close w2;
                  r)
            in
            let forces_group = D_wal.forces w2 in
            Sys.remove p2;
            if
              blind.E.stats <> per_rec.E.stats
              || blind.E.final_state <> per_rec.E.final_state
              || blind.E.stats <> group.E.stats
              || blind.E.final_state <> group.E.final_state
            then identical := false;
            (* close forces the open batch: everything is acked *)
            if D_wal.acked_commits w2 <> group.E.stats.E.commits then
              identical := false;
            ( D_wal.next_lsn w2,
              String.length (D_wal.contents w2),
              forces_per_rec,
              forces_group,
              t_blind,
              t_per_rec,
              t_group ))
      in
      let records, bytes, forces_per_rec, forces_group, _, _, _ =
        List.hd timings
      in
      let pick f = minimum (List.map f timings) in
      let t_blind = pick (fun (_, _, _, _, b, _, _) -> b)
      and t_per_rec = pick (fun (_, _, _, _, _, p, _) -> p)
      and t_group = pick (fun (_, _, _, _, _, _, g) -> g) in
      let pct t = 100. *. (t -. t_blind) /. t_blind in
      sum_blind := !sum_blind +. t_blind;
      sum_group := !sum_group +. t_group;
      emit
        (Printf.sprintf
           "{\"experiment\":\"e24\",\"part\":\"overhead\",\"policy\":\"%s\",\
            \"records\":%d,\"bytes\":%d,\"forces_per_record\":%d,\
            \"forces_group\":%d,\"blind_ms\":%.3f,\"per_record_ms\":%.3f,\
            \"group_ms\":%.3f,\"overhead_per_record_pct\":%.1f,\
            \"overhead_group_pct\":%.1f}"
           (E.policy_name policy) records bytes forces_per_rec forces_group
           t_blind t_per_rec t_group (pct t_per_rec) (pct t_group)))
    E.all_policies;
  let agg = 100. *. (!sum_group -. !sum_blind) /. !sum_blind in
  let under_gate = agg < 50. in
  emit
    (Printf.sprintf
       "{\"experiment\":\"e24\",\"part\":\"overhead\",\"policy\":\"all\",\
        \"blind_ms\":%.3f,\"group_ms\":%.3f,\"overhead_group_pct\":%.1f}"
       !sum_blind !sum_group agg);
  Util.row "logging never changed a decision: %b@." !identical;
  Util.row
    "aggregate group-commit file overhead %+.1f%% vs blind (< +50%%: %b)@."
    agg under_gate;

  Util.subsection "part 2: shipping the log to a follower, per boundary";
  List.iter
    (fun policy ->
      let c = cfg ~policy ~txns:36 in
      let writer = D_wal.writer ~window:(D_wal.window ~commits:4 ()) () in
      let hook = D_hook.create writer in
      let live =
        run_leg ~wal:(D_hook.listener hook)
          ~wal_durable:(fun () -> D_wal.acked_commits writer)
          ?snapshot_every:c.Crash.snapshot_every c
      in
      D_wal.close writer;
      let bytes = D_wal.contents writer in
      let boundaries = D_wal.force_boundaries writer in
      let f = Follower.create ~policy () in
      let t_total = ref 0. in
      let max_lag = ref 0 in
      List.iter
        (fun (b : D_wal.boundary) ->
          let _, t =
            Util.time_ms (fun () ->
                Follower.catch_up f (String.sub bytes 0 b.D_wal.b_bytes))
          in
          t_total := !t_total +. t;
          let lag = live.E.stats.E.commits - Follower.commits_applied f in
          if lag > !max_lag then max_lag := lag;
          let _, _, certified = Follower.certify f in
          if not certified then follower_ok := false)
        boundaries;
      let full = D_rec.recover ~policy (D_wal.read_string bytes) in
      if
        D_rec.dump_string (Follower.store f)
        <> D_rec.dump_string full.D_rec.store
      then follower_ok := false;
      if Follower.read_view f <> live.E.final_state then follower_ok := false;
      let n_bounds = List.length boundaries in
      emit
        (Printf.sprintf
           "{\"experiment\":\"e24\",\"part\":\"follower\",\"policy\":\"%s\",\
            \"records\":%d,\"bytes\":%d,\"commits\":%d,\"boundaries\":%d,\
            \"catch_up_total_ms\":%.3f,\"catch_up_mean_ms\":%.3f,\
            \"max_lag_commits\":%d}"
           (E.policy_name policy)
           (D_wal.next_lsn writer)
           (String.length bytes) live.E.stats.E.commits n_bounds !t_total
           (!t_total /. float_of_int (max 1 n_bounds))
           !max_lag))
    E.all_policies;
  Util.row
    "follower certified at every boundary and converged to the live state: \
     %b@."
    !follower_ok;

  let oc = open_out "e24.json" in
  List.iter (fun r -> output_string oc (r ^ "\n")) (List.rev !json_rows);
  close_out oc;
  Util.row "@.rows written to e24.json@.";
  !identical && under_gate && !follower_ok
