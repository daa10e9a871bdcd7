(* E26 — the BOHM-style sharded pipeline: identity and throughput.

   Part 1 gates the refactor's non-negotiable invariant end to end: for
   every policy and every cores setting, a run with GC, checkpoints,
   group commit, and provenance attached must match the cores=1
   sequential reference on stats, final state, acknowledged commits,
   the certificate over the committed history, and the exact WAL bytes.
   The pipeline moves *when values are computed*, never *what is
   decided* — any drift here is a bug, not a trade-off.

   Part 2 measures what the parallel execution stage buys on a
   contended Zipfian workload whose writes carry real transaction-logic
   cost (Program.Mix — an xorshift loop standing in for the predicate
   evaluation / tuple assembly a real engine does per operation). The
   gate asks for committed-txn throughput to increase from cores=1 to
   cores=4 for at least one policy. Two honest caveats the numbers
   carry: the deferred path also skips evaluating aborted attempts
   (BOHM's lazy-execution win — sequential runs pay compute for work
   they throw away), and tick-measured latencies are identical across
   cores by construction, so only wall-clock moves. *)

module E = Mvcc_engine.Engine
module P = Mvcc_engine.Program
module D_wal = Mvcc_durable.Wal
module D_hook = Mvcc_durable.Hook
module Sink = Mvcc_obs.Sink
module Metrics = Mvcc_obs.Metrics

let minimum xs = List.fold_left min infinity xs
let cores_list = [ 1; 2; 4 ]
let n_entities = 16
let initial = List.init n_entities (fun i -> (Printf.sprintf "e%d" i, 100))

(* read two distinct Zipfian-hot entities, then rewrite both through a
   [Mix] of the values read — every transaction contends on the hot
   keys and pays [rounds] of compute per write *)
let workload ~txns ~rounds ~seed =
  let rng = Random.State.make [| seed; 0x26 |] in
  let zipf = Mvcc_workload.Zipf.make ~n:n_entities ~theta:0.8 in
  let ename k = Printf.sprintf "e%d" k in
  List.init txns (fun i ->
      let a = ename (Mvcc_workload.Zipf.sample zipf rng) in
      let rec other () =
        let e = ename (Mvcc_workload.Zipf.sample zipf rng) in
        if e = a then other () else e
      in
      let b = other () in
      {
        P.label = Printf.sprintf "t%d" i;
        ops =
          [
            P.Read a;
            P.Read b;
            P.Write (a, P.Mix (rounds, P.Add (P.Reg a, P.Reg b)));
            P.Write (b, P.Mix (rounds, P.Sub (P.Reg b, P.Const (i + 1))));
          ];
      })

let run ~passes =
  Util.section "E26  sharded pipeline: cores identity and throughput";
  let json_rows = ref [] in
  let emit row =
    json_rows := row :: !json_rows;
    Util.row "  %s@." row
  in
  let quick = passes <= 3 in

  Util.subsection "part 1: identity — decisions, certificates, log bytes";
  let identical = ref true in
  List.iter
    (fun policy ->
      (* light compute: part 1 gates equality, not speed *)
      let programs = workload ~txns:24 ~rounds:1_000 ~seed:26 in
      let leg cores =
        let writer = D_wal.writer ~window:(D_wal.window ~commits:8 ()) () in
        let hook = D_hook.create writer in
        let prov = Mvcc_provenance.Log.create () in
        let r =
          E.run ~policy ~initial ~programs ~gc:true ~prov
            ~wal:(D_hook.listener hook)
            ~wal_durable:(fun () -> D_wal.acked_commits writer)
            ~snapshot_every:6 ~cores ~seed:26 ()
        in
        D_wal.close writer;
        (r, D_wal.contents writer)
      in
      let r1, w1 = leg 1 in
      List.iter
        (fun cores ->
          let rc, wc = leg cores in
          let same =
            r1.E.stats = rc.E.stats
            && r1.E.final_state = rc.E.final_state
            && r1.E.durable_commits = rc.E.durable_commits
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
               "{\"experiment\":\"e26\",\"part\":\"identity\",\
                \"policy\":\"%s\",\"cores\":%d,\"commits\":%d,\
                \"wal_bytes\":%d,\"identical\":%b}"
               (E.policy_name policy) cores rc.E.stats.E.commits
               (String.length wc) same))
        (List.filter (fun c -> c > 1) cores_list))
    E.all_policies;
  Util.row "identical decisions/certificates/log bytes at every cores: %b@."
    !identical;

  Util.subsection "part 2: throughput — Zipfian contention, Mix-loaded writes";
  let txns = if quick then 48 else 96 in
  let rounds = if quick then 120_000 else 200_000 in
  let speedup = ref false in
  List.iter
    (fun policy ->
      let programs = workload ~txns ~rounds ~seed:27 in
      (* settle on a (seed, tick budget) under which every transaction
         commits — S2PL otherwise burns the budget on deadlock
         victim/restart cycles and the row would report attrition (the
         old 8-of-96 rows), not committed throughput. Identity across
         cores means every timing leg below replays exactly this run. *)
      let r_ref, run_seed, run_ticks, tries =
        Util.run_to_completion ~n_txns:txns ~seed:27 (fun ~seed ~max_ticks ->
            E.run ~policy ~initial ~programs ~max_ticks ~cores:1 ~seed ())
      in
      let commits = r_ref.E.stats.E.commits in
      let time_at cores =
        minimum
          (List.init passes (fun _ ->
               snd
                 (Util.time_ms (fun () ->
                      E.run ~policy ~initial ~programs ~max_ticks:run_ticks
                        ~cores ~seed:run_seed ()))))
      in
      let tput =
        List.map
          (fun c -> (c, float_of_int commits /. (time_at c /. 1000.)))
          cores_list
      in
      let t1 = List.assoc 1 tput and t4 = List.assoc 4 tput in
      if t4 > t1 then speedup := true;
      (* stage shape, from one instrumented cores=4 leg: batches flushed
         and the dependency-wave depth the leveler found per batch *)
      let m = Metrics.create () in
      let obs = Sink.create ~metrics:m () in
      ignore
        (E.run ~policy ~initial ~programs ~obs ~max_ticks:run_ticks ~cores:4
           ~seed:run_seed ());
      let waves =
        match Metrics.summary m "engine.stage.waves" with
        | Some s ->
            Printf.sprintf "{\"batches\":%d,\"p50\":%g,\"p95\":%g}"
              s.Metrics.count s.Metrics.p50 s.Metrics.p95
        | None -> "{\"batches\":0}"
      in
      emit
        (Printf.sprintf
           "{\"experiment\":\"e26\",\"part\":\"throughput\",\
            \"policy\":\"%s\",\"txns\":%d,\"commits\":%d,\"rounds\":%d,\
            \"completion_tries\":%d,%s,\"speedup_c4\":%.2f,\"waves\":%s}"
           (E.policy_name policy) txns commits rounds tries
           (String.concat ","
              (List.map
                 (fun (c, t) -> Printf.sprintf "\"tput_c%d\":%.0f" c t)
                 tput))
           (t4 /. t1) waves))
    E.all_policies;
  Util.row "committed-txn throughput rises cores 1 -> 4 somewhere: %b@."
    !speedup;

  let oc = open_out "e26.json" in
  List.iter (fun r -> output_string oc (r ^ "\n")) (List.rev !json_rows);
  close_out oc;
  Util.row "@.rows written to e26.json@.";
  !identical && !speedup
