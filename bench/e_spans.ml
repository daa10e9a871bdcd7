(* E25 — span instrumentation is pure accounting: blind vs fully
   instrumented runs are decision-identical and log-byte-identical.

   The whole observability layer rides the Sink noop discipline: a
   blind run pays one pattern match per instrumentation point and never
   reads the clock. Part 1 is the end-to-end version of that claim:
   for every policy, a blind leg (noop sink) and a spans leg (metrics +
   span ring threaded through the engine AND the WAL writer)
   must agree on stats, final state, acknowledged commits, and the
   exact WAL bytes — instrumentation that changed any of these would be
   a heisenberg layer, not an observer. The wall-clock overhead of the
   spans leg is reported next to the gate (minimum over paired passes,
   same estimator as E23/E24) but not gated: it is the price of
   *turning the layer on*, not of shipping it.

   Part 2 runs the full pipeline — engine with group-commit WAL, then
   a follower fed one force boundary at a time, all sharing one span
   ring — and gates the derived latency breakdown: every span closed,
   the span list structurally well-formed, one Latency record per
   transaction with submit <= commit <= durable <= replicated wherever
   the points exist, and exactly stats.commits transactions carrying a
   commit point. The three first-class histograms (commit latency,
   durability lag, replication lag) land in the JSON rows. *)

module E = Mvcc_engine.Engine
module D_wal = Mvcc_durable.Wal
module D_hook = Mvcc_durable.Hook
module Follower = Mvcc_durable.Follower
module Crash = Mvcc_durable.Crash
module Sink = Mvcc_obs.Sink
module Metrics = Mvcc_obs.Metrics
module Span = Mvcc_obs.Span
module Latency = Mvcc_obs.Latency

let minimum xs = List.fold_left min infinity xs

let cfg ~policy ~txns =
  {
    Crash.default with
    policy;
    seed = 25;
    txns;
    entities = 24;
    theta = 0.6;
    ops_per_txn = 6;
    snapshot_every = Some (max 2 (txns / 4));
  }

let run_leg ?obs ?wal ?wal_durable c =
  let programs = Crash.workload c in
  let initial =
    List.init c.Crash.entities (fun i -> (Printf.sprintf "e%d" i, 100))
  in
  E.run ~policy:c.Crash.policy ~initial ~programs ?obs ?wal ?wal_durable
    ?snapshot_every:c.Crash.snapshot_every ~seed:c.Crash.seed ()

(* One full pipeline pass: engine + group-commit WAL during the run,
   follower fed per force boundary after close, everything sharing
   [obs]. Returns the engine result, the writer, and the follower. *)
let pipeline ?(obs = Sink.noop) ~window c =
  let writer = D_wal.writer ~window ~obs () in
  let hook = D_hook.create writer in
  let r =
    run_leg ?obs:(if obs == Sink.noop then None else Some obs)
      ~wal:(D_hook.listener hook)
      ~wal_durable:(fun () -> D_wal.acked_commits writer)
      c
  in
  D_wal.close writer;
  let f = Follower.create ~policy:c.Crash.policy ~obs () in
  let bytes = D_wal.contents writer in
  List.iter
    (fun (b : D_wal.boundary) ->
      ignore (Follower.catch_up f (String.sub bytes 0 b.D_wal.b_bytes)))
    (D_wal.force_boundaries writer);
  ignore (Follower.catch_up f bytes);
  (r, writer, f)

let live_sink () =
  let spans = Span.create ~capacity:65536 () in
  (Sink.create ~metrics:(Metrics.create ()) ~spans (), spans)

let run ~passes =
  Util.section "E25  span instrumentation: invariance and latency breakdown";
  let json_rows = ref [] in
  let emit row =
    json_rows := row :: !json_rows;
    Util.row "  %s@." row
  in
  let invariant = ref true in
  let wellformed = ref true in

  Util.subsection "part 1: blind vs instrumented — decisions and log bytes";
  List.iter
    (fun policy ->
      let c = cfg ~policy ~txns:24 in
      let window = D_wal.window ~commits:8 () in
      let timings =
        List.init passes (fun _ ->
            let (blind, w_blind, _), t_blind =
              Util.time_ms (fun () -> pipeline ~window c)
            in
            let obs, spans = live_sink () in
            let (inst, w_inst, _), t_inst =
              Util.time_ms (fun () -> pipeline ~obs ~window c)
            in
            if
              blind.E.stats <> inst.E.stats
              || blind.E.final_state <> inst.E.final_state
              || blind.E.durable_commits <> inst.E.durable_commits
              || D_wal.contents w_blind <> D_wal.contents w_inst
            then invariant := false;
            let sl = Span.to_list spans in
            if Span.check sl <> None || Span.open_spans spans <> 0 then
              wellformed := false;
            (List.length sl, String.length (D_wal.contents w_inst), t_blind,
             t_inst))
      in
      let spans_n, bytes, _, _ = List.hd timings in
      let pick f = minimum (List.map f timings) in
      let t_blind = pick (fun (_, _, b, _) -> b)
      and t_inst = pick (fun (_, _, _, i) -> i) in
      emit
        (Printf.sprintf
           "{\"experiment\":\"e25\",\"part\":\"invariance\",\"policy\":\"%s\",\
            \"spans\":%d,\"wal_bytes\":%d,\"blind_ms\":%.3f,\
            \"instrumented_ms\":%.3f,\"overhead_pct\":%.1f}"
           (E.policy_name policy) spans_n bytes t_blind t_inst
           (100. *. (t_inst -. t_blind) /. t_blind)))
    E.all_policies;
  Util.row "spans never changed a decision or a log byte: %b@." !invariant;

  Util.subsection "part 2: pipeline latency breakdown per transaction";
  let ordered_ok = ref true in
  List.iter
    (fun policy ->
      let c = cfg ~policy ~txns:36 in
      let obs, spans = live_sink () in
      let r, _, f = pipeline ~obs ~window:(D_wal.window ~commits:4 ()) c in
      let sl = Span.to_list spans in
      (match Span.check sl with
      | None -> ()
      | Some reason ->
          wellformed := false;
          Util.row "  %s: malformed spans — %s@." (E.policy_name policy)
            reason);
      if Span.open_spans spans <> 0 then wellformed := false;
      let txns = Latency.per_txn sl in
      if not (Latency.ordered txns) then ordered_ok := false;
      let committed =
        List.length (List.filter (fun t -> t.Latency.t_commit <> None) txns)
      in
      if committed <> r.E.stats.E.commits then ordered_ok := false;
      let m = Metrics.create () in
      Latency.observe m txns;
      let s name =
        match Metrics.summary m name with
        | Some s -> Printf.sprintf "{\"count\":%d,\"p50\":%g,\"p95\":%g}"
                      s.Metrics.count s.Metrics.p50 s.Metrics.p95
        | None -> "{\"count\":0}"
      in
      emit
        (Printf.sprintf
           "{\"experiment\":\"e25\",\"part\":\"latency\",\"policy\":\"%s\",\
            \"txns\":%d,\"committed\":%d,\"replicated\":%d,\
            \"commit_latency\":%s,\"durability_lag\":%s,\
            \"replication_lag\":%s}"
           (E.policy_name policy) (List.length txns) committed
           (Follower.commits_applied f)
           (s "txn.commit-latency_s")
           (s "txn.durability-lag_s")
           (s "txn.replication-lag_s")))
    E.all_policies;
  Util.row "every span closed and structurally well-formed: %b@."
    !wellformed;
  Util.row "per-txn points ordered submit<=commit<=durable<=replicated: %b@."
    !ordered_ok;

  let oc = open_out "e25.json" in
  List.iter (fun r -> output_string oc (r ^ "\n")) (List.rev !json_rows);
  close_out oc;
  Util.row "@.rows written to e25.json@.";
  !invariant && !wellformed && !ordered_ok
