(* E19 — observability: metric snapshots, instrumentation overhead, and
   decision invariance.

   Every engine policy runs the banking workload twice — once blind,
   once with a full sink (metrics + span ring) — and the two results
   must be structurally identical: observability must never change a
   decision. The instrumented run's metric snapshot is emitted as a
   JSON line next to the timing data, which is what future perf PRs
   report instead of bare wall-clock. The scheduler layer gets the same
   treatment on a random schedule across every online scheduler. *)

module E = Mvcc_engine.Engine
module P = Mvcc_engine.Program
module Metrics = Mvcc_obs.Metrics
module Span = Mvcc_obs.Span
module Sink = Mvcc_obs.Sink
module Driver = Mvcc_sched.Driver

let accounts = List.init 8 (fun i -> Printf.sprintf "acct%d" i)
let initial = List.map (fun a -> (a, 100)) accounts

let workload =
  List.init 6 (fun i ->
      P.read_all ~label:(Printf.sprintf "audit%d" i) accounts)
  @ List.init 4 (fun i ->
        P.transfer
          ~label:(Printf.sprintf "xfer%d" i)
          ~from_:(List.nth accounts (i mod 8))
          ~to_:(List.nth accounts ((i + 1) mod 8))
          10)

let schedulers =
  [
    Mvcc_sched.Serial_sched.scheduler; Mvcc_sched.Two_pl.scheduler;
    Mvcc_sched.Tso.scheduler; Mvcc_sched.Sgt.scheduler;
    Mvcc_sched.Two_v2pl.scheduler; Mvcc_sched.Mvto.scheduler;
    Mvcc_sched.Si.scheduler; Mvcc_sched.Mvcg_sched.scheduler;
    Mvcc_online.Sgt_inc.scheduler; Mvcc_online.Mvcg_inc.scheduler;
  ]

let same_outcome (a : Driver.outcome) (b : Driver.outcome) =
  a.Driver.accepted = b.Driver.accepted
  && a.Driver.accepted_steps = b.Driver.accepted_steps
  && Mvcc_core.Version_fn.equal a.Driver.version_fn b.Driver.version_fn

let run ~seeds =
  Util.section
    "E19  Observability: snapshots, overhead, decision invariance";
  let ok = ref true in
  let require name cond =
    if not cond then begin
      ok := false;
      Util.row "FAILED: %s@." name
    end
  in
  Util.row "%-5s %12s %12s  %s@." "" "blind(ms)" "instr(ms)"
    "snapshot (first seed)";
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          let blind, t_blind =
            Util.time_ms (fun () ->
                E.run ~policy ~initial ~programs:workload
                  ~crash_probability:0.01 ~seed ())
          in
          let metrics = Metrics.create () in
          let spans = Span.create ~capacity:4096 () in
          let obs = Sink.create ~metrics ~spans () in
          let seen, t_obs =
            Util.time_ms (fun () ->
                E.run ~policy ~obs ~initial ~programs:workload
                  ~crash_probability:0.01 ~seed ())
          in
          require
            (Printf.sprintf "%s seed %d invariant" (E.policy_name policy)
               seed)
            (blind = seen);
          require
            (Printf.sprintf "%s seed %d commits counted"
               (E.policy_name policy) seed)
            (Metrics.counter metrics "engine.commits"
            = seen.E.stats.E.commits);
          if seed = List.hd seeds then
            Util.row "%-5s %12.3f %12.3f  %s@." (E.policy_name policy)
              t_blind t_obs (Metrics.to_json metrics))
        seeds)
    E.all_policies;
  (* scheduler layer: instrumented Driver runs decide identically *)
  let rng = Util.rng 1900 in
  let s =
    Mvcc_workload.Schedule_gen.schedule
      { Mvcc_workload.Schedule_gen.default with n_txns = 6; n_entities = 3 }
      rng
  in
  List.iter
    (fun sched ->
      let metrics = Metrics.create () in
      let obs =
        Sink.create ~metrics ~spans:(Span.create ~capacity:256 ()) ()
      in
      let blind = Driver.run sched s in
      let seen = Driver.run ~obs sched s in
      require
        (Printf.sprintf "scheduler %s invariant"
           sched.Mvcc_sched.Scheduler.name)
        (same_outcome blind seen);
      require
        (Printf.sprintf "scheduler %s offers counted"
           sched.Mvcc_sched.Scheduler.name)
        (Metrics.counter metrics
           ("sched." ^ sched.Mvcc_sched.Scheduler.name ^ ".offered")
        > 0))
    schedulers;
  Util.row "@.engine + scheduler decisions: %s@."
    (if !ok then "identical with and without instrumentation"
     else "DIVERGED");
  !ok
