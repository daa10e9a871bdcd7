(* The mvcc command-line tool: classify schedules, check OLS, run the
   reduction pipeline, race the schedulers, and simulate the engine. *)

open Cmdliner
open Mvcc_core
module T = Mvcc_classes.Topography

let schedule_arg =
  let doc =
    "Schedule in the paper's notation, e.g. 'R1(x) W1(x) R2(x) W2(x)'. \
     Transaction subscripts are 1-based."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCHEDULE" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let policy_conv =
  Arg.enum
    (List.map
       (fun p -> (Mvcc_engine.Engine.policy_name p, p))
       Mvcc_engine.Engine.all_policies)

let policy_arg ~doc =
  Arg.(value & opt policy_conv Mvcc_engine.Engine.Mvto & info [ "policy" ] ~doc)

let cores_arg =
  Arg.(
    value & opt int 1
    & info [ "cores" ] ~docv:"N"
        ~doc:
          "Execution worker domains for the engine's sharded pipeline. 1 \
           (the default) is the sequential reference; higher counts defer \
           value computation to $(docv) worker domains replaying committed \
           transactions in dependency waves at batch boundaries. The \
           committed history, decisions, certificates, and WAL bytes are \
           identical at every setting.")

let client_queues_arg =
  Arg.(
    value & opt int 1
    & info [ "client-queues" ] ~docv:"N"
        ~doc:
          "Partitioned intake: deal the workload round-robin into $(docv) \
           client queues, build each queue's client records independently, \
           and merge deterministically back into submission order before \
           admission. The admitted batch — and so the whole run — is \
           identical at every queue count.")

let batch_conv =
  let parse s =
    if s = "auto" then Ok Mvcc_engine.Engine.Auto
    else
      match int_of_string_opt s with
      | Some n when n > 0 -> Ok (Mvcc_engine.Engine.Fixed n)
      | _ -> Error (`Msg "expected a positive integer or 'auto'")
  in
  let print ppf = function
    | Mvcc_engine.Engine.Auto -> Format.pp_print_string ppf "auto"
    | Mvcc_engine.Engine.Fixed n -> Format.pp_print_int ppf n
  in
  Arg.conv (parse, print) ~docv:"N|auto"

let batch_arg =
  Arg.(
    value
    & opt (some batch_conv) None
    & info [ "batch" ] ~docv:"N|auto"
        ~doc:
          "Execution-stage flush target with $(b,--cores) > 1: a fixed \
           batch size, or $(b,auto) to steer the target adaptively from \
           the observed batch shape (bounded, deterministic, exported as \
           the engine.stage.batch-target gauge). Default: 8 x cores. \
           Flush timing never changes decisions or WAL bytes.")

let ro_snapshot_arg =
  Arg.(
    value & flag
    & info [ "ro-snapshot" ]
        ~doc:
          "Route read-only transactions off the tick loop: each executes \
           atomically against a snapshot timestamp at a commit boundary \
           and commits on the spot, never blocking, aborting, or entering \
           certification. Changes scheduling, so compare runs with the \
           flag to a $(b,--cores) 1 run with the same flag.")

(* the banking workload simulate and timeline share: 8 accounts of 100,
   [readers] read-all auditors plus [writers] ring transfers *)
let banking_workload ~readers ~writers =
  let accounts = List.init 8 (fun i -> Printf.sprintf "acct%d" i) in
  let initial = List.map (fun a -> (a, 100)) accounts in
  let programs =
    List.init readers (fun i ->
        Mvcc_engine.Program.read_all
          ~label:(Printf.sprintf "audit%d" i)
          accounts)
    @ List.init writers (fun i ->
          Mvcc_engine.Program.transfer
            ~label:(Printf.sprintf "xfer%d" i)
            ~from_:(List.nth accounts (i mod 8))
            ~to_:(List.nth accounts ((i + 1) mod 8))
            10)
  in
  (accounts, initial, programs)

(* classify *)

let classify_cmd =
  let run text =
    let s = Schedule.of_string text in
    Format.printf "%a" Mvcc_classes.Report.pp (Mvcc_classes.Report.make s)
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify a schedule into the Fig. 1 regions")
    Term.(const run $ schedule_arg)

(* dot export *)

let dot_cmd =
  let kind_arg =
    Arg.(
      value
      & opt (enum [ ("conflict", `Conflict); ("mvcg", `Mvcg) ]) `Mvcg
      & info [ "graph" ] ~doc:"Which graph: 'conflict' or 'mvcg'.")
  in
  let run kind text =
    let s = Schedule.of_string text in
    let g =
      match kind with
      | `Conflict -> Conflict.graph s
      | `Mvcg -> Conflict.mv_graph s
    in
    print_string
      (Mvcc_graph.Dot.to_dot
         ~name:(match kind with `Conflict -> "conflict" | `Mvcg -> "mvcg")
         ~node_label:(fun i -> "T" ^ string_of_int (i + 1))
         g)
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Export a schedule's (multiversion) conflict graph as DOT")
    Term.(const run $ kind_arg $ schedule_arg)

(* switching path (Theorem 2) *)

let switch_cmd =
  let run text =
    let s = Schedule.of_string text in
    match Mvcc_classes.Switching.path_to_serial s with
    | None ->
        Format.printf
          "no serial schedule is reachable by switching non-conflicting \
           adjacent steps (the schedule is not MVCSR)@."
    | Some path ->
        Format.printf "%d switches:@." (List.length path - 1);
        List.iter (fun t -> Format.printf "  %a@." Schedule.pp t) path
  in
  Cmd.v
    (Cmd.info "switch"
       ~doc:
         "Show a Theorem 2 switching sequence from a schedule to a serial \
          one")
    Term.(const run $ schedule_arg)

(* fig1 *)

let fig1_cmd =
  let run () =
    Format.printf "Fig. 1 example schedules:@.";
    List.iter
      (fun (name, claimed, s) ->
        let m = T.classify s in
        let r = T.region m in
        Format.printf "@.%s: %a@.  %a@.  region: %s%s@." name Schedule.pp s
          T.pp_membership m (T.region_name r)
          (if r = claimed then "" else "  (EXPECTED: " ^ T.region_name claimed ^ ")"))
      T.fig1_examples
  in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Print and verify the paper's Fig. 1 examples")
    Term.(const run $ const ())

(* ols *)

let ols_cmd =
  let schedules_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"SCHEDULES" ~doc:"Two or more schedules.")
  in
  let run texts =
    let schedules = List.map Schedule.of_string texts in
    match Mvcc_ols.Ols.check schedules with
    | None -> Format.printf "OLS: yes@."
    | Some { Mvcc_ols.Ols.prefix; members } ->
        Format.printf "OLS: no@.";
        Format.printf "conflicting prefix: %a@." Schedule.pp prefix;
        List.iter (fun m -> Format.printf "  member: %a@." Schedule.pp m) members
  in
  Cmd.v
    (Cmd.info "ols"
       ~doc:"Decide on-line schedulability of a set of schedules (Section 4)")
    Term.(const run $ schedules_arg)

(* reduction demo *)

let reduction_cmd =
  let vars_arg =
    Arg.(value & opt int 2 & info [ "vars" ] ~doc:"Number of variables.")
  in
  let clauses_arg =
    Arg.(value & opt int 2 & info [ "clauses" ] ~doc:"Number of clauses.")
  in
  let run vars clauses seed =
    let rng = Random.State.make [| seed |] in
    let f =
      Mvcc_workload.Polygraph_gen.random_monotone ~n_vars:vars
        ~n_clauses:clauses rng
    in
    Format.printf "formula    : %a@." Mvcc_sat.Monotone.pp f;
    let sat = Mvcc_sat.Dpll.satisfiable (Mvcc_sat.Monotone.to_cnf f) in
    Format.printf "satisfiable: %b (DPLL)@." sat;
    let layout = Mvcc_polygraph.Sat_to_polygraph.reduce f in
    let p = layout.Mvcc_polygraph.Sat_to_polygraph.polygraph in
    Format.printf "polygraph  : %d nodes, %d arcs, %d choices@." p.n
      (List.length p.arcs) (List.length p.choices);
    let acyclic = Mvcc_polygraph.Acyclicity.is_acyclic p in
    Format.printf "acyclic    : %b (backtracking solver)@." acyclic;
    let acyclic_sat = Mvcc_polygraph.Sat_encoding.is_acyclic_sat p in
    Format.printf "acyclic    : %b (order-encoding + DPLL)@." acyclic_sat;
    if sat = acyclic && acyclic = acyclic_sat then
      Format.printf "reduction agrees on all three routes.@."
    else Format.printf "MISMATCH -- this is a bug.@."
  in
  Cmd.v
    (Cmd.info "reduction"
       ~doc:
         "Run the satisfiability -> polygraph acyclicity reduction on a \
          random restricted formula")
    Term.(const run $ vars_arg $ clauses_arg $ seed_arg)

(* schedulers *)

let schedulers_cmd =
  let run text =
    let s = Schedule.of_string text in
    let scheds =
      [
        Mvcc_sched.Serial_sched.scheduler;
        Mvcc_sched.Two_pl.scheduler;
        Mvcc_sched.Tso.scheduler;
        Mvcc_sched.Sgt.scheduler;
        Mvcc_sched.Two_v2pl.scheduler;
        Mvcc_sched.Mvto.scheduler;
        Mvcc_sched.Si.scheduler;
        Mvcc_sched.Mvcg_sched.scheduler;
        Mvcc_ols.Maximal.mvcsr_maximal;
        Mvcc_ols.Maximal.mvsr_maximal;
      ]
    in
    Format.printf "schedule: %a@." Schedule.pp s;
    List.iter
      (fun sched ->
        let o = Mvcc_sched.Driver.run sched s in
        Format.printf "%-14s: %s (%d/%d steps)@."
          sched.Mvcc_sched.Scheduler.name
          (if o.Mvcc_sched.Driver.accepted then "accept" else "reject")
          o.Mvcc_sched.Driver.accepted_steps (Schedule.length s))
      scheds
  in
  Cmd.v
    (Cmd.info "schedulers"
       ~doc:"Feed a schedule to every scheduler and report the verdicts")
    Term.(const run $ schedule_arg)

(* explain *)

let explain_cmd =
  let module P = Mvcc_provenance in
  let fig1_arg =
    Arg.(
      value & flag
      & info [ "fig1" ]
          ~doc:
            "Explain the paper's six Fig. 1 example schedules instead of a \
             positional schedule.")
  in
  let dot_arg =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:
            "On a cycle rejection, also print the (multiversion) conflict \
             graph as DOT with the offending cycle's arcs labelled.")
  in
  let schedule_opt =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SCHEDULE"
          ~doc:"Schedule in the paper's notation (omit with $(b,--fig1)).")
  in
  let module D = Mvcc_analysis.Decider in
  let module Ctx = Mvcc_analysis.Ctx in
  (* Every registered decider over ONE shared context per schedule, plus
     the SAT cross-check route (which shares the context's polygraph). *)
  let deciders c =
    List.map
      (fun d -> (D.name d, fun () -> D.decide d c))
      Mvcc_classes.Deciders.all
    @ [ ("VSR/sat", fun () -> Mvcc_classes.Vsr.decide_sat_ctx c) ]
  in
  let explain_one ~dot s =
    let c = Ctx.make s in
    let all_confirmed = ref true in
    List.iter
      (fun (name, decide) ->
        let verdict, w = decide () in
        let outcome = P.Checker.check s w in
        if outcome = P.Checker.Refuted then all_confirmed := false;
        Format.printf "  %-8s %-3s  %a  [checker: %s]@." name
          (if verdict then "yes" else "no")
          P.Witness.pp w
          (P.Checker.outcome_name outcome);
        match w.P.Witness.evidence with
        | P.Witness.Reject_cycle arcs
          when dot && (name = "CSR" || name = "MVCSR") ->
            let g =
              if name = "CSR" then Ctx.conflict_graph c else Ctx.mv_graph c
            in
            print_string
              (Mvcc_graph.Dot.to_dot
                 ~name:(String.lowercase_ascii name)
                 ~node_label:(fun i -> "T" ^ string_of_int (i + 1))
                 ~edge_label:(fun u v ->
                   if List.mem (u, v) arcs then Some "cycle" else None)
                 g)
        | _ -> ())
      (deciders c);
    !all_confirmed
  in
  let run fig1 dot text =
    let schedules =
      if fig1 then List.map (fun (n, _, s) -> (n, s)) T.fig1_examples
      else
        match text with
        | Some t -> [ ("schedule", Schedule.of_string t) ]
        | None ->
            prerr_endline "explain: need a SCHEDULE argument or --fig1";
            exit 2
    in
    let results =
      List.map
        (fun (n, s) ->
          Format.printf "%s: %a@." n Schedule.pp s;
          explain_one ~dot s)
        schedules
    in
    if List.exists not results then begin
      prerr_endline "explain: a certificate was REFUTED by the checker";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Decide every serializability class with a witness certificate, \
          re-verified by the independent checker")
    Term.(const run $ fig1_arg $ dot_arg $ schedule_opt)

(* census *)

let census_cmd =
  let txns_arg =
    Arg.(value & opt int 3 & info [ "txns" ] ~doc:"Transactions per schedule.")
  in
  let entities_arg =
    Arg.(value & opt int 2 & info [ "entities" ] ~doc:"Entities.")
  in
  let max_steps_arg =
    Arg.(
      value & opt int 3
      & info [ "max-steps" ] ~doc:"Maximum steps per transaction.")
  in
  let samples_arg =
    Arg.(value & opt int 1000 & info [ "samples" ] ~doc:"Schedules to draw.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the classification sweep. The output is \
             identical for every job count (generation is sequential and \
             seeded; classification is pure).")
  in
  let run txns entities max_steps samples jobs seed =
    let params =
      {
        Mvcc_workload.Schedule_gen.default with
        n_txns = txns;
        n_entities = entities;
        min_steps = 1;
        max_steps;
      }
    in
    let rng = Random.State.make [| seed |] in
    let schedules = Mvcc_workload.Schedule_gen.sample params rng samples in
    let pool = Mvcc_exec.Pool.create ~jobs in
    let regions =
      Mvcc_exec.Pool.map pool
        (fun s ->
          T.region (T.classify_ctx (Mvcc_analysis.Ctx.make s)))
        schedules
    in
    List.iteri
      (fun i (s, r) ->
        Format.printf "%4d  %-34s  %s@." i (Schedule.to_string s)
          (T.region_name r))
      (List.combine schedules regions);
    let count r = List.length (List.filter (( = ) r) regions) in
    Format.printf "---@.";
    List.iter
      (fun r -> Format.printf "%-34s %d@." (T.region_name r) (count r))
      [
        T.Outside_mvsr; T.Mvsr_only; T.Vsr_not_mvcsr; T.Mvcsr_not_vsr;
        T.Vsr_and_mvcsr_not_csr; T.Csr_not_serial; T.Serial;
      ]
  in
  Cmd.v
    (Cmd.info "census"
       ~doc:
         "Classify a random sample of schedules into the Fig. 1 regions, \
          optionally across multiple domains ($(b,--jobs))")
    Term.(
      const run $ txns_arg $ entities_arg $ max_steps_arg $ samples_arg
      $ jobs_arg $ seed_arg)

(* simulate and replay *)

(* The engine and log flags of a banking run. [simulate] records a run
   from them and [replay] rebuilds it from the same flags, so both
   commands parse one record and run it through one [run_banking].
   [--snapshot-every] is simulate's alone: a checkpoint record names the
   snapshot file, so a replayed log (written elsewhere) could not match
   the recorded one byte for byte. *)
type banking = {
  policy : Mvcc_engine.Engine.policy;
  cores : int;
  client_queues : int;
  batch : Mvcc_engine.Engine.batch option;
  ro_snapshot : bool;
  readers : int;
  writers : int;
  certify : bool;
  wal : string option;
  group_commit : int option;
  seed : int;
}

let banking_term =
  let readers_arg =
    Arg.(value & opt int 6 & info [ "readers" ] ~doc:"Analytics transactions.")
  in
  let writers_arg =
    Arg.(value & opt int 3 & info [ "writers" ] ~doc:"Transfer transactions.")
  in
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Issue a serializability certificate for the committed history \
             and re-verify it with the independent checker; exit non-zero \
             if the checker refutes it.")
  in
  let wal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"FILE"
          ~doc:
            "Write a CRC-framed write-ahead log of the run to $(docv); \
             $(b,recover) rebuilds the committed state and history from \
             it (or any crash-truncated prefix).")
  in
  let group_commit_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "group-commit" ] ~docv:"N"
          ~doc:
            "With $(b,--wal FILE), group commit: force the log every \
             $(docv) commits instead of after every record. Commits are \
             acknowledged as durable only when their batch is forced; \
             the run reports how many were acknowledged by the end. \
             $(docv)=1 reproduces the flush-per-record log byte for byte.")
  in
  let make policy cores client_queues batch ro_snapshot readers writers
      certify wal group_commit seed =
    {
      policy; cores; client_queues; batch; ro_snapshot; readers; writers;
      certify; wal; group_commit; seed;
    }
  in
  Term.(
    const make
    $ policy_arg ~doc:"Concurrency control policy."
    $ cores_arg $ client_queues_arg $ batch_arg $ ro_snapshot_arg
    $ readers_arg $ writers_arg $ certify_arg $ wal_arg $ group_commit_arg
    $ seed_arg)

(* Run [b]'s banking workload through [obs], logging to [wal_path] when
   given (the writer shares [obs], so --stats snapshots include the
   durable counters and a --trace ring the wal.* spans). Returns the
   accounts, the engine result, and the still-open writer with its
   hook. *)
let run_banking ?snapshot_every b ~obs ~wal_path =
  let accounts, initial, programs =
    banking_workload ~readers:b.readers ~writers:b.writers
  in
  let prov =
    if b.certify then Some (Mvcc_provenance.Log.create ()) else None
  in
  let window =
    Option.map (fun n -> Mvcc_durable.Wal.window ~commits:n ()) b.group_commit
  in
  let hook =
    Option.map
      (fun file ->
        let writer = Mvcc_durable.Wal.writer ~path:file ?window ~obs () in
        ( writer,
          Mvcc_durable.Hook.create ~snapshot_path:(file ^ ".snap") writer ))
      wal_path
  in
  let r =
    Mvcc_engine.Engine.run ~policy:b.policy ~initial ~programs ~obs ?prov
      ?wal:(Option.map (fun (_, h) -> Mvcc_durable.Hook.listener h) hook)
      ?wal_durable:
        (Option.map
           (fun (writer, _) () -> Mvcc_durable.Wal.acked_commits writer)
           hook)
      ?snapshot_every ~cores:b.cores
      ~client_queues:b.client_queues ?batch:b.batch ~ro_snapshot:b.ro_snapshot
      ~seed:b.seed ()
  in
  (accounts, r, hook)

(* The --trace ring. Its clock is a counter, so the recorded span lines
   are a pure function of the run and replay can compare them byte for
   byte. *)
let trace_ring () =
  Mvcc_obs.Span.create ~capacity:65536
    ~clock:(Mvcc_obs.Span.counter_clock ()) ()

let simulate_cmd =
  let snapshot_every_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "With $(b,--wal FILE), snapshot the version chains to \
             $(i,FILE).snap every $(docv) commits and log a checkpoint, \
             so recovery can replay only the log tail.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Collect metrics during the run and print the snapshot as a \
             JSON object: commits, aborts by reason, delays, and (under \
             sgt) certification cost and latency quantiles.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record the run's spans (transactions, attempts with their \
             abort reasons, op/commit/delay/certification points, \
             provenance decisions, WAL appends and forces) and write them \
             to $(docv) as JSON-lines; $(b,replay) re-checks them.")
  in
  let run b snapshot_every stats trace_file =
    let metrics =
      if stats then Some (Mvcc_obs.Metrics.create ()) else None
    in
    let spans = Option.map (fun _ -> trace_ring ()) trace_file in
    let obs =
      if stats || trace_file <> None then
        Mvcc_obs.Sink.create ?metrics ?spans ()
      else Mvcc_obs.Sink.noop
    in
    let accounts, r, hook =
      run_banking ?snapshot_every b ~obs ~wal_path:b.wal
    in
    Format.printf "policy=%s %a@."
      (Mvcc_engine.Engine.policy_name b.policy)
      Mvcc_engine.Engine.pp_stats r.Mvcc_engine.Engine.stats;
    (match r.Mvcc_engine.Engine.provenance with
    | Some (history, w) ->
        Format.printf "history: %d committed steps@." (Schedule.length history);
        Format.printf "witness: %a@." Mvcc_provenance.Witness.pp w;
        let o = Mvcc_provenance.Checker.check history w in
        Format.printf "checker: %s@." (Mvcc_provenance.Checker.outcome_name o);
        if o = Mvcc_provenance.Checker.Refuted then exit 1
    | None -> ());
    let total =
      List.fold_left (fun acc (_, v) -> acc + v) 0
        r.Mvcc_engine.Engine.final_state
    in
    Format.printf "total balance: %d (expected %d)@." total
      (100 * List.length accounts);
    (* the engine stops only when every program committed or the tick
       budget ran out, so a short commit count means the latter *)
    let stats = r.Mvcc_engine.Engine.stats in
    let n = b.readers + b.writers in
    if stats.Mvcc_engine.Engine.commits < n then
      Format.printf
        "truncated: %d of %d transactions uncommitted at max_ticks=%d@."
        (n - stats.Mvcc_engine.Engine.commits)
        n stats.Mvcc_engine.Engine.ticks;
    (match (hook, b.wal) with
    | Some (writer, h), Some file ->
        (match (b.group_commit, r.Mvcc_engine.Engine.durable_commits) with
        | Some _, Some acked ->
            Format.printf
              "group commit: %d/%d commits acknowledged at run end (%d \
               forces); closing forces the open batch@."
              acked r.Mvcc_engine.Engine.stats.Mvcc_engine.Engine.commits
              (Mvcc_durable.Wal.forces writer)
        | _ -> ());
        Mvcc_durable.Wal.close writer;
        Format.printf "wal: %d records to %s (%d snapshot(s)%s)@."
          (Mvcc_durable.Wal.next_lsn writer)
          file
          (List.length (Mvcc_durable.Hook.snapshots h))
          (if Mvcc_durable.Hook.snapshots h <> [] then
             " to " ^ file ^ ".snap"
           else "")
    | _ -> ());
    (* after the close: the final force's counters belong in the snapshot *)
    (match metrics with
    | Some m -> print_endline (Mvcc_obs.Metrics.to_json m)
    | None -> ());
    match (trace_file, spans) with
    | Some file, Some ring ->
        let oc = open_out file in
        Mvcc_obs.Span.write_jsonl oc ring;
        close_out oc;
        Format.printf "trace: %d spans to %s (%d dropped)@."
          (List.length (Mvcc_obs.Span.to_list ring))
          file
          (Mvcc_obs.Span.dropped ring)
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run a banking workload through the storage engine")
    Term.(
      const run $ banking_term $ snapshot_every_arg $ stats_arg $ trace_arg)

let replay_cmd =
  let trace_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Span JSON-lines captured by $(b,simulate --trace); pass the \
             same engine and log flags the recording was made with (a \
             recording made with $(b,--snapshot-every) cannot be \
             replayed).")
  in
  let run b trace_file =
    let ic = open_in trace_file in
    let recorded, rstats = Mvcc_obs.Span.read_jsonl ic in
    close_in ic;
    (* rebuild the run: same flags, same seed, a fresh ring; a logged
       run writes to a scratch file so the recorded log is left alone *)
    let ring = trace_ring () in
    let obs = Mvcc_obs.Sink.create ~spans:ring () in
    let wal_path =
      Option.map (fun _ -> Filename.temp_file "mvcc_replay" ".wal") b.wal
    in
    let _, r, hook = run_banking b ~obs ~wal_path in
    Option.iter (fun (writer, _) -> Mvcc_durable.Wal.close writer) hook;
    Option.iter
      (fun file ->
        List.iter
          (fun f -> if Sys.file_exists f then Sys.remove f)
          [ file; file ^ ".snap" ])
      wal_path;
    let replayed = Mvcc_obs.Span.to_list ring in
    let lines = List.map Mvcc_obs.Span.to_json in
    let rec_lines = lines recorded and rep_lines = lines replayed in
    Format.printf "recorded: %d spans (%d unparseable line(s) skipped%s)@."
      (List.length recorded) rstats.Mvcc_obs.Jsonl.skipped
      (if rstats.Mvcc_obs.Jsonl.torn_tail then ", torn final line dropped"
       else "");
    Format.printf "replayed: %d spans@." (List.length replayed);
    let spans_match = rec_lines = rep_lines in
    if spans_match then Format.printf "spans   : byte-for-byte identical@."
    else begin
      Format.printf "spans   : MISMATCH@.";
      let rec first_diff i = function
        | a :: tl, b :: tl' ->
            if a <> b then
              Format.printf
                "  first divergence at span %d:@.  recorded: %s@.  \
                 replayed: %s@."
                i a b
            else first_diff (i + 1) (tl, tl')
        | a :: _, [] -> Format.printf "  recorded has extra span %d: %s@." i a
        | [], b :: _ -> Format.printf "  replayed has extra span %d: %s@." i b
        | [], [] -> ()
      in
      first_diff 0 (rec_lines, rep_lines)
    end;
    (* cross-check the decisions the recording implies against the
       replayed run's stats: a "commit" point per commit, an attempt
       span closed with outcome "abort" per abort *)
    let count f =
      List.length (List.filter (fun (s : Mvcc_obs.Span.span) -> f s) recorded)
    in
    let commits_rec = count (fun s -> s.name = "commit")
    and aborts_rec =
      count (fun s ->
          s.name = "attempt"
          && List.assoc_opt "outcome" s.attrs
             = Some (Mvcc_obs.Json.Str "abort"))
    in
    let st = r.Mvcc_engine.Engine.stats in
    Format.printf "commits : recorded %d, replayed %d@." commits_rec
      st.Mvcc_engine.Engine.commits;
    Format.printf "aborts  : recorded %d, replayed %d@." aborts_rec
      st.Mvcc_engine.Engine.aborts;
    let ok =
      spans_match
      && commits_rec = st.Mvcc_engine.Engine.commits
      && aborts_rec = st.Mvcc_engine.Engine.aborts
    in
    if not ok then begin
      prerr_endline "replay: reconstruction does not match the recorded trace";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Rebuild an engine run from the flags it was recorded with and \
          verify the replayed spans match the recorded trace byte-for-byte")
    Term.(const run $ banking_term $ trace_arg)

(* recover *)

(* Jsonl damage marker shared by the recover and follow state lines:
   mid-file skips are "suspicious anywhere" (they can hide a commit
   record), so the state a consumer scrapes carries the warning inline
   instead of only in the log summary line. Empty for a clean log, so
   follow-vs-recover state diffs still agree byte for byte. *)
let suspicion (st : Mvcc_obs.Jsonl.stats) =
  if st.Mvcc_obs.Jsonl.skipped = 0 && not st.Mvcc_obs.Jsonl.torn_tail then ""
  else
    Printf.sprintf " [suspect: %d mid-file skip(s)%s]"
      st.Mvcc_obs.Jsonl.skipped
      (if st.Mvcc_obs.Jsonl.torn_tail then ", torn tail" else "")

let recover_cmd =
  let module D = Mvcc_durable in
  let policy_arg =
    policy_arg ~doc:"Concurrency control policy the log was written under."
  in
  let wal_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "wal" ] ~docv:"FILE"
          ~doc:"Write-ahead log captured by $(b,simulate --wal).")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Recover from this snapshot plus the log tail instead of \
             replaying the whole log. The recovered store is identical \
             either way; the history and witness cover only the tail, so \
             no certificate is issued.")
  in
  let dump_arg =
    Arg.(
      value & flag
      & info [ "dump" ]
          ~doc:"Also print the recovered version chains, one entity per line.")
  in
  let run policy wal_file snapshot_file dump =
    let read = D.Wal.read_file wal_file in
    let snapshot =
      Option.map
        (fun f ->
          match D.Snapshot.read_file f with
          | Some s -> s
          | None ->
              Printf.eprintf "recover: %s is not a valid snapshot\n" f;
              exit 2)
        snapshot_file
    in
    let r = D.Recovery.recover ~policy ?snapshot read in
    Format.printf "log     : %d valid records, %d skipped%s@."
      (List.length read.D.Wal.records)
      read.D.Wal.stats.Mvcc_obs.Jsonl.skipped
      (if read.D.Wal.stats.Mvcc_obs.Jsonl.torn_tail then
         ", torn final record dropped"
       else "");
    (match snapshot with
    | Some s ->
        Format.printf "snapshot: lsn %d (%d commits), tail replayed@."
          s.D.Snapshot.lsn s.D.Snapshot.commits
    | None -> ());
    Format.printf "commits : %d recovered [%s]@."
      (List.length r.D.Recovery.commit_order)
      (String.concat " " (List.map string_of_int r.D.Recovery.commit_order));
    Format.printf "undone  : %d in-flight [%s]@."
      (List.length r.D.Recovery.undone)
      (String.concat " " (List.map string_of_int r.D.Recovery.undone));
    if r.D.Recovery.cascaded <> [] then
      Format.printf "cascaded: %d committed-but-lost [%s]@."
        (List.length r.D.Recovery.cascaded)
        (String.concat " " (List.map string_of_int r.D.Recovery.cascaded));
    Format.printf "state   : %s%s@."
      (String.concat ", "
         (List.map
            (fun (e, v) -> Printf.sprintf "%s=%d" e v)
            r.D.Recovery.state))
      (suspicion read.D.Wal.stats);
    if dump then
      Format.printf "chains  :@.%s@." (D.Recovery.dump_string r.D.Recovery.store);
    match r.D.Recovery.witness with
    | None -> Format.printf "witness : none (tail recovery)@."
    | Some w ->
        Format.printf "history : %d committed steps@."
          (Schedule.length r.D.Recovery.history);
        Format.printf "witness : %a@." Mvcc_provenance.Witness.pp w;
        let o = Mvcc_provenance.Checker.check r.D.Recovery.history w in
        Format.printf "checker : %s@." (Mvcc_provenance.Checker.outcome_name o);
        if o = Mvcc_provenance.Checker.Refuted then exit 1
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Rebuild committed state and history from a write-ahead log (or \
          snapshot + tail), certified by the independent checker")
    Term.(const run $ policy_arg $ wal_arg $ snapshot_arg $ dump_arg)

(* follow *)

let follow_cmd =
  let module D = Mvcc_durable in
  let policy_arg =
    policy_arg ~doc:"Concurrency control policy the log is written under."
  in
  let wal_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "wal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead log to ship from — typically one being written \
             by $(b,simulate --wal) with group commit, so the file only \
             ever holds forced batches.")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Catch up on the file's current contents and stop instead of \
             polling for growth.")
  in
  let poll_arg =
    Arg.(
      value & opt int 50
      & info [ "poll-ms" ] ~docv:"MS" ~doc:"Polling interval while tailing.")
  in
  let idle_arg =
    Arg.(
      value & opt int 20
      & info [ "idle-polls" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) consecutive polls with no new bytes — the \
             leader has gone quiet.")
  in
  let dump_arg =
    Arg.(
      value & flag
      & info [ "dump" ]
          ~doc:"Also print the replica's version chains, one entity per line.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Keep an OpenMetrics exposition of the follower's counters \
             and gauges (records/commits applied, snapshot ts, ingest \
             latency) in $(docv), rewritten atomically — point a \
             Prometheus-family scraper at it. Written at exit, and \
             during tailing per $(b,--stats-every).")
  in
  let stats_every_arg =
    Arg.(
      value & opt int 0
      & info [ "stats-every" ] ~docv:"N"
          ~doc:
            "With $(b,--metrics FILE), also rewrite the exposition every \
             $(docv) applied records while tailing (0 = only at exit).")
  in
  let run policy wal_file once poll_ms idle_polls dump metrics_file
      stats_every =
    let metrics = Option.map (fun _ -> Mvcc_obs.Metrics.create ()) metrics_file in
    let obs =
      match metrics with
      | Some m -> Mvcc_obs.Sink.create ~metrics:m ()
      | None -> Mvcc_obs.Sink.noop
    in
    let f = D.Follower.create ~policy ~obs () in
    let written_at = ref 0 in
    let write_metrics () =
      match (metrics_file, metrics) with
      | Some file, Some m ->
          Mvcc_obs.Openmetrics.write_file file m;
          written_at := D.Follower.records_applied f
      | _ -> ()
    in
    let maybe_write_metrics () =
      if
        stats_every > 0
        && D.Follower.records_applied f - !written_at >= stats_every
      then write_metrics ()
    in
    let poll () =
      let n =
        if Sys.file_exists wal_file then D.Follower.catch_up_file f wal_file
        else 0
      in
      maybe_write_metrics ();
      n
    in
    let applied = poll () in
    if not once then begin
      if applied > 0 then
        Format.printf "caught up: %d records (%d commits, snapshot ts %d)@."
          applied
          (D.Follower.commits_applied f)
          (D.Follower.snapshot_ts f);
      let idle = ref 0 in
      while !idle < idle_polls do
        Unix.sleepf (float_of_int poll_ms /. 1000.);
        let n = poll () in
        if n > 0 then begin
          idle := 0;
          Format.printf "shipped: %d records (%d commits, snapshot ts %d)@."
            n
            (D.Follower.commits_applied f)
            (D.Follower.snapshot_ts f)
        end
        else incr idle
      done
    end;
    let st = D.Follower.stats f in
    Format.printf "log     : %d records ingested, %d skipped%s@."
      (D.Follower.records_applied f)
      st.Mvcc_obs.Jsonl.skipped
      (if st.Mvcc_obs.Jsonl.torn_tail then ", torn final record pending"
       else "");
    let r = D.Follower.state f in
    Format.printf "commits : %d recovered [%s]@."
      (List.length r.D.Recovery.commit_order)
      (String.concat " " (List.map string_of_int r.D.Recovery.commit_order));
    Format.printf "state   : %s%s@."
      (String.concat ", "
         (List.map
            (fun (e, v) -> Printf.sprintf "%s=%d" e v)
            (D.Follower.read_view f)))
      (suspicion st);
    if dump then
      Format.printf "chains  :@.%s@."
        (D.Recovery.dump_string (D.Follower.store f));
    Format.printf "reads   : served at lagging snapshot ts %d (%d bytes \
                   ingested)@."
      (D.Follower.snapshot_ts f)
      (D.Follower.ingested_bytes f);
    let _, w, ok = D.Follower.certify f in
    Format.printf "witness : %a@." Mvcc_provenance.Witness.pp w;
    Format.printf "checker : %s@."
      (if ok then "confirmed — replica reads are read-consistent"
       else "REFUTED");
    write_metrics ();
    (match metrics_file with
    | Some file -> Format.printf "metrics : OpenMetrics exposition in %s@." file
    | None -> ());
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "follow"
       ~doc:
         "Log-shipping follower: tail a write-ahead log, incrementally \
          replay it (recovery-in-a-loop), and serve reads at a lagging \
          snapshot timestamp certified read-consistent by the independent \
          checker")
    Term.(
      const run $ policy_arg $ wal_arg $ once_arg $ poll_arg $ idle_arg
      $ dump_arg $ metrics_arg $ stats_every_arg)

(* timeline *)

let timeline_cmd =
  let module D = Mvcc_durable in
  let module O = Mvcc_obs in
  let policy_arg = policy_arg ~doc:"Concurrency control policy." in
  let readers_arg =
    Arg.(value & opt int 4 & info [ "readers" ] ~doc:"Analytics transactions.")
  in
  let writers_arg =
    Arg.(value & opt int 4 & info [ "writers" ] ~doc:"Transfer transactions.")
  in
  let group_commit_arg =
    Arg.(
      value & opt int 3
      & info [ "group-commit" ] ~docv:"N"
          ~doc:
            "Group-commit window: force the log every $(docv) commits, so \
             the durability lag between commit and acknowledgement is \
             visible in the waterfall.")
  in
  let width_arg =
    Arg.(
      value & opt int 64
      & info [ "width" ] ~docv:"COLS"
          ~doc:"Columns the waterfall bars are scaled into.")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Export the spans as Chrome trace-event JSON to $(docv) — \
             load it in chrome://tracing or Perfetto for the interactive \
             version of the waterfall.")
  in
  let spans_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spans" ] ~docv:"FILE"
          ~doc:"Write the raw spans to $(docv) as JSON-lines.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write an OpenMetrics exposition of the run's counters, \
             gauges, and the three derived latency histograms to $(docv).")
  in
  let run policy cores readers writers group_commit width chrome_file
      spans_file metrics_file seed =
    let width = max 16 width in
    (* the simulate banking workload, instrumented end to end: engine
       spans and WAL-writer spans share one ring during the run; the
       follower is then fed the log force-boundary by force-boundary, so
       every replicated point lands after every durable ack and the
       waterfall shows the full submit -> commit -> durable -> replicated
       pipeline per transaction *)
    let _accounts, initial, programs = banking_workload ~readers ~writers in
    let metrics = O.Metrics.create () in
    let spans = O.Span.create ~capacity:65536 () in
    let obs = O.Sink.create ~metrics ~spans () in
    let writer =
      D.Wal.writer ~window:(D.Wal.window ~commits:group_commit ()) ~obs ()
    in
    let hook = D.Hook.create writer in
    let r =
      Mvcc_engine.Engine.run ~policy ~initial ~programs ~obs
        ~wal:(D.Hook.listener hook)
        ~wal_durable:(fun () -> D.Wal.acked_commits writer)
        ~cores ~seed ()
    in
    D.Wal.close writer;
    let f = D.Follower.create ~policy ~obs () in
    let log = D.Wal.contents writer in
    List.iter
      (fun (b : D.Wal.boundary) ->
        ignore (D.Follower.catch_up f (String.sub log 0 b.D.Wal.b_bytes)))
      (D.Wal.force_boundaries writer);
    ignore (D.Follower.catch_up f log);
    let sl = O.Span.to_list spans in
    let txns = O.Latency.per_txn sl in
    O.Latency.observe metrics txns;
    Format.printf "policy=%s %a@."
      (Mvcc_engine.Engine.policy_name policy)
      Mvcc_engine.Engine.pp_stats r.Mvcc_engine.Engine.stats;
    (match r.Mvcc_engine.Engine.durable_commits with
    | Some acked ->
        Format.printf
          "group commit: %d/%d acknowledged at run end, %d forces; follower \
           replayed %d commits@."
          acked r.Mvcc_engine.Engine.stats.Mvcc_engine.Engine.commits
          (D.Wal.forces writer)
          (D.Follower.commits_applied f)
    | None -> ());
    let pretty_ns ns =
      if ns >= 1_000_000 then Printf.sprintf "%.2fms" (float_of_int ns /. 1e6)
      else if ns >= 1_000 then Printf.sprintf "%.1fus" (float_of_int ns /. 1e3)
      else Printf.sprintf "%dns" ns
    in
    let t_min =
      List.fold_left (fun a (t : O.Latency.txn) -> min a t.t_submit) max_int
        txns
    in
    let t_max =
      List.fold_left
        (fun a (t : O.Latency.txn) ->
          List.fold_left
            (fun a p -> match p with Some x -> max a x | None -> a)
            (max a t.t_submit)
            [ t.t_commit; t.t_durable; t.t_replicated ])
        0 txns
    in
    let col t =
      if t_max <= t_min then 0 else (t - t_min) * (width - 1) / (t_max - t_min)
    in
    if txns <> [] then begin
      Format.printf
        "@.waterfall (%s total; '=' submit->commit, '.' ->durable D, '~' \
         ->replicated R):@."
        (pretty_ns (t_max - t_min));
      List.iter
        (fun (t : O.Latency.txn) ->
          let label =
            match List.nth_opt programs t.txn with
            | Some p -> p.Mvcc_engine.Program.label
            | None -> Printf.sprintf "txn%d" t.txn
          in
          let bar = Bytes.make width ' ' in
          let fill a b c =
            for i = col a to col b do
              Bytes.set bar i c
            done
          in
          let detail =
            match t.t_commit with
            | None ->
                fill t.t_submit t_max '-';
                "did not commit"
            | Some tc ->
                fill t.t_submit tc '=';
                let lag =
                  match t.t_durable with
                  | None -> "  durable: after close"
                  | Some td ->
                      fill tc td '.';
                      Bytes.set bar (col td) 'D';
                      Printf.sprintf "  +durable %s" (pretty_ns (td - tc))
                in
                let rep =
                  match t.t_replicated with
                  | None -> ""
                  | Some tr ->
                      (match t.t_durable with
                      | Some td -> fill td tr '~'
                      | None -> fill tc tr '~');
                      Bytes.set bar (col tr) 'R';
                      Printf.sprintf "  +replica %s" (pretty_ns (tr - tc))
                in
                Printf.sprintf "commit %s%s%s  (%d attempt%s)"
                  (pretty_ns (tc - t.t_submit))
                  lag rep t.attempts
                  (if t.attempts = 1 then "" else "s")
          in
          Format.printf "  %-8s |%s| %s@." label (Bytes.to_string bar) detail)
        txns
    end;
    Format.printf "@.";
    let pretty_s x = pretty_ns (int_of_float ((x *. 1e9) +. 0.5)) in
    List.iter
      (fun name ->
        match O.Metrics.summary metrics name with
        | Some s ->
            Format.printf
              "%-21s: count %d  p50 %s  p95 %s  p99 %s  max %s@." name
              s.O.Metrics.count (pretty_s s.O.Metrics.p50)
              (pretty_s s.O.Metrics.p95) (pretty_s s.O.Metrics.p99)
              (pretty_s s.O.Metrics.max)
        | None -> Format.printf "%-21s: no samples@." name)
      [ "txn.commit-latency_s"; "txn.durability-lag_s"; "txn.replication-lag_s" ];
    Format.printf "spans                : %d recorded, %d dropped@."
      (List.length sl) (O.Span.dropped spans);
    (match O.Span.check sl with
    | None -> ()
    | Some reason -> Format.printf "spans                : MALFORMED — %s@." reason);
    (match chrome_file with
    | Some file ->
        O.Chrome_trace.write_file file sl;
        Format.printf "chrome trace         : %s@." file
    | None -> ());
    (match spans_file with
    | Some file ->
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> O.Span.write_jsonl oc spans);
        Format.printf "span jsonl           : %s@." file
    | None -> ());
    match metrics_file with
    | Some file ->
        O.Openmetrics.write_file file metrics;
        Format.printf "openmetrics          : %s@." file
    | None -> ()
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Run the banking workload through the whole commit pipeline \
          (engine, group-commit WAL, log-shipping follower) with \
          per-transaction spans, and render the submit/commit/durable/\
          replicated waterfall plus the three derived latency histograms; \
          optionally export Chrome trace-event JSON, raw spans, and an \
          OpenMetrics exposition")
    Term.(
      const run $ policy_arg $ cores_arg $ readers_arg $ writers_arg
      $ group_commit_arg $ width_arg $ chrome_arg $ spans_arg $ metrics_arg
      $ seed_arg)

(* crash *)

let crash_cmd =
  let module D = Mvcc_durable in
  let policy_arg = policy_arg ~doc:"Concurrency control policy." in
  let points_arg =
    Arg.(
      value & opt int 100
      & info [ "points" ] ~docv:"N" ~doc:"Crash points to inject.")
  in
  let point_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "point" ] ~docv:"K"
          ~doc:
            "Re-check only crash point $(docv) of the same seeded \
             sequence — the one-command reproduction for a reported \
             failure.")
  in
  let txns_arg =
    Arg.(value & opt int 8 & info [ "txns" ] ~doc:"Concurrent transactions.")
  in
  let entities_arg =
    Arg.(value & opt int 6 & info [ "entities" ] ~doc:"Entities.")
  in
  let theta_arg =
    Arg.(
      value & opt float 0.9
      & info [ "theta" ] ~doc:"Zipfian skew of entity selection.")
  in
  let ops_arg =
    Arg.(value & opt int 6 & info [ "ops" ] ~doc:"Operations per transaction.")
  in
  let snapshot_every_arg =
    Arg.(
      value
      & opt (some int) (Some 3)
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:"Commits between snapshots (0 disables snapshots).")
  in
  let group_commit_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "group-commit" ] ~docv:"N"
          ~doc:
            "Group-commit window: force the log every $(docv) commits \
             instead of every record, so crash points land both at batch \
             boundaries and mid-batch.")
  in
  let group_records_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "group-records" ] ~docv:"N"
          ~doc:"Additional group-commit threshold: force every $(docv) records.")
  in
  let run policy points point txns entities theta ops snapshot_every
      group_commit group_records seed =
    let window =
      match (group_records, group_commit) with
      | (None, None) -> None
      | (records, commits) -> Some (D.Wal.window ?records ?commits ())
    in
    let cfg =
      {
        D.Crash.policy;
        seed;
        txns;
        entities;
        theta;
        ops_per_txn = ops;
        snapshot_every =
          (match snapshot_every with Some 0 -> None | s -> s);
        window;
        points;
        only = point;
      }
    in
    let report = D.Crash.run cfg in
    Format.printf "%a@." D.Crash.pp_report report;
    if report.D.Crash.failures <> [] then begin
      let flag name = function
        | None -> ""
        | Some k -> Printf.sprintf " --%s %d" name k
      in
      List.iter
        (fun f ->
          if f.D.Crash.point >= 0 then
            Printf.eprintf
              "reproduce: mvcc crash --policy %s --seed %d --txns %d \
               --entities %d --theta %g --ops %d --snapshot-every %d%s%s \
               --points %d --point %d\n"
              (Mvcc_engine.Engine.policy_name policy)
              seed txns entities theta ops
              (Option.value ~default:0 snapshot_every)
              (flag "group-commit" group_commit)
              (flag "group-records" group_records)
              points f.D.Crash.point)
        report.D.Crash.failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "crash"
       ~doc:
         "Crash-injection harness: truncate a run's write-ahead log at \
          seeded-random record boundaries (torn tails included) and at \
          group-commit force boundaries, recover from each cut, and \
          property-check the result")
    Term.(
      const run $ policy_arg $ points_arg $ point_arg $ txns_arg
      $ entities_arg $ theta_arg $ ops_arg $ snapshot_every_arg
      $ group_commit_arg $ group_records_arg $ seed_arg)

let () =
  let info =
    Cmd.info "mvcc" ~version:"1.0.0"
      ~doc:
        "Multiversion concurrency control: serializability classes, OLS, \
         schedulers (Hadzilacos & Papadimitriou, PODS 1985)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            classify_cmd; fig1_cmd; ols_cmd; reduction_cmd; schedulers_cmd;
            simulate_cmd; dot_cmd; switch_cmd; explain_cmd; replay_cmd;
            census_cmd; recover_cmd; follow_cmd; timeline_cmd; crash_cmd;
          ]))
