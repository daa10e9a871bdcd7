(* The mvcc command-line tool: classify schedules, check OLS, run the
   reduction pipeline, race the schedulers, and simulate the engine. *)

open Cmdliner
open Mvcc_core
module T = Mvcc_classes.Topography
module Engine = Mvcc_engine.Engine
module D = Mvcc_durable
module O = Mvcc_obs

let schedule_arg =
  let doc =
    "Schedule in the paper's notation, e.g. 'R1(x) W1(x) R2(x) W2(x)'. \
     Transaction subscripts are 1-based."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCHEDULE" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* The flag vocabulary. Each flag name is declared once: here when
   commands share it, in its command otherwise. A flag whose commands
   differ only in its default takes the default as an argument; one
   whose commands differ in requiredness or in whether its file must
   exist shares its [Arg.info]. *)

(* Count flags: a value below [lo] is a usage error rather than an
   exception deep inside the run. *)
let at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d" lo))
  in
  Arg.conv (parse, Format.pp_print_int) ~docv:"N"

(* Input files: [Arg.file]'s check, with its message for a missing
   path, and a directory is a usage error too rather than a [Sys_error]
   on the first read. *)
let input_file =
  let parse f =
    Result.bind (Arg.conv_parser Arg.file f) (fun f ->
        if Sys.is_directory f then
          Error (`Msg ("'" ^ f ^ "' is a directory"))
        else Ok f)
  in
  Arg.conv (parse, Format.pp_print_string) ~docv:"FILE"

let policy_conv =
  Arg.enum
    (List.map
       (fun p -> (Engine.policy_name p, p))
       Engine.all_policies)

let policy_arg =
  Arg.(
    value
    & opt policy_conv Engine.Mvto
    & info [ "policy" ]
        ~doc:
          "Concurrency control policy: the run's, or the one the log was \
           written under.")

let ro_snapshot_arg =
  Arg.(
    value & flag
    & info [ "ro-snapshot" ]
        ~doc:
          "Route read-only transactions off the tick loop: each executes \
           atomically against a snapshot timestamp at a commit boundary \
           and commits on the spot, never blocking, aborting, or entering \
           certification. Changes scheduling, so compare a run with the \
           flag only to another run with it.")

let readers_arg default =
  Arg.(
    value
    & opt (at_least 0) default
    & info [ "readers" ] ~doc:"Analytics transactions.")

let writers_arg default =
  Arg.(
    value
    & opt (at_least 0) default
    & info [ "writers" ] ~doc:"Transfer transactions.")

let group_commit_arg default =
  Arg.(
    value
    & opt (some (at_least 1)) default
    & info [ "group-commit" ] ~docv:"N"
        ~doc:
          "Group commit: force the log every $(docv) commits instead of \
           after every record. Commits are acknowledged as durable only \
           when their batch is forced, so the durability lag shows in the \
           $(b,timeline) waterfall and $(b,crash) points land both at \
           batch boundaries and mid-batch. $(docv)=1 reproduces the \
           flush-per-record log byte for byte. In $(b,simulate) and \
           $(b,replay) it needs a log file to group.")

let snapshot_every_arg default =
  Arg.(
    value
    & opt (some (at_least 0)) default
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "Snapshot the version chains every $(docv) commits and log a \
           checkpoint, so recovery can replay only the log tail; 0 \
           disables snapshots. $(b,simulate) needs a write-ahead log \
           $(i,FILE) with it and writes the snapshots to $(i,FILE).snap.")

(* simulate writes the log, recover reads it and follow tails one that
   may not exist yet: each picks its converter and requiredness *)
let wal_info =
  Arg.info [ "wal" ] ~docv:"FILE"
    ~doc:
      "The CRC-framed write-ahead log: $(b,simulate) writes the run's log \
       to $(docv), $(b,recover) rebuilds the committed state and history \
       from it (or any crash-truncated prefix), and $(b,follow) ships it \
       to a replica as it grows — typically while $(b,simulate) writes it \
       with group commit, so the file only ever holds forced batches."

(* simulate writes the trace, replay reads it *)
let trace_info =
  Arg.info [ "trace" ] ~docv:"FILE"
    ~doc:
      "The run's spans as JSON-lines (transactions, attempts with their \
       abort reasons, op/commit/delay/certification points, provenance \
       decisions, WAL appends and forces): $(b,simulate) records them to \
       $(docv), and $(b,replay) rebuilds the run from the same engine and \
       log flags and re-checks them (a recording made with \
       $(b,--snapshot-every) cannot be replayed)."

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write an OpenMetrics exposition of the counters and gauges to \
           $(docv), rewritten atomically: $(b,timeline) adds the three \
           derived latency histograms, and $(b,follow) rewrites it after \
           every poll that applied records as well as at exit, so a \
           Prometheus-family scraper can watch the replica.")

let dump_arg =
  Arg.(
    value & flag
    & info [ "dump" ]
        ~doc:"Also print the recovered version chains, one entity per line.")

let txns_arg default =
  Arg.(
    value
    & opt (at_least 0) default
    & info [ "txns" ] ~doc:"Transactions per census schedule or crash run.")

let entities_arg default =
  Arg.(value & opt (at_least 1) default & info [ "entities" ] ~doc:"Entities.")

(* the banking workload simulate and timeline share: 8 accounts of 100,
   [readers] read-all auditors plus [writers] ring transfers *)
let accounts = List.init 8 (fun i -> Printf.sprintf "acct%d" i)

let banking_programs ~readers ~writers =
  List.init readers (fun i ->
      Mvcc_engine.Program.read_all ~label:(Printf.sprintf "audit%d" i) accounts)
  @ List.init writers (fun i ->
        Mvcc_engine.Program.transfer
          ~label:(Printf.sprintf "xfer%d" i)
          ~from_:(List.nth accounts (i mod 8))
          ~to_:(List.nth accounts ((i + 1) mod 8))
          10)

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

(* a (multiversion) conflict graph as DOT, its nodes named T1, T2, ... *)
let print_dot ?edge_label name g =
  print_string
    (Mvcc_graph.Dot.to_dot ~name
       ~node_label:(fun i -> "T" ^ string_of_int (i + 1))
       ?edge_label g)

let dot_cmd =
  let graph_arg =
    Arg.(
      value
      & opt (enum [ ("conflict", "conflict"); ("mvcg", "mvcg") ]) "mvcg"
      & info [ "graph" ] ~doc:"Which graph: 'conflict' or 'mvcg'.")
  in
  let run name text =
    let s = Schedule.of_string text in
    print_dot name
      ((if name = "conflict" then Conflict.graph else Conflict.mv_graph) s)
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Export a schedule's (multiversion) conflict graph as DOT")
    Term.(const run $ graph_arg $ schedule_arg)

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
    Arg.(
      value
      & opt (at_least 1) 2
      & info [ "vars" ] ~doc:"Number of variables.")
  in
  let clauses_arg =
    Arg.(
      value
      & opt (at_least 0) 2
      & info [ "clauses" ] ~doc:"Number of clauses.")
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
            print_dot (String.lowercase_ascii name)
              ~edge_label:(fun u v ->
                if List.mem (u, v) arcs then Some "cycle" else None)
              (if name = "CSR" then Ctx.conflict_graph c else Ctx.mv_graph c)
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
  let max_steps_arg =
    Arg.(
      value
      & opt (at_least 1) 3
      & info [ "max-steps" ] ~doc:"Maximum steps per transaction.")
  in
  let samples_arg =
    Arg.(
      value
      & opt (at_least 0) 1000
      & info [ "samples" ] ~doc:"Schedules to draw.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (at_least 1) 1
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
      const run $ txns_arg 3 $ entities_arg 2 $ max_steps_arg $ samples_arg
      $ jobs_arg $ seed_arg)

(* simulate and replay *)

(* The engine and log flags of a banking run. [simulate] records a run
   from them and [replay] rebuilds it from the same flags, so both
   commands parse one record and run it through one [run_banking];
   [timeline] fills one in from its own flags.
   [--snapshot-every] is simulate's alone: a checkpoint record names the
   snapshot file, so a replayed log (written elsewhere) could not match
   the recorded one byte for byte. *)
type banking = {
  policy : Engine.policy;
  ro_snapshot : bool;
  readers : int;
  writers : int;
  certify : bool;
  wal : string option;
  group_commit : int option;
  seed : int;
}

let banking_term =
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Issue a serializability certificate for the committed history \
             and re-verify it with the independent checker; exit non-zero \
             if the checker refutes it.")
  in
  let make policy ro_snapshot readers writers certify wal group_commit seed =
    {
      policy; ro_snapshot; readers; writers; certify; wal; group_commit;
      seed;
    }
  in
  Term.(
    const make $ policy_arg $ ro_snapshot_arg $ readers_arg 6 $ writers_arg 3
    $ certify_arg
    $ Arg.(value & opt (some string) None & wal_info)
    $ group_commit_arg None $ seed_arg)

(* Where a run's log goes: a file, with its snapshots beside it, or
   memory alone (replay and timeline read the log's spans and bytes,
   not a file). *)
type log = File of string | Memory

(* Run [b]'s banking workload through [obs], logging to [log] when
   given (the writer shares [obs], so --stats snapshots include the
   durable counters and a --trace ring the wal.* spans). A log knob
   without a log would go unused, so it is an error. Returns the
   programs, the engine result, and the still-open writer with its
   hook. *)
let run_banking ?snapshot_every ?log b ~obs =
  let refuse flag =
    Printf.eprintf "mvcc: %s needs --wal FILE\n" flag;
    exit 2
  in
  if log = None && b.group_commit <> None then refuse "--group-commit";
  if log = None && snapshot_every <> None then refuse "--snapshot-every";
  let programs = banking_programs ~readers:b.readers ~writers:b.writers in
  let prov = if b.certify then Some (Mvcc_provenance.Log.create ()) else None in
  let window =
    Option.map (fun n -> D.Wal.window ~commits:n ()) b.group_commit
  in
  let hook =
    Option.map
      (fun log ->
        let path = match log with File f -> Some f | Memory -> None in
        let writer = D.Wal.writer ?path ?window ~obs () in
        let snapshot_path = Option.map (fun f -> f ^ ".snap") path in
        (writer, D.Hook.create ?snapshot_path writer))
      log
  in
  let r =
    Engine.run ~policy:b.policy
      ~initial:(List.map (fun a -> (a, 100)) accounts)
      ~programs ~obs ?prov
      ?wal:(Option.map (fun (_, h) -> D.Hook.listener h) hook)
      ?wal_durable:
        (Option.map (fun (writer, _) () -> D.Wal.acked_commits writer) hook)
      ?snapshot_every ~ro_snapshot:b.ro_snapshot ~seed:b.seed ()
  in
  (programs, r, hook)

let print_stats b (r : Engine.result) =
  Format.printf "policy=%s %a@." (Engine.policy_name b.policy) Engine.pp_stats
    r.stats

let write_spans file ring =
  Out_channel.with_open_text file (fun oc -> O.Span.write_jsonl oc ring)

(* The --trace ring. Its clock is a counter, so the recorded span lines
   are a pure function of the run and replay can compare them byte for
   byte. *)
let trace_ring () =
  O.Span.create ~capacity:65536 ~clock:(O.Span.counter_clock ()) ()

(* one "label   : value" line of a report *)
let field ?(width = 8) label fmt =
  Format.printf ("%-*s: " ^^ fmt ^^ "@.") width label

let simulate_cmd =
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Collect metrics during the run and print the snapshot as a \
             JSON object: commits, aborts by reason, delays, and (under \
             sgt) certification cost and latency quantiles.")
  in
  let run b snapshot_every stats trace_file =
    let metrics = if stats then Some (O.Metrics.create ()) else None in
    let spans = Option.map (fun _ -> trace_ring ()) trace_file in
    let obs = O.Sink.create ?metrics ?spans () in
    let log = Option.map (fun f -> File f) b.wal in
    let _, r, hook = run_banking ?snapshot_every ?log b ~obs in
    print_stats b r;
    (match r.provenance with
    | Some (history, w) ->
        Format.printf "history: %d committed steps@." (Schedule.length history);
        Format.printf "witness: %a@." Mvcc_provenance.Witness.pp w;
        let o = Mvcc_provenance.Checker.check history w in
        Format.printf "checker: %s@." (Mvcc_provenance.Checker.outcome_name o);
        if o = Mvcc_provenance.Checker.Refuted then exit 1
    | None -> ());
    let total = List.fold_left (fun acc (_, v) -> acc + v) 0 r.final_state in
    Format.printf "total balance: %d (expected %d)@." total
      (100 * List.length accounts);
    (* the engine stops only when every program committed or the tick
       budget ran out, so a short commit count means the latter *)
    let n = b.readers + b.writers in
    if r.stats.commits < n then
      Format.printf
        "truncated: %d of %d transactions uncommitted at max_ticks=%d@."
        (n - r.stats.commits) n r.stats.ticks;
    Option.iter
      (fun (writer, h) ->
        (match (b.group_commit, r.durable_commits) with
        | Some _, Some acked ->
            Format.printf
              "group commit: %d/%d commits acknowledged at run end (%d \
               forces); closing forces the open batch@."
              acked r.stats.commits (D.Wal.forces writer)
        | _ -> ());
        D.Wal.close writer;
        let file = Option.get b.wal and snapshots = D.Hook.snapshots h in
        Format.printf "wal: %d records to %s (%d snapshot(s)%s)@."
          (D.Wal.next_lsn writer) file (List.length snapshots)
          (if snapshots <> [] then " to " ^ file ^ ".snap" else ""))
      hook;
    (* after the close: the final force's counters belong in the snapshot *)
    Option.iter (fun m -> print_endline (O.Metrics.to_json m)) metrics;
    match (trace_file, spans) with
    | Some file, Some ring ->
        write_spans file ring;
        Format.printf "trace: %d spans to %s (%d dropped)@."
          (List.length (O.Span.to_list ring))
          file (O.Span.dropped ring)
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run a banking workload through the storage engine")
    Term.(
      const run $ banking_term $ snapshot_every_arg None $ stats_arg
      $ Arg.(value & opt (some string) None & trace_info))

let replay_cmd =
  let run b trace_file =
    let recorded, rstats =
      In_channel.with_open_text trace_file O.Span.read_jsonl
    in
    (* rebuild the run: same flags, same seed, a fresh ring; a logged
       run logs to memory so the recorded log is left alone *)
    let ring = trace_ring () in
    let obs = O.Sink.create ~spans:ring () in
    let _, r, hook =
      run_banking ?log:(Option.map (fun _ -> Memory) b.wal) b ~obs
    in
    Option.iter (fun (writer, _) -> D.Wal.close writer) hook;
    let replayed = O.Span.to_list ring in
    let lines = List.map O.Span.to_json in
    let rec_lines = lines recorded and rep_lines = lines replayed in
    field "recorded" "%d spans (%d unparseable line(s) skipped%s)"
      (List.length recorded) rstats.skipped
      (if rstats.torn_tail then ", torn final line dropped" else "");
    field "replayed" "%d spans" (List.length replayed);
    let spans_match = rec_lines = rep_lines in
    if spans_match then field "spans" "byte-for-byte identical"
    else begin
      field "spans" "MISMATCH";
      let rec first_diff i = function
        | a :: tl, b :: tl' when a = b -> first_diff (i + 1) (tl, tl')
        | a :: _, b :: _ ->
            Format.printf
              "  first divergence at span %d:@.  recorded: %s@.  replayed: \
               %s@."
              i a b
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
      List.length (List.filter (fun (s : O.Span.span) -> f s) recorded)
    in
    let commits_rec = count (fun s -> s.name = "commit")
    and aborts_rec =
      count (fun s ->
          s.name = "attempt"
          && List.assoc_opt "outcome" s.attrs = Some (O.Json.Str "abort"))
    in
    field "commits" "recorded %d, replayed %d" commits_rec r.stats.commits;
    field "aborts" "recorded %d, replayed %d" aborts_rec r.stats.aborts;
    if
      not
        (spans_match
        && commits_rec = r.stats.commits
        && aborts_rec = r.stats.aborts)
    then begin
      prerr_endline "replay: reconstruction does not match the recorded trace";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Rebuild an engine run from the flags it was recorded with and \
          verify the replayed spans match the recorded trace byte-for-byte")
    Term.(
      const run $ banking_term
      $ Arg.(required & opt (some input_file) None & trace_info))

(* recover and follow *)

(* Jsonl damage marker shared by the recover and follow state lines:
   mid-file skips are "suspicious anywhere" (they can hide a commit
   record), so the state a consumer scrapes carries the warning inline
   instead of only in the log summary line. Empty for a clean log, so
   follow-vs-recover state diffs still agree byte for byte. *)
let suspicion (st : O.Jsonl.stats) =
  if st.skipped = 0 && not st.torn_tail then ""
  else
    Printf.sprintf " [suspect: %d mid-file skip(s)%s]" st.skipped
      (if st.torn_tail then ", torn tail" else "")

(* "N what [t1 t2 ...]" over transaction ids *)
let listed what ids =
  Printf.sprintf "%d %s [%s]" (List.length ids) what
    (String.concat " " (List.map string_of_int ids))

(* The lines recover and follow share over a recovered view [r]: its
   commit order, the [in_flight] lines, its state with [stats]'s damage
   marker, the chains under [dump], the [notes], and the certificate (a
   witness with the checker's verdict; none after a tail recovery). *)
let print_recovered ?(in_flight = []) ?(notes = []) ~dump ~stats
    (r : D.Recovery.t) certificate =
  let lines = List.iter (fun (label, text) -> field label "%s" text) in
  lines (("commits", listed "recovered" r.commit_order) :: in_flight);
  field "state" "%s%s"
    (String.concat ", "
       (List.map (fun (e, v) -> Printf.sprintf "%s=%d" e v) r.state))
    (suspicion stats);
  if dump then
    Format.printf "chains  :@.%s@." (D.Recovery.dump_string r.store);
  lines notes;
  match certificate with
  | None -> field "witness" "none (tail recovery)"
  | Some (w, verdict) ->
      field "witness" "%a" Mvcc_provenance.Witness.pp w;
      field "checker" "%s" verdict

let recover_cmd =
  let module C = Mvcc_provenance.Checker in
  (* the snapshot is parsed in its converter, so a file that is not one
     (a directory included) is a usage error like a missing file *)
  let snapshot_conv =
    let parse f =
      Result.bind (Arg.conv_parser Arg.file f) (fun f ->
          match D.Snapshot.read_file f with
          | Some s -> Ok (f, s)
          | None | (exception Sys_error _) ->
              Error (`Msg (f ^ " is not a valid snapshot")))
    in
    Arg.conv (parse, fun ppf (f, _) -> Format.pp_print_string ppf f)
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some snapshot_conv) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Recover from this snapshot plus the log tail instead of \
             replaying the whole log. The recovered store is identical \
             either way; the history and witness cover only the tail, so \
             no certificate is issued.")
  in
  let run policy wal_file snapshot dump =
    let read = D.Wal.read_file wal_file in
    let snapshot = Option.map snd snapshot in
    let r = D.Recovery.recover ~policy ?snapshot read in
    field "log" "%d valid records, %d skipped%s"
      (List.length read.records) read.stats.skipped
      (if read.stats.torn_tail then ", torn final record dropped" else "");
    Option.iter
      (fun (s : D.Snapshot.t) ->
        field "snapshot" "lsn %d (%d commits), tail replayed" s.lsn s.commits)
      snapshot;
    let checked = Option.map (fun w -> (w, C.check r.history w)) r.witness in
    let history =
      Printf.sprintf "%d committed steps" (Schedule.length r.history)
    in
    print_recovered ~dump ~stats:read.stats r
      ~in_flight:
        (("undone", listed "in-flight" r.undone)
        :: (if r.cascaded = [] then []
            else [ ("cascaded", listed "committed-but-lost" r.cascaded) ]))
      ~notes:(if checked = None then [] else [ ("history", history) ])
      (Option.map (fun (w, o) -> (w, C.outcome_name o)) checked);
    if Option.map snd checked = Some C.Refuted then exit 1
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Rebuild committed state and history from a write-ahead log (or \
          snapshot + tail), certified by the independent checker")
    Term.(
      const run $ policy_arg
      $ Arg.(required & opt (some input_file) None & wal_info)
      $ snapshot_arg $ dump_arg)

let follow_cmd =
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
      value
      & opt (at_least 0) 50
      & info [ "poll-ms" ] ~docv:"MS" ~doc:"Polling interval while tailing.")
  in
  let idle_arg =
    Arg.(
      value
      & opt (at_least 0) 20
      & info [ "idle-polls" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) consecutive polls with no new bytes — the \
             leader has gone quiet.")
  in
  let run policy wal_file once poll_ms idle_polls dump metrics_file =
    let exposition =
      Option.map (fun file -> (file, O.Metrics.create ())) metrics_file
    in
    let obs = O.Sink.create ?metrics:(Option.map snd exposition) () in
    let f = D.Follower.create ~policy ~obs () in
    let write_metrics () =
      Option.iter (fun (file, m) -> O.Openmetrics.write_file file m) exposition
    in
    (* the exposition follows every poll that moved the replica, so a
       scraper sees it advance while tailing *)
    let poll () =
      let n =
        if Sys.file_exists wal_file then D.Follower.catch_up_file f wal_file
        else 0
      in
      if n > 0 then write_metrics ();
      n
    in
    let progress what n =
      if n > 0 then
        Format.printf "%s: %d records (%d commits, snapshot ts %d)@." what n
          (D.Follower.commits_applied f)
          (D.Follower.snapshot_ts f)
    in
    let applied = poll () in
    if not once then begin
      progress "caught up" applied;
      let idle = ref 0 in
      while !idle < idle_polls do
        Unix.sleepf (float_of_int poll_ms /. 1000.);
        let n = poll () in
        progress "shipped" n;
        if n > 0 then idle := 0 else incr idle
      done
    end;
    let st = D.Follower.stats f in
    field "log" "%d records ingested, %d skipped%s"
      (D.Follower.records_applied f)
      st.skipped
      (if st.torn_tail then ", torn final record pending" else "");
    let _, w, ok = D.Follower.certify f in
    let reads =
      Printf.sprintf "served at lagging snapshot ts %d (%d bytes ingested)"
        (D.Follower.snapshot_ts f)
        (D.Follower.ingested_bytes f)
    in
    (* the state and chains are what the replica serves, not a rebuild *)
    let served =
      { (D.Follower.state f) with
        state = D.Follower.read_view f; store = D.Follower.store f }
    in
    print_recovered ~dump ~stats:st served ~notes:[ ("reads", reads) ]
      (Some
         ( w,
           if ok then "confirmed — replica reads are read-consistent"
           else "REFUTED" ));
    write_metrics ();
    Option.iter (field "metrics" "OpenMetrics exposition in %s") metrics_file;
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
      const run $ policy_arg
      $ Arg.(required & opt (some string) None & wal_info)
      $ once_arg $ poll_arg $ idle_arg $ dump_arg $ metrics_arg)

(* timeline *)

let timeline_cmd =
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
  let run policy readers writers group_commit width chrome_file
      spans_file metrics_file seed =
    let width = max 16 width in
    (* the simulate banking workload, instrumented end to end: engine
       spans and WAL-writer spans share one ring during the run; the
       follower is then fed the log force-boundary by force-boundary, so
       every replicated point lands after every durable ack and the
       waterfall shows the full submit -> commit -> durable -> replicated
       pipeline per transaction *)
    let b =
      {
        policy; ro_snapshot = false; readers; writers; certify = false;
        wal = None; group_commit; seed;
      }
    in
    let metrics = O.Metrics.create () in
    let spans = O.Span.create ~capacity:65536 () in
    let obs = O.Sink.create ~metrics ~spans () in
    let programs, r, hook = run_banking ~log:Memory b ~obs in
    let writer, _ = Option.get hook in
    D.Wal.close writer;
    let f = D.Follower.create ~policy ~obs () in
    let log = D.Wal.contents writer in
    List.iter
      (fun (b : D.Wal.boundary) ->
        ignore (D.Follower.catch_up f (String.sub log 0 b.b_bytes)))
      (D.Wal.force_boundaries writer);
    ignore (D.Follower.catch_up f log);
    let sl = O.Span.to_list spans in
    let txns = O.Latency.per_txn sl in
    O.Latency.observe metrics txns;
    print_stats b r;
    Option.iter
      (fun acked ->
        Format.printf
          "group commit: %d/%d acknowledged at run end, %d forces; follower \
           replayed %d commits@."
          acked r.stats.commits (D.Wal.forces writer)
          (D.Follower.commits_applied f))
      r.durable_commits;
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
      List.fold_left max 0
        (List.concat_map
           (fun (t : O.Latency.txn) ->
             t.t_submit
             :: List.filter_map Fun.id
                  [ t.t_commit; t.t_durable; t.t_replicated ])
           txns)
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
                      fill (Option.value t.t_durable ~default:tc) tr '~';
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
    let line label = field ~width:21 label in
    let pretty_s x = pretty_ns (int_of_float ((x *. 1e9) +. 0.5)) in
    List.iter
      (fun name ->
        match O.Metrics.summary metrics name with
        | Some s ->
            line name "count %d  p50 %s  p95 %s  p99 %s  max %s" s.count
              (pretty_s s.p50) (pretty_s s.p95) (pretty_s s.p99)
              (pretty_s s.max)
        | None -> line name "no samples")
      [ "txn.commit-latency_s"; "txn.durability-lag_s"; "txn.replication-lag_s" ];
    line "spans" "%d recorded, %d dropped" (List.length sl)
      (O.Span.dropped spans);
    Option.iter (line "spans" "MALFORMED — %s") (O.Span.check sl);
    let export label write =
      Option.iter (fun file ->
          write file;
          line label "%s" file)
    in
    export "chrome trace" (fun file -> O.Chrome_trace.write_file file sl)
      chrome_file;
    export "span jsonl" (fun file -> write_spans file spans) spans_file;
    export "openmetrics" (fun file -> O.Openmetrics.write_file file metrics)
      metrics_file
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
      const run $ policy_arg $ readers_arg 4 $ writers_arg 4
      $ group_commit_arg (Some 3) $ width_arg $ chrome_arg $ spans_arg
      $ metrics_arg $ seed_arg)

(* crash *)

let crash_cmd =
  let points_arg =
    Arg.(
      value
      & opt (at_least 0) 100
      & info [ "points" ] ~docv:"N" ~doc:"Crash points to inject.")
  in
  let point_arg =
    let point =
      Arg.(
        value
        & opt (some (at_least 0)) None
        & info [ "point" ] ~docv:"K"
            ~doc:
              "Re-check only crash point $(docv) of the same seeded \
               sequence — the one-command reproduction for a reported \
               failure. $(docv) must be below $(b,--points).")
    in
    (* a point outside the sequence would check nothing and pass *)
    let within points = function
      | Some k when k >= points ->
          Error
            (`Msg
              (Printf.sprintf "--point %d is not below --points %d" k points))
      | point -> Ok point
    in
    Term.(term_result ~usage:true (const within $ points_arg $ point))
  in
  let theta_arg =
    Arg.(
      value & opt float 0.9
      & info [ "theta" ] ~doc:"Zipfian skew of entity selection.")
  in
  let ops_arg =
    Arg.(
      value
      & opt (at_least 0) 6
      & info [ "ops" ] ~doc:"Operations per transaction.")
  in
  let group_records_arg =
    Arg.(
      value
      & opt (some (at_least 1)) None
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
              (Engine.policy_name policy)
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
      const run $ policy_arg $ points_arg $ point_arg $ txns_arg 8
      $ entities_arg 6 $ theta_arg $ ops_arg $ snapshot_every_arg (Some 3)
      $ group_commit_arg None $ group_records_arg $ seed_arg)

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
