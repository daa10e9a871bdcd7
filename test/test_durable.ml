(* Tests for lib/durable: the WAL codec and its CRC framing, snapshots,
   recovery, and the crash-injection property over every policy. *)

module E = Mvcc_engine.Engine
module P = Mvcc_engine.Program
module Wal = Mvcc_durable.Wal
module Snapshot = Mvcc_durable.Snapshot
module Recovery = Mvcc_durable.Recovery
module Hook = Mvcc_durable.Hook
module Crash = Mvcc_durable.Crash
module Follower = Mvcc_durable.Follower
module Span = Mvcc_obs.Span
module Sink = Mvcc_obs.Sink

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -- WAL codec -- *)

(* Values span the whole int range: [Mix]-loaded workloads log 19-digit
   negatives, and the decoder must take [min_int]/[max_int] exactly. *)
let gen_int =
  QCheck2.Gen.(
    oneof [ oneofl [ min_int; max_int; 0; -1 ]; int_range (-50) 50; int ])

let gen_record =
  QCheck2.Gen.(
    let name =
      oneofl
        [ "x"; "acct0"; "nasty \"quoted\\name\""; "tab\tand\nnewline";
          "\001"; "ctl\031\127\255" ]
    in
    let src = oneofl [ Wal.From_init; Wal.From_self; Wal.From_txn 3; Wal.From_txn 17 ] in
    oneof
      [
        (let* entity = name and* value = gen_int in
         return (Wal.State { entity; value }));
        (let* txn = int_range 0 40 and* ts = gen_int in
         return (Wal.Begin { txn; ts }));
        (let* txn = int_range 0 40
         and* entity = name
         and* write = bool
         and* s = oneof [ src; map (fun w -> Wal.From_txn w) gen_int ] in
         return
           (Wal.Op { txn; entity; write; src = (if write then None else Some s) }));
        (let* txn = gen_int
         and* entity = name
         and* value = gen_int
         and* wts = gen_int in
         return (Wal.Install { txn; entity; value; wts }));
        (let* txn = gen_int in
         return (Wal.Commit { txn }));
        (let* txn = int_range 0 40 and* reason = name in
         return (Wal.Abort { txn; reason }));
        (let* snapshot = name and* commits = gen_int in
         return (Wal.Checkpoint { snapshot; commits }));
      ])

let gen_line =
  QCheck2.Gen.(
    let* lsn = oneof [ int_range 0 10_000; gen_int ] and* r = gen_record in
    return (lsn, r))

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"wal codec: decode inverts encode" ~count:300
    gen_line
    (fun (lsn, r) ->
      let line = Wal.encode ~lsn r in
      Wal.decode line = Some (lsn, r)
      && Wal.decode_sub ("x\n" ^ line ^ "\ny") ~pos:2
           ~len:(String.length line)
         = Some (lsn, r))

let prop_codec_rejects_tamper =
  QCheck2.Test.make ~name:"wal codec: any flipped byte fails the CRC"
    ~count:200
    QCheck2.Gen.(
      let* lsn, r = gen_line in
      let line = Wal.encode ~lsn r in
      let* pos = int_range 0 (String.length line - 1) in
      return (line, pos))
    (fun (line, pos) ->
      let tampered = Bytes.of_string line in
      Bytes.set tampered pos
        (Char.chr (Char.code (Bytes.get tampered pos) lxor 1));
      Wal.decode (Bytes.to_string tampered) = None)

(* what makes a parseable unterminated tail safe to consume early *)
let prop_codec_rejects_prefixes =
  QCheck2.Test.make ~name:"wal codec: no strict prefix of a line decodes"
    ~count:200 gen_line
    (fun (lsn, r) ->
      let line = Wal.encode ~lsn r in
      List.for_all
        (fun k -> Wal.decode (String.sub line 0 k) = None)
        (List.init (String.length line) Fun.id))

(* Every single-byte substitution of every line of a real log — plus
   lines at the ends of the int range and with escaped names — must be
   rejected: by the grammar, or by the CRC over the line's own bytes. *)
let test_wal_every_byte_change_rejected () =
  let w = Wal.writer () in
  let hook = Hook.create w in
  let cfg = { Crash.default with policy = E.Mvto; seed = 5 } in
  let initial =
    List.init cfg.Crash.entities (fun i -> (Printf.sprintf "e%d" i, 100))
  in
  ignore
    (E.run ~policy:E.Mvto ~initial ~programs:(Crash.workload cfg)
       ~wal:(Hook.listener hook) ?snapshot_every:cfg.Crash.snapshot_every
       ~seed:cfg.Crash.seed ());
  let extremes =
    [
      Wal.encode ~lsn:max_int
        (Wal.Install { txn = 1; entity = "\001"; value = min_int; wts = 9 });
      Wal.encode ~lsn:3
        (Wal.State { entity = "a\"b\\c\td"; value = max_int });
      Wal.encode ~lsn:4
        (Wal.Op
           { txn = 0; entity = "e"; write = false; src = Some (Wal.From_txn min_int) });
    ]
  in
  let lines =
    List.filter (( <> ) "") (String.split_on_char '\n' (Wal.contents w))
    @ extremes
  in
  check "the log has records" true (List.length lines > 50);
  List.iter
    (fun line ->
      check "the line itself decodes" true (Wal.decode line <> None);
      let b = Bytes.of_string line in
      String.iteri
        (fun i orig ->
          for c = 0 to 255 do
            if Char.chr c <> orig then begin
              Bytes.set b i (Char.chr c);
              if Wal.decode (Bytes.to_string b) <> None then
                Alcotest.failf "byte %d of %S set to %d still decodes" i line
                  c
            end
          done;
          Bytes.set b i orig)
        line)
    lines

let test_wal_writer () =
  let w = Wal.writer () in
  check_int "lsn starts at 0" 0 (Wal.next_lsn w);
  let l0 = Wal.append w (Wal.Commit { txn = 0 }) in
  let l1 = Wal.append w (Wal.Commit { txn = 1 }) in
  check_int "first lsn" 0 l0;
  check_int "second lsn" 1 l1;
  let { Wal.records; stats } = Wal.read_string (Wal.contents w) in
  check_int "no skips" 0 stats.Mvcc_obs.Jsonl.skipped;
  check "no torn tail" false stats.torn_tail;
  check "records round-trip" true
    (records = [ (0, Wal.Commit { txn = 0 }); (1, Wal.Commit { txn = 1 }) ])

(* Truncate a two-record log at every byte offset of the second record:
   the reader must keep the first record always, keep the second exactly
   when it is complete, and flag a torn tail exactly when a proper
   nonempty prefix of it remains. *)
let test_wal_torn_tail_every_offset () =
  let r0 = Wal.encode ~lsn:0 (Wal.Begin { txn = 0; ts = 1 }) ^ "\n" in
  let r1 = Wal.encode ~lsn:1 (Wal.Install { txn = 0; entity = "x"; value = 7; wts = 1 }) in
  let whole = r0 ^ r1 ^ "\n" in
  let base = String.length r0 in
  for cut = base to String.length whole do
    let { Wal.records; stats } = Wal.read_string (String.sub whole 0 cut) in
    let kept = List.length records in
    let full_r1 = cut >= base + String.length r1 in
    check_int
      (Printf.sprintf "records kept at cut %d" cut)
      (if full_r1 then 2 else 1)
      kept;
    check
      (Printf.sprintf "torn at cut %d" cut)
      ((not full_r1) && cut > base)
      stats.Mvcc_obs.Jsonl.torn_tail;
    check_int (Printf.sprintf "skips at cut %d" cut) 0 stats.skipped
  done

let test_wal_midfile_corruption_is_skip () =
  let w = Wal.writer () in
  List.iter
    (fun txn -> ignore (Wal.append w (Wal.Commit { txn })))
    [ 0; 1; 2 ];
  let bytes = Bytes.of_string (Wal.contents w) in
  (* flip a byte inside the second line *)
  let pos = (Bytes.index_from bytes 0 '\n') + 3 in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 1));
  let { Wal.records; stats } = Wal.read_string (Bytes.to_string bytes) in
  check_int "one skip" 1 stats.Mvcc_obs.Jsonl.skipped;
  check "not torn" false stats.torn_tail;
  check "first and third survive" true
    (List.map snd records = [ Wal.Commit { txn = 0 }; Wal.Commit { txn = 2 } ])

(* -- Group commit -- *)

(* The fast in-place emitter and the reference codec must agree byte for
   byte, whatever the window — a force adds nothing to the stream, it
   only marks how much of it is durable. *)
let prop_writer_bytes_match_reference =
  QCheck2.Test.make
    ~name:"writer bytes = reference encode, for every window shape"
    ~count:200
    QCheck2.Gen.(
      let* rs = list_size (int_range 0 25) gen_record
      and* win = oneofl [ `None; `R 1; `R 3; `C 2; `RC (4, 2) ] in
      return (rs, win))
    (fun (rs, win) ->
      let window =
        match win with
        | `None -> None
        | `R r -> Some (Wal.window ~records:r ())
        | `C c -> Some (Wal.window ~commits:c ())
        | `RC (r, c) -> Some (Wal.window ~records:r ~commits:c ())
      in
      let w = Wal.writer ?window () in
      List.iter (fun r -> ignore (Wal.append w r)) rs;
      let reference =
        String.concat ""
          (List.mapi (fun i r -> Wal.encode ~lsn:i r ^ "\n") rs)
      in
      let bytes_ok = Wal.contents w = reference in
      Wal.close w;
      bytes_ok && Wal.durable_contents w = Wal.contents w)

(* a writer's obs sink is pure accounting: same bytes, same durable
   prefix, same acks and forces as a blind writer, for every window
   shape — and the counters agree with the writer's own accessors. *)
let prop_obs_writer_byte_invariance =
  QCheck2.Test.make
    ~name:"writer with a live sink is byte-identical to a blind writer"
    ~count:200
    QCheck2.Gen.(
      let* rs = list_size (int_range 0 25) gen_record
      and* win = oneofl [ `None; `R 1; `R 3; `C 2; `RC (4, 2) ] in
      return (rs, win))
    (fun (rs, win) ->
      let window () =
        match win with
        | `None -> None
        | `R r -> Some (Wal.window ~records:r ())
        | `C c -> Some (Wal.window ~commits:c ())
        | `RC (r, c) -> Some (Wal.window ~records:r ~commits:c ())
      in
      let m = Mvcc_obs.Metrics.create () in
      let spans = Mvcc_obs.Span.create () in
      let obs = Sink.create ~metrics:m ~spans () in
      let blind = Wal.writer ?window:(window ()) () in
      let seen = Wal.writer ?window:(window ()) ~obs () in
      List.iter
        (fun r ->
          ignore (Wal.append blind r);
          ignore (Wal.append seen r))
        rs;
      let agree_live =
        Wal.contents blind = Wal.contents seen
        && Wal.durable_contents blind = Wal.durable_contents seen
        && Wal.acked_commits blind = Wal.acked_commits seen
        && Wal.forces blind = Wal.forces seen
      in
      Wal.close blind;
      Wal.close seen;
      agree_live
      && Wal.contents blind = Wal.contents seen
      && Wal.force_boundaries blind = Wal.force_boundaries seen
      && Mvcc_obs.Metrics.counter m "wal.appends" = List.length rs
      && Mvcc_obs.Metrics.counter m "wal.forces" = Wal.forces seen
      && Mvcc_obs.Metrics.gauge m "wal.acked-commits"
         = Wal.acked_commits seen
      && Mvcc_obs.Span.open_spans spans = 0)

(* window=1 group commit must be indistinguishable from the PR 6
   flush-per-record path: byte-identical file, and the identical durable
   prefix after every single append. *)
let test_group_window1_byte_identical () =
  let records =
    let w = Wal.writer () in
    let hook = Hook.create w in
    let cfg = { Crash.default with policy = E.Mvto; seed = 5 } in
    let initial =
      List.init cfg.Crash.entities (fun i -> (Printf.sprintf "e%d" i, 100))
    in
    ignore
      (E.run ~policy:E.Mvto ~initial ~programs:(Crash.workload cfg)
         ~wal:(Hook.listener hook) ?snapshot_every:cfg.Crash.snapshot_every
         ~seed:cfg.Crash.seed ());
    List.map snd (Wal.read_string (Wal.contents w)).Wal.records
  in
  check "workload produced records" true (List.length records > 50);
  let p1 = Filename.temp_file "wal_perrec" ".wal" in
  let p2 = Filename.temp_file "wal_window1" ".wal" in
  let w1 = Wal.writer ~path:p1 () in
  let w2 = Wal.writer ~path:p2 ~window:(Wal.window ~records:1 ()) () in
  List.iter
    (fun r ->
      ignore (Wal.append w1 r);
      ignore (Wal.append w2 r);
      check "durable prefixes agree after every append" true
        (Wal.durable_contents w1 = Wal.durable_contents w2);
      check_int "acks agree after every append" (Wal.acked_commits w1)
        (Wal.acked_commits w2))
    records;
  Wal.close w1;
  Wal.close w2;
  let slurp p = In_channel.with_open_bin p In_channel.input_all in
  check "files byte-identical" true (slurp p1 = slurp p2);
  check "file = in-memory contents" true (slurp p1 = Wal.contents w1);
  Sys.remove p1;
  Sys.remove p2

let test_close_mid_batch_flushes_once () =
  let p = Filename.temp_file "wal_midbatch" ".wal" in
  let w = Wal.writer ~path:p ~window:(Wal.window ~records:100 ()) () in
  let app r = ignore (Wal.append w r) in
  app (Wal.State { entity = "x"; value = 0 });
  app (Wal.Begin { txn = 0; ts = 1 });
  app (Wal.Install { txn = 0; entity = "x"; value = 5; wts = 1 });
  app (Wal.Commit { txn = 0 });
  app (Wal.Commit { txn = 1 });
  let slurp () = In_channel.with_open_bin p In_channel.input_all in
  check "nothing durable before the window fills" true
    (Wal.durable_contents w = "" && slurp () = "");
  check_int "no acks before the force" 0 (Wal.acked_commits w);
  check_int "no forces yet" 0 (Wal.forces w);
  Wal.close w;
  check_int "close forced the open batch" 1 (Wal.forces w);
  check_int "close acknowledged the batch's commits" 2 (Wal.acked_commits w);
  check "file holds the whole log" true (slurp () = Wal.contents w);
  check "durable = contents" true (Wal.durable_contents w = Wal.contents w);
  Wal.close w;
  check_int "second close is a no-op" 1 (Wal.forces w);
  Wal.force w;
  check_int "force after close is a no-op" 1 (Wal.forces w);
  Sys.remove p

(* -- Snapshots -- *)

let test_snapshot_roundtrip () =
  let store = Mvcc_engine.Store.create ~initial:[ ("a", 1); ("b", 2) ] in
  Mvcc_engine.Store.install store "a" ~value:10 ~wts:3;
  Mvcc_engine.Store.install store "a" ~value:20 ~wts:5;
  let snap = Snapshot.capture ~lsn:42 ~commits:7 store in
  (match Snapshot.decode (Snapshot.encode snap) with
  | None -> Alcotest.fail "snapshot did not decode"
  | Some s ->
      check "roundtrip" true (s = snap);
      check "store agrees" true
        (Recovery.dump_string (Snapshot.store s)
        = Recovery.dump_string store));
  (* a torn snapshot write is rejected whole *)
  let enc = Snapshot.encode snap in
  let torn = String.sub enc 0 (String.length enc - 10) in
  check "torn snapshot rejected" true (Snapshot.decode torn = None)

(* -- logging never changes a decision -- *)

let run_traced ?wal ?snapshot_every ~policy ~seed () =
  let programs =
    Crash.workload { Crash.default with policy; seed; snapshot_every }
  in
  let initial = List.init 6 (fun i -> (Printf.sprintf "e%d" i, 100)) in
  let spans =
    Span.create ~capacity:4096 ~clock:(Span.counter_clock ()) ()
  in
  let obs = Sink.create ~spans () in
  let r = E.run ~policy ~initial ~programs ~obs ?wal ?snapshot_every ~seed () in
  (r, List.map Span.to_json (Span.to_list spans))

let prop_wal_off_invariance =
  QCheck2.Test.make
    ~name:"a wal listener never changes decisions, state, or trace"
    ~count:40
    QCheck2.Gen.(
      let* seed = int_range 0 10_000 and* policy = oneofl E.all_policies in
      return (seed, policy))
    (fun (seed, policy) ->
      let blind, trace_blind = run_traced ~policy ~seed () in
      let hook = Hook.create (Wal.writer ()) in
      let logged, trace_logged =
        run_traced ~wal:(Hook.listener hook) ~snapshot_every:2 ~policy ~seed ()
      in
      blind.E.stats = logged.E.stats
      && blind.E.final_state = logged.E.final_state
      && trace_blind = trace_logged)

(* -- Recovery -- *)

let test_full_log_recovery_all_policies () =
  List.iter
    (fun policy ->
      let cfg = { Crash.default with policy; seed = 11; points = 0 } in
      let programs = Crash.workload cfg in
      let initial = List.init cfg.entities (fun i -> (Printf.sprintf "e%d" i, 100)) in
      let w = Wal.writer () in
      let hook = Hook.create w in
      let r =
        E.run ~policy ~initial ~programs ~wal:(Hook.listener hook)
          ?snapshot_every:cfg.snapshot_every ~seed:cfg.seed ()
      in
      let rec_ = Recovery.recover ~policy (Wal.read_string (Wal.contents w)) in
      check
        (Printf.sprintf "final state recovered under %s" (E.policy_name policy))
        true
        (rec_.Recovery.state = r.E.final_state);
      check "nothing undone" true
        (rec_.undone = [] && rec_.cascaded = []);
      check_int "all commits recovered" r.E.stats.E.commits
        (List.length rec_.commit_order);
      match rec_.witness with
      | None -> Alcotest.fail "no witness"
      | Some wit ->
          check
            (Printf.sprintf "checker certifies recovery under %s"
               (E.policy_name policy))
            true
            (Mvcc_provenance.Checker.verify rec_.history wit))
    E.all_policies

(* A lost Commit record must cascade to the transactions that read from
   it, to a fixpoint — the one case where recovery aborts a committed
   transaction. *)
let test_midlog_commit_loss_cascades () =
  let w = Wal.writer () in
  let app r = ignore (Wal.append w r) in
  app (Wal.State { entity = "x"; value = 0 });
  app (Wal.Begin { txn = 0; ts = 1 });
  app (Wal.Begin { txn = 1; ts = 2 });
  app (Wal.Op { txn = 0; entity = "x"; write = true; src = None });
  app (Wal.Install { txn = 0; entity = "x"; value = 5; wts = 1 });
  app (Wal.Commit { txn = 0 });
  app (Wal.Op { txn = 1; entity = "x"; write = false; src = Some (Wal.From_txn 0) });
  app (Wal.Op { txn = 1; entity = "x"; write = true; src = None });
  app (Wal.Install { txn = 1; entity = "x"; value = 6; wts = 2 });
  app (Wal.Commit { txn = 1 });
  let lines = String.split_on_char '\n' (Wal.contents w) in
  let without_commit0 =
    List.mapi
      (fun i l -> if i = 5 then "corrupted line, fails its crc" else l)
      lines
    |> String.concat "\n"
  in
  let r = Recovery.recover ~policy:E.Mvto (Wal.read_string without_commit0) in
  check_int "one skip" 1 r.Recovery.stats.Mvcc_obs.Jsonl.skipped;
  check "txn 0 undone (no commit record)" true (r.undone = [ 0 ]);
  check "txn 1 cascaded (its source is gone)" true (r.cascaded = [ 1 ]);
  check "nothing committed" true (r.commit_order = []);
  check "store back to initial" true (r.state = [ ("x", 0) ]);
  (* with the commit intact, both survive *)
  let intact =
    Recovery.recover ~policy:E.Mvto (Wal.read_string (Wal.contents w))
  in
  check "intact log commits both" true (intact.commit_order = [ 0; 1 ]);
  check "intact final value" true (intact.state = [ ("x", 6) ])

(* A run's certificate is a function of its event stream alone, so the
   engine's own [~prov] certificate and full-log recovery of the bytes
   its hook wrote must agree: the same committed steps and the same
   printed witness, under every policy, with and without off-loop
   readers, injected aborts and GC, and under S2PL's deadlock-prevention
   modes. *)
let prop_live_certificate_is_recovered =
  QCheck2.Test.make
    ~name:"engine certificate = recovered certificate of its own log"
    ~count:200
    QCheck2.Gen.(
      let* policy =
        oneofl
          (List.map (fun p -> (p, None)) E.all_policies
          @ [ (E.S2pl, Some E.Wait_die); (E.S2pl, Some E.Wound_wait) ])
      and* ro = bool
      and* crash = oneofl [ 0.; 0.05 ]
      and* gc = bool
      and* seed = int_range 0 10_000 in
      return (policy, ro, crash, gc, seed))
    (fun ((policy, deadlock), ro, crash, gc, seed) ->
      let initial, programs =
        Mvcc_workload.Program_gen.mixed ~n_entities:6 ~theta:0.6
          ~read_fraction:0.4 ~reads_per_txn:3 ~writes_per_txn:2 ~mix_rounds:0
          ~n_txns:10 ~seed ()
      in
      let w = Wal.writer ~window:(Wal.window ~commits:3 ()) () in
      let hook = Hook.create w in
      let r =
        E.run ~policy ?deadlock ~initial ~programs ~gc ~crash_probability:crash
          ~prov:(Mvcc_provenance.Log.create ()) ~wal:(Hook.listener hook)
          ~snapshot_every:4 ~ro_snapshot:ro ~seed ()
      in
      Wal.close w;
      let rec_ = Recovery.recover ~policy (Wal.read_string (Wal.contents w)) in
      let pp = Format.asprintf "%a" Mvcc_provenance.Witness.pp in
      match (r.E.provenance, rec_.Recovery.witness) with
      | Some (h, live), Some recovered ->
          Mvcc_core.Schedule.steps h
          = Mvcc_core.Schedule.steps rec_.Recovery.history
          && pp live = pp recovered
      | _ -> false)

(* -- Crash injection: the tentpole property -- *)

let crash_points_per_policy = 120

let test_crash_injection_all_policies () =
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          let report =
            Crash.run
              {
                Crash.default with
                policy;
                seed;
                points = crash_points_per_policy / 2;
              }
          in
          if report.Crash.failures <> [] then
            Alcotest.failf "%a" Crash.pp_report report;
          check
            (Printf.sprintf "some torn points under %s seed %d"
               (E.policy_name policy) seed)
            true
            (report.Crash.torn > 0 && report.checked > 0))
        [ 3; 4 ])
    E.all_policies

(* Group-commit crash points: every point checks both the raw cut
   (mid-batch) and the forced-boundary image, so this exercises
   truncation at batch boundaries and inside open batches, under both
   window shapes, for every policy. *)
let test_crash_group_commit_all_policies () =
  let windows = [ Wal.window ~commits:3 (); Wal.window ~records:7 () ] in
  List.iter
    (fun policy ->
      List.iter
        (fun window ->
          let report =
            Crash.run
              {
                Crash.default with
                policy;
                seed = 6;
                window = Some window;
                points = 60;
              }
          in
          if report.Crash.failures <> [] then
            Alcotest.failf "%a" Crash.pp_report report;
          check
            (Printf.sprintf "batching happened under %s/%s"
               (E.policy_name policy)
               (Crash.window_name (Some window)))
            true
            (report.Crash.forces > 0
            && report.Crash.forces < report.Crash.records
            && report.Crash.acked <= report.Crash.commits
            && report.Crash.torn > 0))
        windows)
    E.all_policies

let test_crash_only_point_reproduces () =
  let cfg = { Crash.default with policy = E.Sgt; seed = 9; points = 40 } in
  let full = Crash.run cfg in
  check "baseline clean" true (full.Crash.failures = []);
  let one = Crash.run { cfg with only = Some 17 } in
  check_int "exactly one point checked" 1 one.Crash.checked;
  check "replay clean" true (one.Crash.failures = [])

(* -- Log-shipping follower -- *)

(* The follower is recovery-in-a-loop: after any sequence of feeds, its
   incremental view must equal one-shot recovery of the bytes consumed
   so far — store dump, live store, committed history, state, witness
   rendering, stats — including prefixes that end mid-record. *)
let prop_follower_equiv_recovery =
  QCheck2.Test.make
    ~name:"follower incremental state = one-shot recovery of every prefix"
    ~count:15
    QCheck2.Gen.(
      let* seed = int_range 0 1000
      and* policy = oneofl E.all_policies
      and* chunk_seed = int_range 0 1000 in
      return (seed, policy, chunk_seed))
    (fun (seed, policy, chunk_seed) ->
      let w = Wal.writer () in
      let hook = Hook.create w in
      let cfg = { Crash.default with policy; seed } in
      let initial =
        List.init cfg.Crash.entities (fun i -> (Printf.sprintf "e%d" i, 100))
      in
      ignore
        (E.run ~policy ~initial ~programs:(Crash.workload cfg)
           ~wal:(Hook.listener hook) ?snapshot_every:cfg.Crash.snapshot_every
           ~seed ());
      let bytes = Wal.contents w in
      let n = String.length bytes in
      let rng = Random.State.make [| chunk_seed; 0xf0110 |] in
      let f = Follower.create ~policy () in
      let pos = ref 0 in
      let ok = ref true in
      let compare_at p =
        let read = Wal.read_string (String.sub bytes 0 p) in
        let one = Recovery.recover ~policy read in
        let live = Follower.state f in
        let wit r =
          Option.map
            (Format.asprintf "%a" Mvcc_provenance.Witness.pp)
            r.Recovery.witness
        in
        ok :=
          !ok
          && Recovery.dump_string (Follower.store f)
             = Recovery.dump_string one.Recovery.store
          && Recovery.dump_string live.Recovery.store
             = Recovery.dump_string one.store
          && Mvcc_core.Schedule.steps live.history
             = Mvcc_core.Schedule.steps one.history
          && live.commit_order = one.commit_order
          && live.state = one.state
          && wit live = wit one
          && live.stats = one.stats
          && Follower.records_applied f = List.length read.Wal.records
      in
      while !pos < n do
        let p = min n (!pos + 1 + Random.State.int rng 300) in
        ignore (Follower.feed f (String.sub bytes !pos (p - !pos)));
        pos := p;
        if p < n && Random.State.int rng 3 = 0 then compare_at p
      done;
      compare_at n;
      !ok)

(* State bootstrap is one [Store.set_initial] per record: fed one record
   per chunk, a 1024-entity log — initial state in a non-sorted order,
   then a second State for entities already seen, then commits — must
   leave the same interning order, the same chains and the same reads as
   one-shot recovery, which builds its store from the whole initial list
   at once (last value wins). *)
let test_follower_bootstrap_equiv_recovery () =
  let n = 1024 in
  let name i = Printf.sprintf "e%d" ((i * 389) mod n) in
  let w = Wal.writer () in
  let app r = ignore (Wal.append w r) in
  for i = 0 to n - 1 do
    app (Wal.State { entity = name i; value = i })
  done;
  List.iter
    (fun i -> app (Wal.State { entity = name i; value = -i - 1 }))
    [ 0; 5; n - 1; 5 ];
  List.iteri
    (fun txn i ->
      app (Wal.Begin { txn; ts = txn + 1 });
      app (Wal.Op { txn; entity = name i; write = true; src = None });
      app
        (Wal.Install
           { txn; entity = name i; value = 1000 + txn; wts = txn + 1 });
      app (Wal.Commit { txn }))
    [ 5; 7; 5 ];
  let bytes = Wal.contents w in
  let f = Follower.create ~policy:E.Mvto () in
  List.iter
    (fun line -> if line <> "" then ignore (Follower.feed f (line ^ "\n")))
    (String.split_on_char '\n' bytes);
  let one = Recovery.recover ~policy:E.Mvto (Wal.read_string bytes) in
  let module S = Mvcc_engine.Store in
  let live = Follower.store f in
  check_int "every record applied" (Wal.next_lsn w)
    (Follower.records_applied f);
  check "same entities" true
    (S.entities live = S.entities one.Recovery.store);
  check_int "all entities known" n (List.length (S.entities live));
  check "same interning order" true
    (List.for_all
       (fun e -> S.intern live e = S.intern one.store e)
       (S.entities one.store));
  check "same chains" true (S.dump live = S.dump one.store);
  check "same reads" true (Follower.read_view f = one.state);
  check "a repeated State's last value wins" true
    (Follower.read f (name 0) = Some (-1)
    && Follower.read f (name (n - 1)) = Some (-n)
    && Follower.read f (name 5) = Some 1002)

(* Ship the follower only forced bytes and it can never observe an
   unacknowledged commit; catching up twice applies nothing the second
   time; close forces the open batch and the replica converges. *)
let test_follower_never_observes_unforced () =
  let w = Wal.writer ~window:(Wal.window ~commits:2 ()) () in
  let app r = ignore (Wal.append w r) in
  app (Wal.State { entity = "x"; value = 0 });
  app (Wal.Begin { txn = 0; ts = 1 });
  app (Wal.Op { txn = 0; entity = "x"; write = true; src = None });
  app (Wal.Install { txn = 0; entity = "x"; value = 5; wts = 1 });
  app (Wal.Commit { txn = 0 });
  let f = Follower.create ~policy:E.Mvto () in
  ignore (Follower.catch_up f (Wal.durable_contents w));
  check_int "nothing durable, nothing observed" 0 (Follower.commits_applied f);
  check "replica has heard nothing" true (Follower.read f "x" = None);
  (* the second commit fills the window and forces the batch *)
  app (Wal.Begin { txn = 1; ts = 2 });
  app (Wal.Op { txn = 1; entity = "x"; write = false; src = Some (Wal.From_txn 0) });
  app (Wal.Op { txn = 1; entity = "x"; write = true; src = None });
  app (Wal.Install { txn = 1; entity = "x"; value = 6; wts = 2 });
  app (Wal.Commit { txn = 1 });
  check_int "leader acked the batch" 2 (Wal.acked_commits w);
  ignore (Follower.catch_up f (Wal.durable_contents w));
  check_int "both commits shipped" 2 (Follower.commits_applied f);
  check_int "snapshot ts is the last applied write" 2 (Follower.snapshot_ts f);
  check "replica reads the forced value" true (Follower.read f "x" = Some 6);
  (* a third, unforced commit stays invisible to the replica *)
  app (Wal.Begin { txn = 2; ts = 3 });
  app (Wal.Op { txn = 2; entity = "x"; write = true; src = None });
  app (Wal.Install { txn = 2; entity = "x"; value = 9; wts = 3 });
  app (Wal.Commit { txn = 2 });
  check_int "third commit is not acked" 2 (Wal.acked_commits w);
  let before = Recovery.dump_string (Follower.store f) in
  check_int "catch-up ships nothing new" 0
    (Follower.catch_up f (Wal.durable_contents w));
  check_int "double catch-up is idempotent" 0
    (Follower.catch_up f (Wal.durable_contents w));
  check "store untouched" true
    (Recovery.dump_string (Follower.store f) = before);
  check "unforced commit invisible" true (Follower.read f "x" = Some 6);
  let view, verdict = Follower.certified_read_view f in
  check "lagging view is checker-certified" true verdict;
  check "view serves the forced state" true (view = [ ("x", 6) ]);
  (* close forces the open batch; the replica converges *)
  Wal.close w;
  check_int "close acked the tail" 3 (Wal.acked_commits w);
  check_int "the tail's records ship" 4
    (Follower.catch_up f (Wal.durable_contents w));
  check_int "lag closed" 3 (Follower.commits_applied f);
  check "replica reads the tail commit" true (Follower.read f "x" = Some 9);
  let _, _, ok = Follower.certify f in
  check "certified after catch-up" true ok

(* Mid-run, a follower fed only the durable prefix sees exactly the
   acknowledged commits — never more — and its lagging reads are
   read-consistent under every policy, confirmed by the independent
   checker. *)
let test_follower_lagging_reads_all_policies () =
  List.iter
    (fun policy ->
      let cfg = { Crash.default with policy; seed = 21 } in
      let w = Wal.writer ~window:(Wal.window ~commits:3 ()) () in
      let hook = Hook.create w in
      let initial =
        List.init cfg.Crash.entities (fun i -> (Printf.sprintf "e%d" i, 100))
      in
      let r =
        E.run ~policy ~initial ~programs:(Crash.workload cfg)
          ~wal:(Hook.listener hook)
          ~wal_durable:(fun () -> Wal.acked_commits w)
          ?snapshot_every:cfg.Crash.snapshot_every ~seed:cfg.Crash.seed ()
      in
      let f = Follower.create ~policy () in
      ignore (Follower.catch_up f (Wal.durable_contents w));
      check_int
        (Printf.sprintf "replica sees exactly the acked commits under %s"
           (E.policy_name policy))
        (Wal.acked_commits w)
        (Follower.commits_applied f);
      check "engine ack count agrees with the writer" true
        (r.E.durable_commits = Some (Wal.acked_commits w));
      let one =
        Recovery.recover ~policy (Wal.read_string (Wal.durable_contents w))
      in
      check "replica store = one-shot recovery of the durable prefix" true
        (Recovery.dump_string (Follower.store f)
        = Recovery.dump_string one.Recovery.store);
      let _, _, ok = Follower.certify f in
      check
        (Printf.sprintf "lagging reads certified under %s"
           (E.policy_name policy))
        true ok;
      Wal.close w;
      ignore (Follower.catch_up f (Wal.durable_contents w));
      check_int "caught up to every commit" r.E.stats.E.commits
        (Follower.commits_applied f);
      check "caught-up view is the live final state" true
        (Follower.read_view f = r.E.final_state);
      let _, _, ok2 = Follower.certify f in
      check "certified at the tip" true ok2)
    E.all_policies

(* -- The in-place scanner -- *)

(* Random buffers of framed lines mixed with the damage a log can carry:
   garbage, blank and whitespace-only lines, CRLF endings, lines with a
   flipped byte or cut short, and a final line that is a whole record,
   a torn one, whitespace or garbage, without its newline. *)
let gen_log_buffer =
  QCheck2.Gen.(
    let framed = map (fun (lsn, r) -> Wal.encode ~lsn r) gen_line in
    let flipped =
      let* line = framed in
      let* pos = int_range 0 (String.length line - 1)
      and* mask = int_range 1 255 in
      let b = Bytes.of_string line in
      Bytes.set b pos (Char.chr (Char.code line.[pos] lxor mask));
      return (Bytes.to_string b)
    in
    let cut =
      let* line = framed in
      let* k = int_range 0 (String.length line - 1) in
      return (String.sub line 0 k)
    in
    let piece =
      frequency
        [
          (6, map (fun l -> l ^ "\n") framed);
          (1, map (fun l -> l ^ "\r\n") framed);
          (1, map (fun l -> l ^ "\n") flipped);
          (1, map (fun l -> l ^ "\n") cut);
          (1, oneofl [ "garbage\n"; "{\"lsn\":1}\n"; "}\n"; "\000\n" ]);
          (1, oneofl [ "\n"; " \n"; "\t \r\n"; "\012\n"; "\r\n" ]);
        ]
    in
    let tail =
      oneof
        [ return ""; framed; cut; flipped; oneofl [ "  "; "\t"; "junk" ] ]
    in
    let* pieces = list_size (int_range 0 12) piece and* last = tail in
    return (String.concat "" pieces ^ last))

(* the line splitter the follower and one-shot reading used before they
   shared the in-place scanner, kept as the oracle *)
let prop_scanner_equals_line_splitter =
  QCheck2.Test.make ~name:"in-place scanner = line splitter over decode"
    ~count:500 gen_log_buffer (fun buf ->
      let records, stats = Mvcc_obs.Jsonl.read_string Wal.decode buf in
      let read = Wal.read_string buf in
      read.Wal.records = records && read.Wal.stats = stats)

(* decoding in place, at every line start of a multi-record buffer *)
let prop_decode_prefix_in_place =
  QCheck2.Test.make ~name:"decode_prefix reads each record where it starts"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 6) gen_line)
    (fun lines ->
      let encoded = List.map (fun (lsn, r) -> Wal.encode ~lsn r) lines in
      let buf = String.concat "\n" encoded ^ "\n" in
      let pos = ref 0 in
      List.for_all2
        (fun (lsn, r) line ->
          let stop = !pos + String.length line in
          let ok = Wal.decode_prefix buf ~pos:!pos = Some (lsn, r, stop) in
          pos := stop + 1;
          ok)
        lines encoded)

(* -- The follower on a damaged stream -- *)

(* A real log with damage injected at random places: garbage and
   whitespace-only lines at line starts, a CR before some newlines, and
   single flipped bytes anywhere or inside a Commit line (a lost commit
   is what makes recovery cascade). *)
let damage rng bytes =
  let n = String.length bytes in
  let starts =
    0 :: List.filter_map
           (fun i -> if bytes.[i] = '\n' && i + 1 < n then Some (i + 1) else None)
           (List.init n Fun.id)
  in
  let commits =
    List.filter
      (fun i ->
        match Wal.decode_prefix bytes ~pos:i with
        | Some (_, Wal.Commit _, _) -> true
        | _ -> false)
      starts
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let edit () =
    match Random.State.int rng 5 with
    | 0 ->
        ( pick starts,
          `Insert
            (pick [ "garbage\n"; "{\"lsn\":0}\n"; "\000\001\n"; "}\n" ]) )
    | 1 -> (pick starts, `Insert (pick [ "\n"; "  \n"; "\t\r\n"; "\012\n" ]))
    | 2 when List.length starts > 1 -> (pick (List.tl starts) - 1, `Insert "\r")
    | 3 when commits <> [] ->
        (pick commits + 2, `Flip (1 + Random.State.int rng 255))
    | _ -> (Random.State.int rng n, `Flip (1 + Random.State.int rng 255))
  in
  let edits =
    List.stable_sort
      (fun (a, _) (b, _) -> compare a b)
      (List.init (1 + Random.State.int rng 8) (fun _ -> edit ()))
  in
  let b = Buffer.create (n + 64) in
  let rec go i edits =
    match edits with
    | (p, `Insert s) :: rest when p = i ->
        Buffer.add_string b s;
        go i rest
    | (p, `Flip mask) :: rest when p = i ->
        Buffer.add_char b (Char.chr (Char.code bytes.[i] lxor mask));
        go (i + 1) (List.filter (fun (q, _) -> q <> p) rest)
    | _ when i >= n -> ()
    | _ ->
        Buffer.add_char b bytes.[i];
        go (i + 1) edits
  in
  go 0 edits;
  Buffer.contents b

(* After every feed of a damaged stream the follower equals one-shot
   recovery of the bytes fed so far: this is the skip -> degraded ->
   refresh path, and the path where a record read before its newline
   arrived must be taken back. Chunks end at random, and often just
   before a CR or a newline, right after a record's closing brace. *)
let prop_follower_damaged_equiv_recovery =
  QCheck2.Test.make
    ~name:"follower on a damaged stream = one-shot recovery after each feed"
    ~count:40
    QCheck2.Gen.(
      let* seed = int_range 0 1000
      and* policy = oneofl E.all_policies
      and* damage_seed = int_range 0 1000 in
      return (seed, policy, damage_seed))
    (fun (seed, policy, damage_seed) ->
      let w = Wal.writer () in
      let hook = Hook.create w in
      let cfg = { Crash.default with policy; seed; txns = 6 } in
      let initial =
        List.init cfg.Crash.entities (fun i -> (Printf.sprintf "e%d" i, 100))
      in
      ignore
        (E.run ~policy ~initial ~programs:(Crash.workload cfg)
           ~wal:(Hook.listener hook) ~seed ());
      let rng = Random.State.make [| damage_seed; 0xda4a9e |] in
      let bytes = damage rng (Wal.contents w) in
      let n = String.length bytes in
      let f = Follower.create ~policy () in
      let agrees p =
        let prefix = String.sub bytes 0 p in
        let read = Wal.read_string prefix in
        let records, stats = Mvcc_obs.Jsonl.read_string Wal.decode prefix in
        let one = Recovery.recover ~policy read in
        let live = Follower.state f in
        let wit r =
          Option.map
            (Format.asprintf "%a" Mvcc_provenance.Witness.pp)
            r.Recovery.witness
        in
        Recovery.dump_string (Follower.store f)
        = Recovery.dump_string one.Recovery.store
        && Recovery.dump_string live.Recovery.store
           = Recovery.dump_string one.store
        && Mvcc_core.Schedule.steps live.history
           = Mvcc_core.Schedule.steps one.history
        && live.commit_order = one.commit_order
        && live.state = one.state
        && wit live = wit one
        && live.stats = one.stats
        && Follower.stats f = one.stats
        && Follower.skips f = one.stats.skipped
        && Follower.records_applied f = List.length read.Wal.records
        (* and the shared scanner itself against the line splitter *)
        && (Follower.records_applied f, Follower.stats f)
           = (List.length records, stats)
      in
      let line_end from =
        let rec go i =
          if i >= n then None
          else if bytes.[i] = '\n' || bytes.[i] = '\r' then Some i
          else go (i + 1)
        in
        go from
      in
      let rec feed_from pos =
        pos >= n
        ||
        let p =
          match line_end (pos + 1) with
          | Some e when Random.State.int rng 3 = 0 -> e
          | _ -> min n (pos + 1 + Random.State.int rng 200)
        in
        ignore (Follower.feed f (String.sub bytes pos (p - pos)));
        agrees p && feed_from p
      in
      feed_from 0)

(* A record whose newline has not arrived is read at once, as one-shot
   recovery of those bytes reads it; when the line then goes on, it is
   taken back and the whole line counts as one-shot recovery counts
   it. *)
let test_follower_takes_back_an_unterminated_record () =
  let line lsn r = Wal.encode ~lsn r in
  let state = line 0 (Wal.State { entity = "x"; value = 1 }) ^ "\n" in
  let begin_ = line 1 (Wal.Begin { txn = 0; ts = 1 }) ^ "\n" in
  let install =
    line 2 (Wal.Install { txn = 0; entity = "x"; value = 5; wts = 1 }) ^ "\n"
  in
  let commit = line 3 (Wal.Commit { txn = 0 }) in
  let agrees f fed =
    let one = Recovery.recover ~policy:E.Mvto (Wal.read_string fed) in
    Recovery.dump_string (Follower.store f)
    = Recovery.dump_string one.Recovery.store
    && Follower.stats f = one.stats
    && Follower.records_applied f
       = List.length (Wal.read_string fed).Wal.records
    && Follower.commits_applied f = List.length one.commit_order
  in
  List.iter
    (fun rest ->
      let f = Follower.create ~policy:E.Mvto () in
      let fed = ref "" in
      List.iter
        (fun chunk ->
          ignore (Follower.feed f chunk);
          fed := !fed ^ chunk;
          check
            (Printf.sprintf "after %S of %S" chunk rest)
            true (agrees f !fed))
        [ state ^ begin_ ^ install ^ commit; ""; rest; "\n" ])
    [ "\n"; "\r"; "\r\n"; " "; "x\n"; "}" ];
  let f = Follower.create ~policy:E.Mvto () in
  ignore (Follower.feed f (state ^ begin_ ^ install ^ commit));
  check_int "the commit is read before its newline" 1
    (Follower.commits_applied f);
  ignore (Follower.feed f "\r");
  check_int "and taken back when the line goes on" 0
    (Follower.commits_applied f);
  check "then the line is a torn tail" true (Follower.stats f).torn_tail

(* [catch_up_file] reads only the bytes past what was ingested: a file
   polled after each of its appends ends where [catch_up] on the final
   bytes does, and a file cut below what was ingested raises. *)
let test_follower_catch_up_file_tails () =
  let w = Wal.writer () in
  let hook = Hook.create w in
  let cfg = { Crash.default with policy = E.Sgt; seed = 3 } in
  let initial =
    List.init cfg.Crash.entities (fun i -> (Printf.sprintf "e%d" i, 100))
  in
  ignore
    (E.run ~policy:E.Sgt ~initial ~programs:(Crash.workload cfg)
       ~wal:(Hook.listener hook) ~seed:3 ());
  let bytes = Wal.contents w in
  let path = Filename.temp_file "follow_tail" ".wal" in
  Out_channel.with_open_bin path (fun _ -> ());
  let polled = Follower.create ~policy:E.Sgt () in
  let n = String.length bytes in
  let rng = Random.State.make [| 11 |] in
  let rec grow pos polls =
    if pos >= n then polls
    else begin
      let p = min n (pos + 1 + Random.State.int rng 400) in
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path
        (fun oc -> output_substring oc bytes pos (p - pos));
      ignore (Follower.catch_up_file polled path);
      grow p (polls + 1)
    end
  in
  let polls = grow 0 0 in
  check "the log grew over many polls" true (polls > 10);
  let whole = Follower.create ~policy:E.Sgt () in
  ignore (Follower.catch_up whole bytes);
  check_int "every byte ingested" n (Follower.ingested_bytes polled);
  check "polled store = one catch_up" true
    (Recovery.dump_string (Follower.store polled)
    = Recovery.dump_string (Follower.store whole));
  check "polled view = one catch_up" true
    (Follower.read_view polled = Follower.read_view whole
    && Follower.commits_applied polled = Follower.commits_applied whole
    && Follower.stats polled = Follower.stats whole);
  check_int "a poll with nothing new applies nothing" 0
    (Follower.catch_up_file polled path);
  Out_channel.with_open_bin path (fun oc ->
      output_substring oc bytes 0 (n / 2));
  check "a file cut below what was ingested raises" true
    (match Follower.catch_up_file polled path with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Sys.remove path

(* [read] answers one lookup without building the view: on an intact
   replica and on one degraded by a garbage line, it agrees with
   [List.assoc_opt] over [read_view] for every entity and for a name
   the log never mentions, and reading that name neither makes it
   present nor interns it (a probe name interned afterwards gets the id
   it gets on a twin replica that read nothing). *)
let test_follower_read_by_id () =
  let module S = Mvcc_engine.Store in
  List.iter
    (fun policy ->
      let w = Wal.writer () in
      let hook = Hook.create w in
      let cfg = { Crash.default with policy; seed = 5 } in
      let initial =
        List.init cfg.Crash.entities (fun i -> (Printf.sprintf "e%d" i, 100))
      in
      ignore
        (E.run ~policy ~initial ~programs:(Crash.workload cfg)
           ~wal:(Hook.listener hook) ~seed:5 ());
      let bytes = Wal.contents w in
      let n = String.length bytes in
      let cut = String.index_from bytes (n / 2) '\n' + 1 in
      let agrees name make =
        let f = make () in
        let view = Follower.read_view f in
        check (name ^ ": replica has entities") true (view <> []);
        check (name ^ ": read = assoc of read_view") true
          (List.for_all
             (fun (e, _) -> Follower.read f e = List.assoc_opt e view)
             view);
        check (name ^ ": an absent name reads None") true
          (Follower.read f "absent" = None
          && List.assoc_opt "absent" view = None);
        check (name ^ ": an absent read makes nothing present") true
          (S.entities (Follower.store f) = List.map fst view);
        check (name ^ ": an absent read interns nothing") true
          (S.intern (Follower.store f) "probe"
          = S.intern (Follower.store (make ())) "probe")
      in
      agrees "intact" (fun () ->
          let f = Follower.create ~policy () in
          ignore (Follower.catch_up f bytes);
          f);
      agrees "degraded" (fun () ->
          let f = Follower.create ~policy () in
          ignore (Follower.feed f (String.sub bytes 0 cut));
          ignore (Follower.feed f "garbage\n");
          ignore (Follower.feed f (String.sub bytes cut (n - cut)));
          check "garbage line skipped" true (Follower.skips f > 0);
          f))
    E.all_policies

let () =
  Alcotest.run "durable"
    [
      ( "wal",
        [
          Alcotest.test_case "writer lsns and roundtrip" `Quick test_wal_writer;
          Alcotest.test_case "torn tail at every byte offset" `Quick
            test_wal_torn_tail_every_offset;
          Alcotest.test_case "mid-file corruption is a skip" `Quick
            test_wal_midfile_corruption_is_skip;
          Alcotest.test_case "every single-byte change is rejected" `Quick
            test_wal_every_byte_change_rejected;
          Alcotest.test_case "window=1 is byte-identical to flush-per-record"
            `Quick test_group_window1_byte_identical;
          Alcotest.test_case "close mid-batch forces exactly once" `Quick
            test_close_mid_batch_flushes_once;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "roundtrip and torn reject" `Quick
            test_snapshot_roundtrip ] );
      ( "recovery",
        [
          Alcotest.test_case "full log, all policies" `Quick
            test_full_log_recovery_all_policies;
          Alcotest.test_case "mid-log commit loss cascades" `Quick
            test_midlog_commit_loss_cascades;
        ] );
      ( "crash",
        [
          Alcotest.test_case "600 crash points across policies" `Quick
            test_crash_injection_all_policies;
          Alcotest.test_case "600 group-commit crash points across policies"
            `Quick test_crash_group_commit_all_policies;
          Alcotest.test_case "--point replays one crash" `Quick
            test_crash_only_point_reproduces;
        ] );
      ( "follower",
        [
          Alcotest.test_case "never observes an unforced commit" `Quick
            test_follower_never_observes_unforced;
          Alcotest.test_case "State bootstrap = one-shot recovery" `Quick
            test_follower_bootstrap_equiv_recovery;
          Alcotest.test_case "lagging certified reads, all policies" `Quick
            test_follower_lagging_reads_all_policies;
          Alcotest.test_case "an unterminated record is taken back" `Quick
            test_follower_takes_back_an_unterminated_record;
          Alcotest.test_case "catch_up_file reads the unread suffix" `Quick
            test_follower_catch_up_file_tails;
          Alcotest.test_case "read by id = assoc of read_view" `Quick
            test_follower_read_by_id;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_codec_roundtrip;
            prop_codec_rejects_tamper;
            prop_codec_rejects_prefixes;
            prop_writer_bytes_match_reference;
            prop_obs_writer_byte_invariance;
            prop_wal_off_invariance;
            prop_follower_equiv_recovery;
            prop_live_certificate_is_recovered;
            prop_scanner_equals_line_splitter;
            prop_decode_prefix_in_place;
            prop_follower_damaged_equiv_recovery;
          ] );
    ]
