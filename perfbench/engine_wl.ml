(* The three engine workloads: closed loops of rounds. A round submits K
   programs from [Program_gen.mixed] to one [Engine.run] call (the
   engine has no persistent session, so the next K are submitted only
   after the call returns), certifies the committed history with the
   independent checker, and — on [durable-rw] — closes the group-commit
   log and ships its forced chunks to a fresh follower. Rounds rotate
   the policy s2pl -> to -> mvto -> si -> sgt. Transactions still
   uncommitted at [max_ticks] are failures; they are never retried. *)

open Meter
module E = Mvcc_engine.Engine
module Gen = Mvcc_workload.Program_gen
module Wal = Mvcc_durable.Wal
module Hook = Mvcc_durable.Hook
module Follower = Mvcc_durable.Follower
module Checker = Mvcc_provenance.Checker
module Sink = Mvcc_obs.Sink
module Span = Mvcc_obs.Span
module Metrics = Mvcc_obs.Metrics

type shape = {
  k : int;  (** programs per round *)
  n_entities : int;
  theta : float;
  read_fraction : float;
  reads_per_txn : int;
  writes_per_txn : int;
  mix_rounds : int;
  cores : int;
  trace_cores : int;  (** cores of the traced run *)
  client_queues : int;
  batch : E.batch option;
  ro_snapshot : bool;
  durable : bool;  (** group-commit WAL + one follower per round *)
  max_ticks : int;
  warmup_rounds : int;  (** per set-up; multiples of 5 cover every policy *)
}

let policies = [| E.S2pl; E.To; E.Mvto; E.Si; E.Sgt |]
let policy_index r = ((r mod 5) + 5) mod 5

(* Layer accounting of a traced phase; totals in ns over the phase. *)
type layers = {
  metrics : Metrics.t;
  mutable run_ns : int;
  mutable engine_ns : int;
  engine_by_policy : int array;
  commits_by_policy : int array;
  mutable engine_commits : int;
  mutable aborts : int;
  mutable ticks : int;
  mutable blocked : int;
  mutable flush_ns : int;
  mutable hook_ns : int;
  mutable force_ns : int;
  mutable force_close_ns : int;
  mutable close_ns : int;
  mutable records : int;
  mutable feed_ns : int;
  mutable feed_records : int;
  mutable bootstrap_ns : int;
  mutable checker_ns : int;
  mutable attributed_ns : int;
      (** under a program span (txn, attempt, exec.flush, wal.force) or
          the checker span *)
  mutable head_ns : int;  (** in [Engine.run] before its first program span *)
  mutable tail_ns : int;  (** in [Engine.run] after its last program span *)
  mutable dropped : int;
}

type phase = {
  lat : Samples.t;  (** submit -> Wal_commit at the listener *)
  dur : Samples.t;  (** submit -> the force that acknowledged it *)
  rep : Samples.t;  (** submit -> modelled follower apply *)
  mutable timed_ns : int;  (** leader wall: engine + log close + checker *)
  mutable host_ns : float;  (** [timed_ns] in reference-host ns *)
  mutable gen_ns : int;
  mutable rounds : int;
  mutable attempted : int;
  mutable certified : int;
  mutable failed : int;
  mutable bad_rounds : int;
  mutable log_bytes : int;
  mutable log_commits : int;
  tr : layers option;
}

let new_phase ~traced =
  {
    lat = Samples.create ();
    dur = Samples.create ();
    rep = Samples.create ();
    timed_ns = 0;
    host_ns = 0.;
    gen_ns = 0;
    rounds = 0;
    attempted = 0;
    certified = 0;
    failed = 0;
    bad_rounds = 0;
    log_bytes = 0;
    log_commits = 0;
    tr =
      (if traced then
         Some
           {
             metrics = Metrics.create ();
             run_ns = 0;
             engine_ns = 0;
             engine_by_policy = Array.make 5 0;
             commits_by_policy = Array.make 5 0;
             engine_commits = 0;
             aborts = 0;
             ticks = 0;
             blocked = 0;
             flush_ns = 0;
             hook_ns = 0;
             force_ns = 0;
             force_close_ns = 0;
             close_ns = 0;
             records = 0;
             feed_ns = 0;
             feed_records = 0;
             bootstrap_ns = 0;
             checker_ns = 0;
             attributed_ns = 0;
             head_ns = 0;
             tail_ns = 0;
             dropped = 0;
           }
       else None);
  }

(* The span ring shares the benchmark's monotonic clock, so program
   spans and the benchmark's own spans sit on one time axis. *)
let span_clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let round_seed ~seed ~r = (seed * 1_000_003) + r

let inputs shape ~seed ~r =
  Gen.mixed ~n_entities:shape.n_entities ~theta:shape.theta
    ~read_fraction:shape.read_fraction ~reads_per_txn:shape.reads_per_txn
    ~writes_per_txn:shape.writes_per_txn ~mix_rounds:shape.mix_rounds
    ~n_txns:shape.k ~seed:(round_seed ~seed ~r) ()

let run_engine shape ~policy ~initial ~programs ~seed ~obs ~prov ~wal
    ?wal_durable () =
  E.run ~policy ~initial ~programs ~max_ticks:shape.max_ticks ~obs ~prov ~wal
    ?wal_durable ~cores:shape.cores ~client_queues:shape.client_queues
    ?batch:shape.batch ~ro_snapshot:shape.ro_snapshot ~seed ()

let sum_spans spans name ~lo ~hi =
  List.fold_left
    (fun acc (s : Span.span) ->
      if s.name = name && s.t0 >= lo && s.t1 <= hi then acc + (s.t1 - s.t0)
      else acc)
    0 spans

(* The program's own spans (every span the benchmark did not open)
   clipped to [lo, hi], as sorted intervals. *)
let program_intervals spans ~lo ~hi =
  List.filter_map
    (fun (s : Span.span) ->
      let a = max lo s.t0 and b = min hi s.t1 in
      if b > a && not (String.starts_with ~prefix:"bench." s.name) then
        Some (a, b)
      else None)
    spans
  |> List.sort compare

(* Length of the union of [program_intervals]. *)
let program_span_union spans ~lo ~hi =
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if a <= cb then (total, (ca, max cb b)) else (total + cb - ca, (a, b)))
      (0, (0, 0))
      (program_intervals spans ~lo ~hi)
  in
  total + snd last - fst last

let span_bounds spans name =
  match List.find_opt (fun (s : Span.span) -> s.name = name) spans with
  | Some s -> (s.t0, s.t1)
  | None -> (0, 0)

let round shape ph ~seed ~r =
  let k = shape.k in
  let policy = policies.(policy_index r) in
  let g0 = now_ns () in
  let initial, programs = inputs shape ~seed ~r in
  ph.gen_ns <- ph.gen_ns + (now_ns () - g0);
  let ring, obs =
    match ph.tr with
    | None -> (None, Sink.noop)
    | Some l ->
        let ring = Span.create ~capacity:(256 * k) ~clock:span_clock () in
        (Some ring, Sink.create ~metrics:l.metrics ~spans:ring ())
  in
  let traced = ph.tr <> None in
  let commit_t = Array.make k 0 and durable_t = Array.make k 0 in
  let force_t = Array.make (k + 2) 0 in
  let nc = ref 0 and nf = ref 0 and acked = ref 0 in
  let log =
    if shape.durable then
      let w = Wal.writer ~window:(Wal.window ~commits:4 ()) ~obs () in
      Some (w, Hook.create w)
    else None
  in
  (* A force happens inside an append (or at close): stamp it and the
     commits it acknowledges. *)
  let note_forces w =
    let f = Wal.forces w in
    if f > !nf then begin
      let t = now_ns () in
      force_t.(!nf) <- t;
      nf := f;
      let a = Wal.acked_commits w in
      for c = !acked to a - 1 do
        durable_t.(c) <- t
      done;
      acked := a
    end
  in
  (* The commit stamp (one clock read per commit) stays inside the
     engine's self time; only the log hook is timed out of it. *)
  let hook_ns = ref 0 in
  let listener ev =
    (match ev with
    | E.Wal_commit _ ->
        commit_t.(!nc) <- now_ns ();
        incr nc
    | _ -> ());
    match log with
    | None -> ()
    | Some (w, h) ->
        if traced then begin
          let h0 = now_ns () in
          Hook.listener h ev;
          note_forces w;
          hook_ns := !hook_ns + (now_ns () - h0)
        end
        else begin
          Hook.listener h ev;
          note_forces w
        end
  in
  let wal_durable =
    Option.map (fun (w, _) () -> Wal.acked_commits w) log
  in
  let prov = Mvcc_provenance.Log.create () in
  let t0 = now_ns () in
  let sp_round = Sink.span_start obs "bench.round" in
  let sp = Sink.span_start obs ~parent:sp_round "bench.engine.run" in
  let res =
    run_engine shape ~policy ~initial ~programs ~seed:(round_seed ~seed ~r)
      ~obs ~prov ~wal:listener ?wal_durable ()
  in
  Sink.span_finish obs sp;
  let sp = Sink.span_start obs ~parent:sp_round "bench.wal.close" in
  Option.iter
    (fun (w, _) ->
      Wal.close w;
      note_forces w)
    log;
  Sink.span_finish obs sp;
  let sp = Sink.span_start obs ~parent:sp_round "bench.checker" in
  let certified =
    match res.E.provenance with
    | Some (h, w) -> Checker.check h w = Checker.Confirmed
    | None -> false
  in
  Sink.span_finish obs sp;
  Sink.span_finish obs sp_round;
  let t1 = now_ns () in
  ph.timed_ns <- ph.timed_ns + (t1 - t0);
  let commits = res.E.stats.E.commits in
  (* The follower is a separate sequential consumer, off the leader's
     clock: forced chunk i is fed from max(its force time, the previous
     feed's end) for its measured duration. Each chunk goes to two
     followers in lockstep and the shorter of the two feeds counts: the
     first feed of a round (its [State] records) lasts several ms, long
     enough that the host's brief stalls land in 0.5-2% of rounds, right
     at p99, and the shorter of two rarely holds one. *)
  let rep_t = Array.make k 0 in
  let replica_ok =
    match log with
    | None -> true
    | Some (w, _) ->
        let f = Follower.create ~policy ~obs () in
        let twin = Follower.create ~policy ~obs:Sink.noop () in
        let contents = Wal.contents w in
        let prev_end = ref 0 and prev_b = ref 0 and applied = ref 0 in
        List.iteri
          (fun i (b : Wal.boundary) ->
            let len = b.Wal.b_bytes - !prev_b in
            let chunk = String.sub contents !prev_b len in
            prev_b := b.Wal.b_bytes;
            let f0 = now_ns () in
            let recs = Follower.feed f chunk in
            let f1 = now_ns () in
            ignore (Follower.feed twin chunk);
            let d = min (f1 - f0) (now_ns () - f1) in
            let fin = max force_t.(i) !prev_end + d in
            prev_end := fin;
            let a = Follower.commits_applied f in
            for c = !applied to a - 1 do
              rep_t.(c) <- fin
            done;
            applied := a;
            match ph.tr with
            | None -> ()
            | Some l ->
                l.feed_ns <- l.feed_ns + d;
                l.feed_records <- l.feed_records + recs;
                if i = 0 then l.bootstrap_ns <- l.bootstrap_ns + d)
          (Wal.force_boundaries w);
        ph.log_bytes <- ph.log_bytes + String.length contents;
        ph.log_commits <- ph.log_commits + commits;
        List.length (Wal.force_boundaries w) = !nf
        && !applied = commits
        && Wal.acked_commits w = commits
        && Follower.read_view f = List.sort compare res.E.final_state
        && Follower.read_view twin = Follower.read_view f
  in
  let ok = certified && replica_ok && !nc = commits in
  let h = host_factor () in
  ph.host_ns <- ph.host_ns +. (float_of_int (t1 - t0) /. h);
  ph.rounds <- ph.rounds + 1;
  ph.attempted <- ph.attempted + k;
  if ok then begin
    ph.certified <- ph.certified + commits;
    ph.failed <- ph.failed + (k - commits);
    let add s t = Samples.add s (ms_of_ns (t - t0) /. h) in
    for c = 0 to commits - 1 do
      add ph.lat commit_t.(c);
      if shape.durable then begin
        add ph.dur durable_t.(c);
        add ph.rep rep_t.(c)
      end
    done
  end
  else begin
    ph.failed <- ph.failed + k;
    ph.bad_rounds <- ph.bad_rounds + 1
  end;
  match (ph.tr, ring) with
  | Some l, Some ring ->
      let spans = Span.to_list ring in
      let r0, r1 = span_bounds spans "bench.engine.run" in
      let c0, c1 = span_bounds spans "bench.wal.close" in
      let k0, k1 = span_bounds spans "bench.checker" in
      let flush = sum_spans spans "exec.flush" ~lo:r0 ~hi:r1 in
      let force_run = sum_spans spans "wal.force" ~lo:r0 ~hi:r1 in
      let force_close = sum_spans spans "wal.force" ~lo:c0 ~hi:c1 in
      let engine = r1 - r0 - flush - !hook_ns in
      let pi = policy_index r in
      l.run_ns <- l.run_ns + (r1 - r0);
      l.engine_ns <- l.engine_ns + engine;
      l.engine_by_policy.(pi) <- l.engine_by_policy.(pi) + engine;
      l.commits_by_policy.(pi) <- l.commits_by_policy.(pi) + commits;
      l.engine_commits <- l.engine_commits + commits;
      l.aborts <- l.aborts + res.E.stats.E.aborts;
      l.ticks <- l.ticks + res.E.stats.E.ticks;
      l.blocked <- l.blocked + res.E.stats.E.blocked_ticks;
      l.flush_ns <- l.flush_ns + flush;
      l.hook_ns <- l.hook_ns + !hook_ns;
      l.force_ns <- l.force_ns + force_run + force_close;
      l.force_close_ns <- l.force_close_ns + force_close;
      l.close_ns <- l.close_ns + (c1 - c0);
      l.checker_ns <- l.checker_ns + (k1 - k0);
      l.attributed_ns <-
        l.attributed_ns + program_span_union spans ~lo:r0 ~hi:c1 + (k1 - k0);
      (match program_intervals spans ~lo:r0 ~hi:r1 with
      | [] -> ()
      | (a, _) :: _ as ivs ->
          let last = List.fold_left (fun m (_, b) -> max m b) a ivs in
          l.head_ns <- l.head_ns + (a - r0);
          l.tail_ns <- l.tail_ns + (r1 - last));
      l.dropped <- l.dropped + Span.dropped ring + Span.open_spans ring;
      Option.iter
        (fun (w, _) -> l.records <- l.records + Wal.next_lsn w)
        log
  | _ -> ()

(* Rounds from 0 until the deadline, ending on a whole policy rotation
   so every run weighs the five policies equally. *)
let measure shape ~seed ~seconds ~traced =
  let ph = new_phase ~traced in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let r = ref 0 in
  while now_ns () < deadline || !r mod 5 <> 0 do
    host_tick ();
    round shape ph ~seed ~r:!r;
    incr r
  done;
  ph

(* Warm-up rounds use negative round numbers: inputs of their own,
   disjoint from the measured ones. *)
let setup shape ~seed =
  time_setup (fun () ->
      let ph = new_phase ~traced:false in
      for i = 1 to shape.warmup_rounds do
        host_tick ();
        round shape ph ~seed ~r:(-i)
      done;
      ph.bad_rounds)

(* In-memory workloads write no log; their [log_bytes_per_commit] is
   what [Wal] writes for the same rounds, measured on an untimed logged
   replay of the first rounds (the listener never changes a run). The
   replay covers whole rotations and ~6400 programs, so the figure is a
   workload property rather than a property of a few rounds' aborts. *)
let replay_log_bytes shape ~seed =
  let bytes = ref 0 and commits = ref 0 in
  let rounds = 5 * max 1 (6400 / (5 * shape.k)) in
  for r = 0 to rounds - 1 do
    let initial, programs = inputs shape ~seed ~r in
    let w = Wal.writer () in
    let h = Hook.create w in
    let res =
      run_engine shape ~policy:policies.(policy_index r) ~initial ~programs
        ~seed:(round_seed ~seed ~r) ~obs:Sink.noop
        ~prov:(Mvcc_provenance.Log.create ())
        ~wal:(Hook.listener h) ()
    in
    Wal.close w;
    bytes := !bytes + String.length (Wal.contents w);
    commits := !commits + res.E.stats.E.commits
  done;
  float_of_int !bytes /. float_of_int (max 1 !commits)

let whole_run_ops_per_s ph =
  float_of_int ph.certified /. (float_of_int ph.timed_ns /. 1e9)

let ops_per_s ph = float_of_int ph.certified /. (ph.host_ns /. 1e9)

(* The phase's mean host factor: raw time over reference-host time. *)
let phase_factor ph = float_of_int ph.timed_ns /. ph.host_ns

let end_to_end shape ~seed ~seconds =
  let setups = List.init setup_reps (fun _ -> setup shape ~seed) in
  let setup_bad = List.fold_left (fun a (_, b) -> a + b) 0 setups in
  let ph = measure shape ~seed ~seconds ~traced:false in
  let heap = heap_peak_mb () in
  let log_bytes =
    if shape.durable then
      float_of_int ph.log_bytes /. float_of_int (max 1 ph.log_commits)
    else replay_log_bytes shape ~seed
  in
  let dur, rep = if shape.durable then (ph.dur, ph.rep) else (ph.lat, ph.lat) in
  let l50, l99 = Samples.p50_p99 ph.lat
  and d50, d99 = Samples.p50_p99 dur
  and r50, r99 = Samples.p50_p99 rep in
  let m name unit_ value = { name; unit_; value } in
  {
    correct = ph.bad_rounds = 0 && setup_bad = 0;
    attempted = max 1 ph.attempted;
    failed = ph.failed;
    metrics =
      [
        m "ops_per_s" "1/s" (ops_per_s ph);
        m "latency_p50_ms" "ms" l50;
        m "latency_p99_ms" "ms" l99;
        m "durable_p50_ms" "ms" d50;
        m "durable_p99_ms" "ms" d99;
        m "replicated_p50_ms" "ms" r50;
        m "replicated_p99_ms" "ms" r99;
        m "log_bytes_per_commit" "B" log_bytes;
        m "heap_peak_mb" "MB" heap;
        m "setup_s" "s" (setup_s (List.map fst setups));
      ];
    notes =
      [
        Printf.sprintf
          "rounds %d (K=%d), timed wall %.3f s, generation %.3f s off the \
           clock"
          ph.rounds shape.k (s_of_ns ph.timed_ns) (s_of_ns ph.gen_ns);
        setup_line (List.map fst setups);
        describe "latency" ph.lat;
        (if shape.durable then describe "durable" ph.dur
         else "durable = latency: in memory, a commit is final when made");
        (if shape.durable then describe "replicated" ph.rep
         else "replicated = latency: no replica");
        Printf.sprintf "raw whole run: %.1f ops/s; mean host factor %.4f"
          (whole_run_ops_per_s ph) (phase_factor ph);
        Printf.sprintf "rounds failing an output check: %d" ph.bad_rounds;
      ];
  }

(* The per-layer metrics [per_layer] returns, in its order, before
   [Meter.shared_layer_units]. *)
let layer_units =
  [
    ("engine.self_ms", "ms/kop");
    ("engine.self_ms.s2pl", "ms/kop");
    ("engine.self_ms.to", "ms/kop");
    ("engine.self_ms.mvto", "ms/kop");
    ("engine.self_ms.si", "ms/kop");
    ("engine.self_ms.sgt", "ms/kop");
    ("engine.ns_per_tick", "ns");
    ("engine.ticks_per_commit", "count");
    ("engine.commit_ratio", "ratio");
    ("engine.blocked_frac", "ratio");
    ("engine.cert.feed_ms", "ms/kop");
    ("engine.cert.reorder_moves", "count/op");
    ("exec_stage.flush_ms", "ms/kop");
    ("exec_stage.waves_per_flush", "count");
    ("exec_stage.txns_per_flush", "count");
    ("engine.ro.offloop", "count/op");
    ("engine.ro.deferred", "count/op");
    ("wal.append_ns_per_record", "ns");
    ("wal.records_per_commit", "count");
    ("wal.forces_per_commit", "count");
    ("wal.force_ms", "ms/kop");
    ("wal.close_ms", "ms/kop");
    ("follower.feed_ms", "ms/kop");
    ("follower.ns_per_record", "ns");
    ("follower.bootstrap_ms", "ms");
    ("checker.check_ms", "ms/kop");
    ("trace.span_coverage_pct", "%");
  ]

let per_layer shape ~seed ~seconds =
  let shape = { shape with cores = shape.trace_cores } in
  let _, setup_bad = setup shape ~seed in
  let half = seconds /. 2. in
  let pu = measure shape ~seed ~seconds:half ~traced:false in
  let pt = measure shape ~seed ~seconds:half ~traced:true in
  let l = Option.get pt.tr in
  let counter name = Metrics.counter l.metrics name in
  let hist name =
    match Metrics.summary l.metrics name with
    | Some s -> (s.Metrics.sum, s.Metrics.count)
    | None -> (0., 0)
  in
  let c = l.engine_commits in
  let ops = pt.certified in
  (* Self times: a span minus the spans it contains. Forces happen
     inside appends (within [Hook.listener]) or inside [Wal.close]. *)
  let wal_append = l.hook_ns - (l.force_ns - l.force_close_ns) in
  let close_self = l.close_ns - l.force_close_ns in
  let harness = pt.timed_ns - l.run_ns - l.close_ns - l.checker_ns in
  (* The self times above split each timed call among layers, so their
     sum is the timed wall less the benchmark's bookkeeping by
     construction: the gate on it checks only harness overhead. *)
  let covered =
    l.engine_ns + l.flush_ns + wal_append + l.force_ns + close_self
    + l.checker_ns
  in
  let coverage = 100. *. ratio covered pt.timed_ns in
  (* The share the program attributes itself: time inside [Engine.run]
     or [Wal.close] outside every txn, attempt, exec.flush and wal.force
     span lowers it. *)
  let span_coverage = 100. *. ratio l.attributed_ns pt.timed_ns in
  let unattributed = pt.timed_ns - l.attributed_ns in
  let ou = ops_per_s pu and ot = ops_per_s pt in
  let waves_sum, flushes = hist "engine.stage.waves" in
  let flushes = float_of_int (max 1 flushes) in
  let txns_sum, _ = hist "engine.stage.batch-txns" in
  let feed_s, _ = hist "engine.cert.feed_s" in
  let pol i = per_kop l.engine_by_policy.(i) l.commits_by_policy.(i) in
  let values =
    [
      ("engine.self_ms", per_kop l.engine_ns ops);
      ("engine.self_ms.s2pl", pol 0);
      ("engine.self_ms.to", pol 1);
      ("engine.self_ms.mvto", pol 2);
      ("engine.self_ms.si", pol 3);
      ("engine.self_ms.sgt", pol 4);
      ("engine.ns_per_tick", ratio l.engine_ns l.ticks);
      ("engine.ticks_per_commit", ratio l.ticks c);
      ("engine.commit_ratio", ratio c (c + l.aborts));
      ("engine.blocked_frac", ratio l.blocked l.ticks);
      ("engine.cert.feed_ms", feed_s *. 1e6 /. float_of_int (max 1 ops));
      ( "engine.cert.reorder_moves",
        ratio (counter "engine.cert.reorder-moves") c );
      ("exec_stage.flush_ms", per_kop l.flush_ns ops);
      ("exec_stage.waves_per_flush", waves_sum /. flushes);
      ("exec_stage.txns_per_flush", txns_sum /. flushes);
      ("engine.ro.offloop", ratio (counter "engine.ro.offloop") c);
      ("engine.ro.deferred", ratio (counter "engine.ro.deferred") c);
      ("wal.append_ns_per_record", ratio wal_append l.records);
      ("wal.records_per_commit", ratio l.records c);
      ("wal.forces_per_commit", ratio (counter "wal.forces") c);
      ("wal.force_ms", per_kop l.force_ns ops);
      ("wal.close_ms", per_kop close_self ops);
      ("follower.feed_ms", per_kop l.feed_ns ops);
      ("follower.ns_per_record", ratio l.feed_ns l.feed_records);
      ( "follower.bootstrap_ms",
        ms_of_ns l.bootstrap_ns /. float_of_int (max 1 pt.rounds) );
      ("checker.check_ms", per_kop l.checker_ns ops);
      ("trace.span_coverage_pct", span_coverage);
      ("workload.gen_ms", per_kop pt.gen_ns ops);
      ("bench.harness_ms", per_kop harness ops);
      ("trace.coverage_pct", coverage);
      ("trace.overhead_pct", 100. *. (ou -. ot) /. ou);
      ("ops_per_s.untraced", ou);
      ("ops_per_s.traced", ot);
    ]
  in
  ( values,
    phase_factor pt,
    {
      correct =
        pu.bad_rounds = 0 && pt.bad_rounds = 0 && setup_bad = 0
        && l.dropped = 0 && coverage >= coverage_gate;
      attempted = max 1 (pu.attempted + pt.attempted);
      failed = pu.failed + pt.failed;
      metrics = [];
      notes =
        [
          Printf.sprintf
            "untraced: %d rounds, %.1f ops/s (raw %.1f); traced: %d \
             rounds, %.1f ops/s (raw %.1f)"
            pu.rounds ou (whole_run_ops_per_s pu) pt.rounds ot
            (whole_run_ops_per_s pt);
          coverage_line coverage;
          Printf.sprintf
            "program spans and the checker cover %.2f%% of it; of the \
             rest, %.1f%% is in Engine.run before its first span and \
             %.1f%% after its last"
            span_coverage
            (100. *. ratio l.head_ns unattributed)
            (100. *. ratio l.tail_ns unattributed);
          Printf.sprintf "spans lost to ring overflow or left open: %d"
            l.dropped;
        ];
    } )
