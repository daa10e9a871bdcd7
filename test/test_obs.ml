(* Tests for the observability layer: histogram bucketing and quantile
   extraction on known distributions, span ring accounting, the
   tolerant JSON-lines reader the trace file goes through — and the
   load-bearing property that instrumentation never changes a decision:
   every scheduler and both incremental certifiers produce identical
   outcomes with a live sink and with the noop sink, and the engine
   produces bit-identical runs. *)

open Mvcc_core
module Metrics = Mvcc_obs.Metrics
module H = Mvcc_obs.Metrics.Histogram
module Sink = Mvcc_obs.Sink
module Json = Mvcc_obs.Json
module Span = Mvcc_obs.Span
module Latency = Mvcc_obs.Latency
module Om = Mvcc_obs.Openmetrics
module Ct = Mvcc_obs.Chrome_trace
module Driver = Mvcc_sched.Driver
module Certifier = Mvcc_online.Certifier
module E = Mvcc_engine.Engine
module P = Mvcc_engine.Program
module D_wal = Mvcc_durable.Wal
module D_hook = Mvcc_durable.Hook
module Follower = Mvcc_durable.Follower

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_float name expected got =
  Alcotest.(check (float 1e-12)) name expected got

(* -- histogram bucket boundaries -- *)

let test_histogram_buckets () =
  let lo = H.lo in
  check_int "zero -> underflow bucket" 0 (H.bucket_of 0.);
  check_int "below lo -> underflow bucket" 0 (H.bucket_of (lo /. 2.));
  check_int "lo starts bucket 1" 1 (H.bucket_of lo);
  check_int "just under 2*lo stays in bucket 1" 1
    (H.bucket_of (lo *. 1.999));
  check_int "2*lo starts bucket 2" 2 (H.bucket_of (lo *. 2.));
  check_int "4*lo starts bucket 3" 3 (H.bucket_of (lo *. 4.));
  (* bucket i covers [lo * 2^(i-1), lo * 2^i) exactly *)
  for i = 1 to H.n_buckets - 2 do
    check_int
      (Printf.sprintf "lower bound of bucket %d" i)
      i
      (H.bucket_of (H.lower_bound i));
    check_int
      (Printf.sprintf "upper bound of bucket %d opens bucket %d" i (i + 1))
      (min (i + 1) (H.n_buckets - 1))
      (H.bucket_of (H.upper_bound i))
  done;
  check_int "huge values clamp to the overflow bucket" (H.n_buckets - 1)
    (H.bucket_of 1e30);
  check_float "lower bound of bucket 0" 0. (H.lower_bound 0);
  check_float "upper/lower bounds meet" (H.upper_bound 3) (H.lower_bound 4);
  check "overflow upper bound is infinite" true
    (H.upper_bound (H.n_buckets - 1) = infinity)

(* -- quantiles on known distributions -- *)

let test_histogram_quantiles () =
  let lo = H.lo in
  (* single-bucket distribution: every quantile is exact (capped at the
     observed max) *)
  let h = H.create () in
  for _ = 1 to 100 do
    H.observe h (1.5 *. lo)
  done;
  check_int "count" 100 (H.count h);
  check_float "p50 of a point mass" (1.5 *. lo) (H.quantile h 0.50);
  check_float "p99 of a point mass" (1.5 *. lo) (H.quantile h 0.99);
  check_float "max tracked exactly" (1.5 *. lo) (H.max_seen h);
  (* 90/10 split across two buckets: p50 lands in the low bucket
     (upper bound 2*lo), p95 and p99 in the high one (capped at max) *)
  let h = H.create () in
  for _ = 1 to 90 do
    H.observe h (1.5 *. lo)
  done;
  for _ = 1 to 10 do
    H.observe h (100. *. lo)
  done;
  check_float "p50 -> low bucket upper bound" (2. *. lo)
    (H.quantile h 0.50);
  check_float "p90 still in the low bucket" (2. *. lo) (H.quantile h 0.90);
  check_float "p95 -> the tail, capped at max" (100. *. lo)
    (H.quantile h 0.95);
  check_float "p99 -> the tail, capped at max" (100. *. lo)
    (H.quantile h 0.99);
  check_float "sum accumulates" ((90. *. 1.5 *. lo) +. (10. *. 100. *. lo))
    (H.sum h);
  (* empty histogram *)
  let h = H.create () in
  check_float "empty histogram quantile" 0. (H.quantile h 0.5);
  (* negative/NaN samples clamp to zero instead of corrupting state *)
  H.observe h (-1.);
  H.observe h Float.nan;
  check_int "clamped samples counted" 2 (H.count h);
  check_float "clamped samples are zero" 0. (H.quantile h 1.0)

(* -- overflow accounting -- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i =
    i + n <= h && (String.sub haystack i n = needle || at (i + 1))
  in
  at 0

let test_histogram_overflow () =
  let h = H.create () in
  (* a 0-duration sample (a timer below clock resolution) lands in the
     first bucket, not the overflow *)
  H.observe h 0.;
  check_int "zero lands in the first bucket" 0 (H.bucket_of 0.);
  check_int "zero is counted" 1 (H.count h);
  check_int "zero is not overflow" 0 (H.overflow h);
  H.observe h 1e30;
  check_int "huge sample is overflow" 1 (H.overflow h);
  check_int "overflow samples still counted" 2 (H.count h);
  (* the summary and the JSON snapshot both expose the overflow count *)
  let m = Metrics.create () in
  Metrics.observe m "lat" 0.;
  Metrics.observe m "lat" 1e30;
  (match Metrics.summary m "lat" with
  | None -> Alcotest.fail "summary missing"
  | Some s ->
      check_int "summary overflow" 1 s.Metrics.overflow;
      check_int "summary count" 2 s.Metrics.count);
  check "overflow appears in the JSON snapshot" true
    (contains (Metrics.to_json m) "\"overflow\":1")

(* -- quantile edge cases: the degenerate distributions exporters hit -- *)

let test_histogram_quantile_edges () =
  (* a single sample: every quantile is that sample, capped at max *)
  let h = H.create () in
  H.observe h (3. *. H.lo);
  check_int "single sample counted" 1 (H.count h);
  check_float "p50 of one sample" (3. *. H.lo) (H.quantile h 0.50);
  check_float "p99 of one sample" (3. *. H.lo) (H.quantile h 0.99);
  check_float "p100 of one sample" (3. *. H.lo) (H.quantile h 1.0);
  (* every sample in the overflow bucket: the bucket upper bound is
     infinite, so the max-seen cap is what keeps quantiles finite *)
  let h = H.create () in
  H.observe h 1e30;
  H.observe h 2e30;
  H.observe h 3e30;
  check_int "all samples are overflow" 3 (H.overflow h);
  check_float "overflow quantile capped at max" 3e30 (H.quantile h 0.5);
  check "overflow quantile finite" true (H.quantile h 0.99 < infinity);
  (* a never-touched histogram reads as all-neutral, and a registry
     never asked to observe reports no summary at all *)
  let h = H.create () in
  check_int "untouched count" 0 (H.count h);
  check_float "untouched quantile" 0. (H.quantile h 0.5);
  check_float "untouched max" 0. (H.max_seen h);
  check_float "untouched sum" 0. (H.sum h);
  check_int "untouched overflow" 0 (H.overflow h);
  check "unregistered summary is None" true
    (Metrics.summary (Metrics.create ()) "nope" = None)

(* -- metrics registry -- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  check_int "untouched counter reads 0" 0 (Metrics.counter m "c");
  Metrics.incr m "c";
  Metrics.incr ~by:4 m "c";
  check_int "counter accumulates" 5 (Metrics.counter m "c");
  Metrics.set_gauge m "g" 17;
  Metrics.set_gauge m "g" 3;
  check_int "gauge keeps the last value" 3 (Metrics.gauge m "g");
  Metrics.observe m "h" 1e-6;
  Metrics.observe m "h" 1e-6;
  (match Metrics.summary m "h" with
  | None -> Alcotest.fail "histogram summary missing"
  | Some s -> check_int "summary count" 2 s.Metrics.count);
  check "kind mismatch rejected" true
    (try
       Metrics.incr m "h";
       false
     with Invalid_argument _ -> true);
  (* snapshot is sorted and the JSON parses as a flat object prefix *)
  let snap = Metrics.snapshot m in
  check "snapshot sorted" true
    (List.sort (fun (a, _) (b, _) -> compare a b) snap = snap);
  check_int "snapshot covers every instrument" 3 (List.length snap);
  let json = Metrics.to_json m in
  check "json non-empty object" true
    (String.length json > 2
    && json.[0] = '{'
    && json.[String.length json - 1] = '}')

(* -- the trace file: span JSON-lines through the tolerant reader -- *)

(* a ring holding every shape the engine records: a txn root, an
   attempt closed with an abort reason, points with escaped strings and
   one attribute of each JSON type *)
let sample_ring () =
  let s = Span.create ~capacity:64 ~clock:(Span.counter_clock ()) () in
  let root = Span.start s "txn" ~attrs:[ ("txn", Json.Int 3) ] in
  let att = Span.start s ~parent:root "attempt" in
  Span.event s ~parent:att "op"
    ~attrs:
      [
        ("txn", Json.Int 3); ("entity", Json.Str "a\"b\\c");
        ("write", Json.Bool true);
      ];
  Span.event s ~parent:att "cert"
    ~attrs:[ ("arcs", Json.Int 2); ("rolled_back", Json.Bool true) ];
  Span.event s "decision"
    ~attrs:
      [
        ("site", Json.Str "engine.mvto"); ("id", Json.Int 0);
        ("ok", Json.Bool false); ("cost", Json.Float 1.5);
      ];
  Span.finish s att
    ~attrs:[ ("outcome", Json.Str "abort"); ("reason", Json.Str "cascade") ];
  Span.finish s root;
  s

(* write_jsonl emits one parseable line per retained span, in ring
   order, and only the retained ones once the ring has wrapped *)
let test_trace_json_round_trip () =
  let s = sample_ring () in
  for i = 0 to 79 do
    Span.event s "p" ~attrs:[ ("i", Json.Int i) ]
  done;
  check "ring wrapped" true (Span.dropped s > 0);
  let file = Filename.temp_file "mvcc_trace" ".jsonl" in
  let oc = open_out file in
  Span.write_jsonl oc s;
  close_out oc;
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove file;
  let parsed = List.rev_map Span.of_json !lines in
  check_int "one line per retained span"
    (List.length (Span.to_list s))
    (List.length parsed);
  check "every line parses back" true (List.for_all Option.is_some parsed);
  check "file round trips the ring" true
    (List.map Option.get parsed = Span.to_list s);
  check "ids preserved in ring order" true
    (List.map (fun sp -> sp.Span.id) (List.map Option.get parsed)
    = List.map (fun sp -> sp.Span.id) (Span.to_list s))

let test_trace_read_jsonl_tolerance () =
  let t = sample_ring () in
  let file = Filename.temp_file "mvcc_trace" ".jsonl" in
  (* a well-formed file reads back losslessly with a zero skip count *)
  let oc = open_out file in
  Span.write_jsonl oc t;
  close_out oc;
  let ic = open_in file in
  let spans, stats = Span.read_jsonl ic in
  close_in ic;
  check_int "clean file skips nothing" 0 stats.Mvcc_obs.Jsonl.skipped;
  check "clean file has no torn tail" false stats.Mvcc_obs.Jsonl.torn_tail;
  check "clean file round trips" true (spans = Span.to_list t);
  (* a damaged file: foreign output, a line truncated mid-JSON, a blank
     line, and a span missing its ticks — the good lines still come
     through *)
  let oc = open_out file in
  output_string oc "not json at all\n";
  Span.write_jsonl oc t;
  output_string oc "{\"id\":99,\"name\":\"commit\"\n";
  output_string oc "\n";
  output_string oc "{\"id\":1,\"name\":\"warp\"}\n";
  close_out oc;
  let ic = open_in file in
  let spans, stats = Span.read_jsonl ic in
  close_in ic;
  Sys.remove file;
  check_int "damaged lines counted, blank lines free" 3
    stats.Mvcc_obs.Jsonl.skipped;
  check "newline-terminated garbage is not a torn tail" false
    stats.Mvcc_obs.Jsonl.torn_tail;
  check "valid spans survive the damage" true (spans = Span.to_list t)

(* The torn-tail contract replay depends on: truncating a well-formed
   trace at EVERY byte offset of its final record must either keep that
   record whole (cut exactly at its closing byte) or report a torn tail
   — never a silent drop, never a mid-file skip. *)
let test_trace_torn_tail_every_offset () =
  let t = sample_ring () in
  let buf = Buffer.create 256 in
  List.iter
    (fun sp ->
      Buffer.add_string buf (Span.to_json sp);
      Buffer.add_char buf '\n')
    (Span.to_list t);
  let whole = Buffer.contents buf in
  let n_spans = List.length (Span.to_list t) in
  let last_line_start =
    String.rindex_from whole (String.length whole - 2) '\n' + 1
  in
  for cut = last_line_start to String.length whole - 1 do
    let spans, stats =
      Mvcc_obs.Jsonl.read_string Span.of_json (String.sub whole 0 cut)
    in
    check_int
      (Printf.sprintf "cut at byte %d: no mid-file skips" cut)
      0 stats.Mvcc_obs.Jsonl.skipped;
    if cut = String.length whole - 1 then begin
      (* the full final record minus only its newline: complete *)
      check_int "complete record without newline kept" n_spans
        (List.length spans);
      check "not reported torn" false stats.Mvcc_obs.Jsonl.torn_tail
    end
    else begin
      check_int
        (Printf.sprintf "cut at byte %d: prefix records intact" cut)
        (n_spans - 1) (List.length spans);
      check
        (Printf.sprintf "cut at byte %d: torn iff partial bytes present" cut)
        (cut > last_line_start)
        stats.Mvcc_obs.Jsonl.torn_tail
    end
  done

let test_json_parser () =
  let rt fields =
    check
      ("round trip " ^ Json.obj fields)
      true
      (Json.parse_obj (Json.obj fields) = Some fields)
  in
  rt [];
  rt [ ("a", Json.Int 42); ("b", Json.Str "x y"); ("c", Json.Bool false) ];
  rt [ ("weird \"key\"", Json.Str "v\\al\nue\t!") ];
  rt [ ("f", Json.Float 1.5); ("g", Json.Float 3.0) ];
  check "trailing garbage rejected" true
    (Json.parse_obj "{\"a\":1}x" = None);
  check "nested object rejected" true
    (Json.parse_obj "{\"a\":{\"b\":1}}" = None)

(* -- spans: ring accounting, round trip, well-formedness checker -- *)

let test_span_ring () =
  let s = Span.create ~capacity:4 ~clock:(Span.counter_clock ()) () in
  check_int "empty ring" 0 (List.length (Span.to_list s));
  check_int "no opens" 0 (Span.open_spans s);
  let root = Span.start s "txn" ~attrs:[ ("txn", Json.Int 0) ] in
  let child = Span.start s ~parent:root "attempt" in
  check_int "two open spans" 2 (Span.open_spans s);
  check_int "nothing finished yet" 0 (List.length (Span.to_list s));
  Span.finish s child ~attrs:[ ("outcome", Json.Str "commit") ];
  Span.finish s root;
  check_int "both landed in the ring" 2 (List.length (Span.to_list s));
  check_int "opens drained" 0 (Span.open_spans s);
  (* finish order, not id order: the child closed first *)
  check "child finishes first" true
    (match Span.to_list s with
    | [ a; b ] -> a.Span.name = "attempt" && b.Span.name = "txn"
    | _ -> false);
  (* attrs at start and finish concatenate *)
  check "finish attrs appended" true
    (List.exists
       (fun sp ->
         sp.Span.name = "attempt"
         && sp.Span.attrs = [ ("outcome", Json.Str "commit") ])
       (Span.to_list s));
  (* negative parent means root; unknown finish is ignored *)
  let orphan = Span.start s ~parent:(-1) "root" in
  Span.finish s 9999;
  Span.finish s (-1);
  Span.finish s orphan;
  check "negative parent is a root" true
    (List.exists
       (fun sp -> sp.Span.name = "root" && sp.Span.parent = None)
       (Span.to_list s));
  (* wraparound: overfill the capacity-4 ring with point events *)
  for i = 0 to 9 do
    Span.event s "p" ~attrs:[ ("i", Json.Int i) ]
  done;
  check_int "ring holds capacity" 4 (List.length (Span.to_list s));
  check_int "emitted counts everything" 13 (Span.emitted s);
  check_int "dropped = emitted - capacity" 9 (Span.dropped s);
  (* the monotonic ticks from the counter clock are strictly ordered in
     start order: each event's t0 exceeds the previous one's *)
  check "ticks increase" true
    (let ts = List.map (fun sp -> sp.Span.t0) (Span.to_list s) in
     List.sort compare ts = ts);
  check "bad capacity rejected" true
    (try
       ignore (Span.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true)

let test_span_json_round_trip () =
  let s = sample_ring () in
  List.iter
    (fun sp ->
      match Span.of_json (Span.to_json sp) with
      | None -> Alcotest.fail ("unparseable: " ^ Span.to_json sp)
      | Some sp' -> check ("round trip " ^ Span.to_json sp) true (sp = sp'))
    (Span.to_list s);
  check "garbage rejected" true (Span.of_json "{\"id\":1" = None);
  check "missing fields rejected" true
    (Span.of_json "{\"id\":1,\"name\":\"x\"}" = None)

let test_span_check () =
  let sp ?parent ~id ~t0 ~t1 name =
    { Span.id; parent; name; t0; t1; attrs = [] }
  in
  check "empty list sound" true (Span.check [] = None);
  let sound =
    [ sp ~id:0 ~t0:0 ~t1:5 "txn"; sp ~parent:0 ~id:1 ~t0:1 ~t1:2 "attempt" ]
  in
  check "sound tree accepted" true (Span.check sound = None);
  check "duplicate ids rejected" true
    (Span.check [ sp ~id:1 ~t0:0 ~t1:1 "a"; sp ~id:1 ~t0:0 ~t1:1 "b" ]
    <> None);
  check "t1 before t0 rejected" true
    (Span.check [ sp ~id:0 ~t0:5 ~t1:4 "a" ] <> None);
  check "child starting before parent rejected" true
    (Span.check
       [ sp ~id:0 ~t0:3 ~t1:5 "p"; sp ~parent:0 ~id:1 ~t0:1 ~t1:4 "c" ]
    <> None);
  check "parent with larger id rejected" true
    (Span.check
       [ sp ~id:0 ~t0:0 ~t1:1 ~parent:7 "c"; sp ~id:7 ~t0:0 ~t1:2 "p" ]
    <> None);
  (* a parent the ring evicted is skipped, not flagged *)
  check "evicted parent tolerated" true
    (Span.check [ sp ~parent:99 ~id:100 ~t0:0 ~t1:1 "orphan" ] = None)

(* -- exporters -- *)

let test_openmetrics_render () =
  let m = Metrics.create () in
  Metrics.incr ~by:5 m "engine.commits";
  Metrics.set_gauge m "wal.force-boundary-lsn" 17;
  Metrics.observe m "txn.commit-latency_s" 0.001;
  Metrics.observe m "txn.commit-latency_s" 0.004;
  let text = Om.render m in
  check "counter typed and totaled" true
    (contains text "# TYPE engine_commits counter"
    && contains text "engine_commits_total 5");
  check "gauge bare sample" true
    (contains text "wal_force_boundary_lsn 17");
  check "histogram renders as summary family" true
    (contains text "# TYPE txn_commit_latency_s summary"
    && contains text "txn_commit_latency_s{quantile=\"0.5\"}"
    && contains text "txn_commit_latency_s_count 2");
  check "exposition terminated" true
    (String.length text >= 6
    && String.sub text (String.length text - 6) 6 = "# EOF\n");
  check "name sanitization" true
    (Om.metric_name "a.b-c d" = "a_b_c_d");
  (* atomic write leaves exactly the rendered bytes *)
  let file = Filename.temp_file "mvcc_om" ".prom" in
  Om.write_file file m;
  let ic = open_in_bin file in
  let bytes = In_channel.input_all ic in
  close_in ic;
  Sys.remove file;
  check "write_file = render" true (bytes = text)

let test_chrome_trace_render () =
  let s = Span.create ~clock:(Span.counter_clock ()) () in
  let root = Span.start s "txn" ~attrs:[ ("txn", Json.Int 2) ] in
  Span.event s "wal.append" ~attrs:[ ("lsn", Json.Int 0) ];
  Span.event s ~parent:root "replicated" ~attrs:[ ("txn", Json.Int 2) ];
  Span.finish s root;
  let doc = Ct.render (Span.to_list s) in
  check "document shape" true
    (contains doc "\"displayTimeUnit\"" && contains doc "\"traceEvents\"");
  check "complete events" true (contains doc "\"ph\":\"X\"");
  check "process metadata present" true
    (contains doc "\"process_name\"" && contains doc "\"follower\"");
  check "engine rows keyed by txn" true (contains doc "\"tid\":2");
  (* the three pipeline processes get distinct pids *)
  check "wal under its own process" true (contains doc "\"pid\":2");
  check "follower under its own process" true (contains doc "\"pid\":3")

(* -- the span pipeline end to end: engine + WAL + follower share one
   ring; the result must be structurally sound and latency-ordered -- *)

let accounts = List.init 6 (fun i -> Printf.sprintf "a%d" i)
let initial = List.map (fun a -> (a, 100)) accounts

let pipeline_spans ~policy ~seed ~commits_window =
  let spans = Span.create ~capacity:65536 ~clock:(Span.counter_clock ()) () in
  let metrics = Metrics.create () in
  let obs = Sink.create ~metrics ~spans () in
  let w = D_wal.writer ~window:(D_wal.window ~commits:commits_window ()) ~obs () in
  let hook = D_hook.create w in
  let programs =
    List.init 4 (fun i ->
        P.transfer ~label:(string_of_int i)
          ~from_:(List.nth accounts (i mod 6))
          ~to_:(List.nth accounts ((i + 1) mod 6))
          5)
    @ [ P.read_all ~label:"r" accounts ]
  in
  let r =
    E.run ~policy ~initial ~programs ~obs
      ~wal:(D_hook.listener hook)
      ~wal_durable:(fun () -> D_wal.acked_commits w)
      ~seed ()
  in
  D_wal.close w;
  let f = Follower.create ~policy ~obs () in
  let log = D_wal.contents w in
  List.iter
    (fun (b : D_wal.boundary) ->
      ignore (Follower.catch_up f (String.sub log 0 b.D_wal.b_bytes)))
    (D_wal.force_boundaries w);
  ignore (Follower.catch_up f log);
  (r, spans, metrics)

let prop_span_tree_wellformed =
  QCheck2.Test.make
    ~name:
      "pipeline span trees are well-formed and latency points are ordered"
    ~count:60
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* policy = oneofl E.all_policies in
      let* commits_window = int_range 1 4 in
      return (seed, policy, commits_window))
    (fun (seed, policy, commits_window) ->
      let r, spans, metrics = pipeline_spans ~policy ~seed ~commits_window in
      let sl = Span.to_list spans in
      let txns = Latency.per_txn sl in
      let committed =
        List.length (List.filter (fun t -> t.Latency.t_commit <> None) txns)
      in
      Latency.observe metrics txns;
      let hist_count name =
        match Metrics.summary metrics name with
        | Some s -> s.Metrics.count
        | None -> 0
      in
      Span.check sl = None
      && Span.open_spans spans = 0
      && Span.dropped spans = 0
      && Latency.ordered txns
      && committed = r.E.stats.E.commits
      && hist_count "txn.commit-latency_s" = committed
      (* every commit the engine acked has a durability-lag sample *)
      && hist_count "txn.durability-lag_s"
         = Option.value ~default:0 r.E.durable_commits
      (* the follower replays the whole log: every commit replicated *)
      && hist_count "txn.replication-lag_s" = committed)

(* -- noop sink is inert -- *)

let test_noop_sink () =
  check "noop disabled" false (Sink.enabled Sink.noop);
  Sink.incr Sink.noop "x";
  Sink.observe Sink.noop "h" 1.;
  Sink.set_gauge Sink.noop "g" 1;
  let forced = ref false in
  Sink.span_event Sink.noop "op" ~attrs:(fun () ->
      forced := true;
      []);
  check "span attrs thunk never forced on noop" false !forced;
  check_int "time still runs the thunk" 7
    (Sink.time Sink.noop "t" (fun () -> 7));
  let m = Metrics.create () in
  let live = Sink.create ~metrics:m () in
  check "metrics-only sink enabled" true (Sink.enabled live);
  Sink.incr live "x";
  check_int "live sink records" 1 (Metrics.counter m "x")

(* -- decision invariance: instrumentation never changes behavior -- *)

let schedulers =
  [
    Mvcc_sched.Serial_sched.scheduler; Mvcc_sched.Two_pl.scheduler;
    Mvcc_sched.Tso.scheduler; Mvcc_sched.Sgt.scheduler;
    Mvcc_sched.Two_v2pl.scheduler; Mvcc_sched.Mvto.scheduler;
    Mvcc_sched.Si.scheduler; Mvcc_sched.Mvcg_sched.scheduler;
    Certifier.(scheduler Conflict); Certifier.(scheduler Mv_conflict);
  ]

let same_outcome (a : Driver.outcome) (b : Driver.outcome) =
  a.Driver.accepted = b.Driver.accepted
  && a.Driver.accepted_steps = b.Driver.accepted_steps
  && Version_fn.equal a.Driver.version_fn b.Driver.version_fn

let live_sink () =
  (* deliberately tiny rings so the property also exercises wraparound *)
  Sink.create ~metrics:(Metrics.create ()) ~spans:(Span.create ~capacity:32 ())
    ()

let gen_schedule =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let rng = Random.State.make [| seed |] in
    return
      (Mvcc_workload.Schedule_gen.schedule
         {
           Mvcc_workload.Schedule_gen.default with
           n_txns = 4;
           n_entities = 2;
           max_steps = 4;
         }
         rng))

(* The sink also counts every offered step: the accepted prefix plus the
   refused step, if any. *)
let prop_scheduler_invariance =
  QCheck2.Test.make
    ~name:"schedulers decide identically with and without a sink" ~count:400
    gen_schedule (fun s ->
      List.for_all
        (fun sched ->
          let metrics = Metrics.create () in
          let obs =
            Sink.create ~metrics ~spans:(Span.create ~capacity:32 ()) ()
          in
          let seen = Driver.run ~obs sched s in
          same_outcome (Driver.run sched s) seen
          && Metrics.counter metrics
               ("sched." ^ sched.Mvcc_sched.Scheduler.name ^ ".offered")
             = seen.Driver.accepted_steps
               + if seen.Driver.accepted then 0 else 1)
        schedulers)

let prop_certifier_invariance =
  QCheck2.Test.make
    ~name:"certifiers decide identically with and without a sink"
    ~count:400 gen_schedule (fun s ->
      List.for_all
        (fun mode ->
          let blind = Certifier.create mode in
          let seen = Certifier.create ~obs:(live_sink ()) mode in
          Array.for_all
            (fun st ->
              let a = Certifier.feed blind st in
              let b = Certifier.feed seen st in
              a = b
              && Certifier.n_accepted blind = Certifier.n_accepted seen
              && Certifier.standard_source blind st
                 = Certifier.standard_source seen st)
            (Schedule.steps s))
        [ Certifier.Conflict; Certifier.Mv_conflict ])

(* [window] > 0 attaches a WAL with that group-commit window (commits per
   force), the sink threaded through the writer too: the log bytes must
   match as well as the result. *)
let prop_engine_invariance =
  QCheck2.Test.make
    ~name:"engine runs are bit-identical with and without a sink" ~count:80
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* policy = oneofl E.all_policies in
      let* crash = oneofl [ 0.; 0.05 ] in
      let* window = int_range 0 4 in
      return (seed, policy, crash, window))
    (fun (seed, policy, crash, window) ->
      let programs =
        List.init 3 (fun i ->
            P.transfer ~label:(string_of_int i)
              ~from_:(List.nth accounts (i mod 6))
              ~to_:(List.nth accounts ((i + 1) mod 6))
              5)
        @ [ P.read_all ~label:"r" accounts ]
      in
      let run obs =
        let w =
          if window = 0 then None
          else
            Some
              (D_wal.writer ~window:(D_wal.window ~commits:window ()) ~obs ())
        in
        let hook = Option.map D_hook.create w in
        let r =
          E.run ~policy ~initial ~programs ~crash_probability:crash ~obs
            ?wal:(Option.map D_hook.listener hook)
            ?wal_durable:(Option.map (fun w () -> D_wal.acked_commits w) w)
            ~seed ()
        in
        Option.iter D_wal.close w;
        (r, Option.map D_wal.contents w)
      in
      run Sink.noop = run (live_sink ()))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram buckets" `Quick
            test_histogram_buckets;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "histogram overflow" `Quick
            test_histogram_overflow;
          Alcotest.test_case "histogram quantile edges" `Quick
            test_histogram_quantile_edges;
          Alcotest.test_case "registry" `Quick test_metrics_registry;
        ] );
      ( "trace",
        [
          Alcotest.test_case "json round trip" `Quick
            test_trace_json_round_trip;
          Alcotest.test_case "tolerant jsonl reader" `Quick
            test_trace_read_jsonl_tolerance;
          Alcotest.test_case "torn tail at every byte offset" `Quick
            test_trace_torn_tail_every_offset;
          Alcotest.test_case "json parser" `Quick test_json_parser;
        ] );
      ( "spans",
        [
          Alcotest.test_case "ring accounting" `Quick test_span_ring;
          Alcotest.test_case "json round trip" `Quick
            test_span_json_round_trip;
          Alcotest.test_case "well-formedness checker" `Quick
            test_span_check;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "openmetrics" `Quick test_openmetrics_render;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace_render;
        ] );
      ("sink", [ Alcotest.test_case "noop inert" `Quick test_noop_sink ]);
      ( "invariance",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_scheduler_invariance; prop_certifier_invariance;
            prop_engine_invariance;
          ] );
      ( "pipeline",
        List.map QCheck_alcotest.to_alcotest [ prop_span_tree_wellformed ] );
    ]
