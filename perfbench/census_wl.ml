(* The census workload: the paper's deciders over sampled schedules.
   Schedules come in fixed batches of [batch_size]; batch [b] is drawn
   from a state seeded by [b] alone, so its Fig. 1 region counts are a
   recorded constant ([census_regions.txt], written by
   [perfbench.exe --record-census]) that every classified batch is
   checked against. The run's seed picks the first batch; batches then
   follow in order, wrapping. One domain (jobs=1). *)

open Meter
module Ctx = Mvcc_analysis.Ctx
module Gen = Mvcc_workload.Schedule_gen
module Topo = Mvcc_classes.Topography

let params =
  {
    Gen.default with
    Gen.n_txns = 5;
    n_entities = 3;
    min_steps = 1;
    max_steps = 4;
  }

let batch_size = 256
let n_batches = 1024
let table_file = "perfbench/census_regions.txt"

let regions =
  Topo.
    [|
      Outside_mvsr;
      Mvsr_only;
      Vsr_not_mvcsr;
      Mvcsr_not_vsr;
      Vsr_and_mvcsr_not_csr;
      Csr_not_serial;
      Serial;
    |]

let region_index r =
  let rec go i = if regions.(i) = r then i else go (i + 1) in
  go 0

let batch b =
  Gen.sample params (Random.State.make [| 0xce115; b |]) batch_size

(* The artifacts a census context builds, reported per schedule. *)
let artifacts =
  [
    "is_serial";
    "conflict_graph";
    "conflict_topo";
    "mv_graph";
    "mv_topo";
    "padded";
    "polygraph";
    "polygraph_solution";
    "padded_std_vf";
    "mvsr_search";
    "dmvsr_transform";
  ]

let record path =
  let oc = open_out path in
  for b = 0 to n_batches - 1 do
    let counts = Array.make (Array.length regions) 0 in
    List.iter
      (fun s ->
        let m = Topo.classify_ctx (Ctx.make s) in
        let i = region_index (Topo.region m) in
        counts.(i) <- counts.(i) + 1)
      (batch b);
    Printf.fprintf oc "%d %s\n" b
      (String.concat " " (Array.to_list (Array.map string_of_int counts)))
  done;
  close_out oc

let load_table () =
  let ic = open_in table_file in
  let t = Array.make n_batches [||] in
  (try
     while true do
       match
         String.split_on_char ' ' (input_line ic) |> List.map int_of_string
       with
       | b :: counts -> t.(b) <- Array.of_list counts
       | [] -> ()
     done
   with End_of_file -> close_in ic);
  t

(* Layer accounting of a traced phase: ns totals per stage. *)
type layers = {
  stage_ns : int array;  (** in [stage_names] order *)
  builds : (string, int) Hashtbl.t;
}

let stage_names =
  [|
    "ctx.make_us";
    "classes.serial_us";
    "classes.csr_us";
    "classes.vsr_us";
    "classes.mvcsr_us";
    "classes.mvsr_us";
    "classes.dmvsr_us";
  |]

(* The per-layer metrics [per_layer] returns, in its order, before
   [Meter.shared_layer_units]. *)
let layer_units =
  Array.to_list (Array.map (fun n -> (n, "us")) stage_names)
  @ List.map (fun a -> ("ctx.builds." ^ a, "count/op")) artifacts

type phase = {
  lat : Samples.t;
  mutable timed_ns : int;
  mutable host_ns : float;  (** [timed_ns] in reference-host ns *)
  mutable gen_ns : int;
  mutable sched_bytes : int;
  mutable batches : int;
  mutable attempted : int;
  mutable failed : int;
  mutable bad_batches : int;
  tr : layers option;
}

let new_phase ~traced =
  {
    lat = Samples.create ();
    timed_ns = 0;
    host_ns = 0.;
    gen_ns = 0;
    sched_bytes = 0;
    batches = 0;
    attempted = 0;
    failed = 0;
    bad_batches = 0;
    tr =
      (if traced then
         Some
           {
             stage_ns = Array.make (Array.length stage_names) 0;
             builds = Hashtbl.create 16;
           }
       else None);
  }

(* [classify_ctx] with each decider timed separately, in its order;
   returns the context too, for the build counts. *)
let classify_traced l s =
  let st = l.stage_ns in
  let t0 = now_ns () in
  let c = Ctx.make s in
  let t1 = now_ns () in
  let serial = Ctx.is_serial c in
  let t2 = now_ns () in
  let csr = Mvcc_classes.Csr.Decider.test c in
  let t3 = now_ns () in
  let vsr = Mvcc_classes.Vsr.Decider.test c in
  let t4 = now_ns () in
  let mvcsr = Mvcc_classes.Mvcsr.Decider.test c in
  let t5 = now_ns () in
  let mvsr = Mvcc_classes.Mvsr.Decider.test c in
  let t6 = now_ns () in
  let dmvsr = Mvcc_classes.Dmvsr.Decider.test c in
  let t7 = now_ns () in
  List.iteri
    (fun i d -> st.(i) <- st.(i) + d)
    [ t1 - t0; t2 - t1; t3 - t2; t4 - t3; t5 - t4; t6 - t5; t7 - t6 ];
  ({ Topo.serial; csr; vsr; mvcsr; mvsr; dmvsr }, c)

let tally_builds l c =
  List.iter
    (fun (name, n) ->
      Hashtbl.replace l.builds name
        (n + Option.value ~default:0 (Hashtbl.find_opt l.builds name)))
    (Ctx.build_counts c)

let run_batch table ph b =
  let g0 = now_ns () in
  let schedules = batch b in
  ph.gen_ns <- ph.gen_ns + (now_ns () - g0);
  List.iter
    (fun s ->
      ph.sched_bytes <-
        ph.sched_bytes + String.length (Mvcc_core.Schedule.to_string s))
    schedules;
  let counts = Array.make (Array.length regions) 0 in
  let bad = ref 0 in
  let h = host_factor () in
  (* the timed wall is the sum of per-schedule times: classification
     and its output check *)
  List.iter
    (fun s ->
      let s0 = now_ns () in
      let m, ctx =
        match ph.tr with
        | None -> (Topo.classify_ctx (Ctx.make s), None)
        | Some l ->
            let m, c = classify_traced l s in
            (m, Some c)
      in
      if not (Topo.consistent m) then incr bad;
      let i = region_index (Topo.region m) in
      counts.(i) <- counts.(i) + 1;
      let d = now_ns () - s0 in
      Samples.add ph.lat (ms_of_ns d /. h);
      ph.timed_ns <- ph.timed_ns + d;
      ph.host_ns <- ph.host_ns +. (float_of_int d /. h);
      match (ph.tr, ctx) with Some l, Some c -> tally_builds l c | _ -> ())
    schedules;
  ph.batches <- ph.batches + 1;
  ph.attempted <- ph.attempted + batch_size;
  if !bad > 0 || counts <> table.(b) then begin
    ph.bad_batches <- ph.bad_batches + 1;
    ph.failed <- ph.failed + batch_size
  end

let first_batch ~seed = (seed * 97) land (n_batches - 1)

let measure table ~seed ~seconds ~traced =
  let ph = new_phase ~traced in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let b = ref (first_batch ~seed) in
  while now_ns () < deadline do
    host_tick ();
    run_batch table ph !b;
    b := (!b + 1) land (n_batches - 1)
  done;
  ph

let warmup_batches = 20

(* Set-up: load the recorded counts and classify, off the timed phase,
   the [warmup_batches] batches before the run's first. *)
let setup ~seed =
  time_setup (fun () ->
      let table = load_table () in
      let ph = new_phase ~traced:false in
      for i = 1 to warmup_batches do
        host_tick ();
        run_batch table ph ((first_batch ~seed - i) land (n_batches - 1))
      done;
      (table, ph.bad_batches))

let whole_run_ops_per_s ph =
  float_of_int (ph.attempted - ph.failed) /. s_of_ns ph.timed_ns

let ops_per_s ph =
  float_of_int (ph.attempted - ph.failed) /. (ph.host_ns /. 1e9)

let phase_factor ph = float_of_int ph.timed_ns /. ph.host_ns

let end_to_end ~seed ~seconds =
  let setups = List.init setup_reps (fun _ -> setup ~seed) in
  let setup_ns = List.map fst setups in
  let setup_bad = List.fold_left (fun a (_, (_, b)) -> a + b) 0 setups in
  let table = fst (snd (List.hd setups)) in
  let ph = measure table ~seed ~seconds ~traced:false in
  let heap = heap_peak_mb () in
  let l50, l99 = Samples.p50_p99 ph.lat in
  let m name unit_ value = { name; unit_; value } in
  {
    correct = ph.bad_batches = 0 && setup_bad = 0;
    attempted = max 1 ph.attempted;
    failed = ph.failed;
    metrics =
      [
        m "ops_per_s" "1/s" (ops_per_s ph);
        m "latency_p50_ms" "ms" l50;
        m "latency_p99_ms" "ms" l99;
        m "durable_p50_ms" "ms" l50;
        m "durable_p99_ms" "ms" l99;
        m "replicated_p50_ms" "ms" l50;
        m "replicated_p99_ms" "ms" l99;
        m "log_bytes_per_commit" "B" (ratio ph.sched_bytes ph.attempted);
        m "heap_peak_mb" "MB" heap;
        m "setup_s" "s" (setup_s setup_ns);
      ];
    notes =
      [
        Printf.sprintf
          "batches %d x %d schedules, timed wall %.3f s, generation %.3f s \
           off the clock"
          ph.batches batch_size (s_of_ns ph.timed_ns) (s_of_ns ph.gen_ns);
        setup_line setup_ns;
        describe "latency (per schedule)" ph.lat;
        Printf.sprintf "raw whole run: %.1f ops/s; mean host factor %.4f"
          (whole_run_ops_per_s ph) (phase_factor ph);
        "durable = replicated = latency: the census has no log, no replica";
        "log_bytes_per_commit = bytes of a schedule in the paper's notation";
        Printf.sprintf "batches failing an output check: %d" ph.bad_batches;
      ];
  }

let per_layer ~seed ~seconds =
  let _, (table, setup_bad) = setup ~seed in
  let half = seconds /. 2. in
  let pu = measure table ~seed ~seconds:half ~traced:false in
  let pt = measure table ~seed ~seconds:half ~traced:true in
  let l = Option.get pt.tr in
  let n = float_of_int (max 1 pt.attempted) in
  let stages = Array.fold_left ( + ) 0 l.stage_ns in
  let ou = ops_per_s pu and ot = ops_per_s pt in
  let coverage = 100. *. ratio stages pt.timed_ns in
  let builds a = Option.value ~default:0 (Hashtbl.find_opt l.builds a) in
  let values =
    Array.to_list
      (Array.mapi
         (fun i name -> (name, float_of_int l.stage_ns.(i) /. 1e3 /. n))
         stage_names)
    @ List.map
        (fun a -> ("ctx.builds." ^ a, float_of_int (builds a) /. n))
        artifacts
    @ [
        ("workload.gen_ms", per_kop pt.gen_ns pt.attempted);
        ("bench.harness_ms", per_kop (pt.timed_ns - stages) pt.attempted);
        ("trace.coverage_pct", coverage);
        ("trace.overhead_pct", 100. *. (ou -. ot) /. ou);
        ("ops_per_s.untraced", ou);
        ("ops_per_s.traced", ot);
      ]
  in
  let others =
    Hashtbl.fold
      (fun a c acc ->
        if List.mem a artifacts then acc
        else Printf.sprintf "%s=%d" a c :: acc)
      l.builds []
  in
  ( values,
    phase_factor pt,
    {
      correct =
        pu.bad_batches = 0 && pt.bad_batches = 0 && setup_bad = 0
        && coverage >= coverage_gate;
      attempted = max 1 (pu.attempted + pt.attempted);
      failed = pu.failed + pt.failed;
      metrics = [];
      notes =
        [
          Printf.sprintf
            "untraced: %d batches, %.1f ops/s; traced: %d batches, %.1f \
             ops/s"
            pu.batches ou pt.batches ot;
          coverage_line coverage;
          "other ctx artifacts built: " ^ String.concat " " others;
        ];
    } )
