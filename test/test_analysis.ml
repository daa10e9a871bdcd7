(* Tests for the unified decider core: the shared analysis context's
   compute-once guarantee, decision invariance of every Decider against
   the direct per-schedule seed path, and the Pool's determinism
   contract (jobs-count invariance). *)

open Mvcc_core
module Ctx = Mvcc_analysis.Ctx
module D = Mvcc_analysis.Decider
module Pool = Mvcc_exec.Pool
module T = Mvcc_classes.Topography
module P = Mvcc_provenance

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let sched = Schedule.of_string

let gen_schedule =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let rng = Random.State.make [| seed |] in
    return
      (Mvcc_workload.Schedule_gen.schedule
         { Mvcc_workload.Schedule_gen.default with
           n_txns = 3; n_entities = 2; max_steps = 3 }
         rng))

(* -- single construction: however many decider operations run against
   one context, each underlying analysis is built exactly once -- *)

let test_single_construction () =
  let s = sched "R1(x) R2(x) W1(x) W2(x) R3(y) W3(y)" in
  let c = Ctx.make s in
  checki "nothing built yet" 0 (Ctx.builds c "conflict_graph");
  ignore (Mvcc_classes.Csr.Decider.test c);
  ignore (Mvcc_classes.Csr.Decider.witness c);
  ignore (Mvcc_classes.Csr.Decider.violation c);
  ignore (Mvcc_classes.Csr.Decider.decide c);
  checki "conflict graph built once" 1 (Ctx.builds c "conflict_graph");
  ignore (Mvcc_classes.Mvcsr.Decider.test c);
  ignore (Mvcc_classes.Mvcsr.Decider.witness c);
  ignore (Mvcc_classes.Mvcsr.Decider.violation c);
  ignore (Mvcc_classes.Mvcsr.Decider.decide c);
  checki "mv graph built once" 1 (Ctx.builds c "mv_graph");
  ignore (Mvcc_classes.Vsr.Decider.test c);
  ignore (Mvcc_classes.Vsr.Decider.witness c);
  ignore (Mvcc_classes.Vsr.Decider.decide c);
  checki "polygraph built once" 1 (Ctx.builds c "polygraph");
  checki "polygraph solved once" 1 (Ctx.builds c "polygraph_solution");
  ignore (Mvcc_classes.Fsr.Decider.test c);
  ignore (Mvcc_classes.Fsr.Decider.witness c);
  ignore (Mvcc_classes.Fsr.Decider.decide c);
  checki "fsr search ran once" 1 (Ctx.builds c "fsr_search");
  ignore (Mvcc_classes.Mvsr.Decider.test c);
  ignore (Mvcc_classes.Mvsr.Decider.decide c);
  ignore (Mvcc_classes.Dmvsr.Decider.test c);
  checki "mvsr search ran once" 1 (Ctx.builds c "mvsr_search")

let test_report_single_construction () =
  let s = sched "W1(x) R2(x) R3(y) W2(y) W3(x)" in
  let c = Ctx.make s in
  ignore (Mvcc_classes.Report.of_ctx c);
  List.iter
    (fun (name, n) ->
      check (Printf.sprintf "%s built at most once (got %d)" name n) true
        (n <= 1))
    (Ctx.build_counts c);
  checki "report reused the one polygraph solve" 1
    (Ctx.builds c "polygraph_solution")

(* a blind-write-free schedule shares the MVSR search with DMVSR; the
   fixture is MVSR but not MVCSR, so neither decider's containment
   shortcut settles it and the search does run *)
let test_dmvsr_shares_mvsr_search () =
  let s = sched "R2(x) W2(x) R3(x) W3(x) W2(x) R1(x)" in
  check "fixture has no blind writes" false
    (Mvcc_classes.Dmvsr.has_blind_writes s);
  check "fixture is not MVCSR" false (Mvcc_classes.Mvcsr.test s);
  check "fixture is MVSR" true (Mvcc_classes.Mvsr.test s);
  let c = Ctx.make s in
  ignore (Mvcc_classes.Mvsr.Decider.test c);
  ignore (Mvcc_classes.Dmvsr.Decider.test c);
  checki "one search for both classes" 1 (Ctx.builds c "mvsr_search")

(* -- decision invariance: every registered decider, through a shared
   context, agrees with the direct seed-path entry points -- *)

let seed_test name s =
  match name with
  | "CSR" -> Some (Mvcc_classes.Csr.test s)
  | "MVCSR" -> Some (Mvcc_classes.Mvcsr.test s)
  | "VSR" -> Some (Mvcc_classes.Vsr.test s)
  | "MVSR" -> Some (Mvcc_classes.Mvsr.test s)
  | "FSR" -> Some (Mvcc_classes.Fsr.test s)
  | "DMVSR" -> Some (Mvcc_classes.Dmvsr.test s)
  | "K{WW,RW}" ->
      Some
        (Mvcc_classes.Family.test
           ~kinds:[ Mvcc_classes.Family.Ww; Mvcc_classes.Family.Rw ]
           s)
  | _ -> None

let prop_decider_matches_seed_path =
  QCheck2.Test.make
    ~name:"every Decider through Ctx equals the direct seed path" ~count:150
    gen_schedule (fun s ->
      let c = Ctx.make s in
      List.for_all
        (fun d ->
          let via_ctx = D.test d c in
          let direct =
            match seed_test (D.name d) s with
            | Some v -> v
            | None -> QCheck2.Test.fail_reportf "unknown decider %s" (D.name d)
          in
          let verdict, w = D.decide d c in
          let witness_ok =
            match D.witness d c with
            | Some r -> via_ctx && Schedule.is_serial r
            | None -> true
          in
          via_ctx = direct && verdict = direct && witness_ok
          && P.Checker.check s w <> P.Checker.Refuted)
        Mvcc_classes.Deciders.all)

let prop_family_deciders_certified =
  QCheck2.Test.make
    ~name:"every lattice subset's decider is checker-confirmed" ~count:80
    gen_schedule (fun s ->
      let c = Ctx.make s in
      List.for_all
        (fun kinds ->
          let d = Mvcc_classes.Family.decider ~kinds in
          let verdict, w = D.decide d c in
          verdict = Mvcc_classes.Family.test ~kinds s
          && P.Checker.check s w <> P.Checker.Refuted)
        Mvcc_classes.Family.subsets)

let prop_report_of_ctx_matches_make =
  QCheck2.Test.make ~name:"Report.of_ctx = Report.make" ~count:100
    gen_schedule (fun s ->
      let a = Mvcc_classes.Report.make s in
      let b = Mvcc_classes.Report.of_ctx (Ctx.make s) in
      let d (r : Mvcc_classes.Report.t) =
        ( r.serial, r.csr.in_class, r.vsr.in_class, r.fsr.in_class,
          r.mvcsr.in_class, r.mvsr.in_class, r.dmvsr.in_class,
          T.region_name r.region, r.mvsr_certificate,
          Option.map Schedule.to_string r.csr.witness,
          Option.map Schedule.to_string r.vsr.witness )
      in
      d a = d b)

(* -- containment shortcuts: VSR, MVSR and DMVSR's [Decider.test] may
   answer from a cheaper class; the schedule-level tests never do -- *)

(* The census workload's shape: 5 transactions of 1-4 steps over 3
   entities, with repeated accesses. *)
let gen_census_schedule =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let rng = Random.State.make [| seed |] in
    return
      (Mvcc_workload.Schedule_gen.schedule
         { Mvcc_workload.Schedule_gen.default with
           n_txns = 5; n_entities = 3; min_steps = 1; max_steps = 4 }
         rng))

(* Through [classify_ctx] on one shared context (the census's order), and
   each decider alone on a fresh context (no other class cached). *)
let shortcuts_agree s =
  let full =
    [ Mvcc_classes.Vsr.test s; Mvcc_classes.Mvsr.test s;
      Mvcc_classes.Dmvsr.test s ]
  in
  let m = T.classify_ctx (Ctx.make s) in
  let alone (module X : D.S) = X.test (Ctx.make s) in
  [ m.T.vsr; m.T.mvsr; m.T.dmvsr ] = full
  && [ alone (module Mvcc_classes.Vsr.Decider);
       alone (module Mvcc_classes.Mvsr.Decider);
       alone (module Mvcc_classes.Dmvsr.Decider) ]
     = full

let prop_shortcuts_match_full =
  QCheck2.Test.make
    ~name:"VSR, MVSR, DMVSR Decider.test = full procedure (census shape)"
    ~count:1000 gen_census_schedule shortcuts_agree

let test_shortcuts_universe () =
  let checked = ref 0 in
  Seq.iter
    (fun s ->
      incr checked;
      check (Schedule.to_string s) true (shortcuts_agree s))
    (Mvcc_workload.Enumerate.schedules ~n_txns:3 ~n_entities:1 ~max_steps:2
       ());
  check "universe was nontrivial" true (!checked > 1000)

(* -- the VSR polygraph against the padded-schedule construction -- *)

(* Oracle: the polygraph as it was built over a materialised padded
   schedule and its standard version function. *)
let polygraph_of_padded s =
  let module Polygraph = Mvcc_polygraph.Polygraph in
  let p = Padding.pad s in
  let std = Version_fn.standard p in
  let n = Schedule.n_txns p in
  let k = Schedule.n_entities p in
  let writers = Array.make k [] in
  for pos = 0 to Schedule.length p - 1 do
    let st = Schedule.step p pos in
    if Step.is_write st then begin
      let e = Schedule.entity_at p pos in
      if not (List.mem st.txn writers.(e)) then
        writers.(e) <- st.txn :: writers.(e)
    end
  done;
  let arcs = ref [] in
  let choices = ref [] in
  for t = 1 to n - 1 do
    arcs := (0, t) :: !arcs
  done;
  for t = 0 to n - 2 do
    arcs := (t, n - 1) :: !arcs
  done;
  let add_read_from reader e writer =
    if reader <> writer then begin
      arcs := (writer, reader) :: !arcs;
      List.iter
        (fun k ->
          if k <> writer && k <> reader then
            choices := { Polygraph.j = reader; k; i = writer } :: !choices)
        writers.(e)
    end
  in
  let own_write_before = Array.make (n * k) false in
  let unrealizable = ref false in
  for pos = 0 to Schedule.length p - 1 do
    let st = Schedule.step p pos in
    let e = Schedule.entity_at p pos in
    match st.action with
    | Step.Write -> own_write_before.((st.txn * k) + e) <- true
    | Step.Read -> (
        match Version_fn.get std pos with
        | Some (Version_fn.From q) ->
            let writer = (Schedule.step p q).txn in
            if writer <> st.txn && own_write_before.((st.txn * k) + e) then
              unrealizable := true;
            add_read_from st.txn e writer
        | Some Version_fn.Initial -> add_read_from st.txn e 0
        | None -> assert false)
  done;
  if !unrealizable then Polygraph.make ~n ~arcs:[ (0, 1); (1, 0) ] ~choices:[]
  else Polygraph.make ~n ~arcs:!arcs ~choices:(List.sort_uniq compare !choices)

let prop_polygraph_matches_padded =
  QCheck2.Test.make
    ~name:"VSR polygraph from the schedule = padded-schedule construction"
    ~count:1000
    QCheck2.Gen.(oneof [ gen_census_schedule; gen_schedule ])
    (fun s ->
      Mvcc_analysis.Vsr_polygraph.of_schedule s = polygraph_of_padded s)

(* -- Pool determinism -- *)

let prop_pool_map_equals_list_map =
  QCheck2.Test.make ~name:"Pool.map ~jobs:4 = List.map" ~count:60
    QCheck2.Gen.(list_size (int_range 0 40) (int_range (-1000) 1000))
    (fun xs ->
      let f x = (x * 31) lxor 7 in
      Pool.map (Pool.create ~jobs:4) f xs = List.map f xs)

let test_pool_census_invariance () =
  let rng = Random.State.make [| 7 |] in
  let drawn =
    Mvcc_workload.Schedule_gen.sample
      { Mvcc_workload.Schedule_gen.default with
        n_txns = 3; n_entities = 2; max_steps = 3 }
      rng 200
  in
  let classify s = T.region (T.classify_ctx (Ctx.make s)) in
  let seq = List.map classify drawn in
  List.iter
    (fun jobs ->
      check
        (Printf.sprintf "census identical at jobs=%d" jobs)
        true
        (Pool.map (Pool.create ~jobs) classify drawn = seq))
    [ 1; 2; 4 ]

let test_pool_enumerate_invariance () =
  let universe =
    Mvcc_workload.Enumerate.schedules ~n_txns:2 ~n_entities:2 ~max_steps:2 ()
    |> List.of_seq
  in
  check "universe nonempty" true (List.length universe > 100);
  let verdicts s =
    let c = Ctx.make s in
    List.map (fun d -> D.test d c) Mvcc_classes.Deciders.all
  in
  let seq = List.map verdicts universe in
  check "enumerated universe identical at jobs=4" true
    (Pool.map (Pool.create ~jobs:4) verdicts universe = seq)

let test_pool_exception () =
  let xs = List.init 20 Fun.id in
  check "exception propagates" true
    (try
       ignore
         (Pool.map (Pool.create ~jobs:3)
            (fun x -> if x = 13 then failwith "boom" else x)
            xs);
       false
     with Failure m -> m = "boom")

(* -- Schedule.hash -- *)

let prop_hash_consistent_with_equal =
  QCheck2.Test.make ~name:"Schedule.equal implies equal hashes" ~count:200
    QCheck2.Gen.(pair gen_schedule gen_schedule)
    (fun (a, b) ->
      (not (Schedule.equal a b)) || Schedule.hash a = Schedule.hash b)

let test_hash_sensitivity () =
  let a = sched "R1(x) W1(x) R2(x) W2(x)" in
  let b = sched "R1(x) W1(x) W2(x) R2(x)" in
  let c = sched "R1(x) W1(x) R2(y) W2(x)" in
  checki "equal schedules share a hash" (Schedule.hash a)
    (Schedule.hash (sched "R1(x) W1(x) R2(x) W2(x)"));
  check "step order reaches the hash" true (Schedule.hash a <> Schedule.hash b);
  check "entities reach the hash" true (Schedule.hash a <> Schedule.hash c);
  check "hash is non-negative" true (Schedule.hash b >= 0)

let test_ctx_cache () =
  let cached = Ctx.cache () in
  let s = sched "R1(x) W1(x) R2(x) W2(x)" in
  let c1 = cached s in
  let c2 = cached (sched "R1(x) W1(x) R2(x) W2(x)") in
  check "equal schedules share one context" true (c1 == c2);
  ignore (Mvcc_classes.Csr.Decider.test c1);
  checki "work is shared through the cache" 1 (Ctx.builds c2 "conflict_graph");
  check "different schedule, different context" true
    (cached (sched "W1(x) R1(x)") != c1)

let () =
  Alcotest.run "analysis"
    [
      ( "ctx",
        [
          Alcotest.test_case "single construction" `Quick
            test_single_construction;
          Alcotest.test_case "report single construction" `Quick
            test_report_single_construction;
          Alcotest.test_case "dmvsr shares mvsr search" `Quick
            test_dmvsr_shares_mvsr_search;
          Alcotest.test_case "context cache" `Quick test_ctx_cache;
          Alcotest.test_case "shortcuts = full procedures, 3x1x2 universe"
            `Quick test_shortcuts_universe;
        ] );
      ( "pool",
        [
          Alcotest.test_case "census invariance" `Quick
            test_pool_census_invariance;
          Alcotest.test_case "enumerated universe invariance" `Quick
            test_pool_enumerate_invariance;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
        ] );
      ( "hash",
        [ Alcotest.test_case "sensitivity" `Quick test_hash_sensitivity ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_decider_matches_seed_path;
            prop_family_deciders_certified;
            prop_report_of_ctx_matches_make;
            prop_shortcuts_match_full;
            prop_polygraph_matches_padded;
            prop_pool_map_equals_list_map;
            prop_hash_consistent_with_equal;
          ] );
    ]
