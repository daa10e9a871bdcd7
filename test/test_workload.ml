(* Tests for the workload generators: parameter conformance, determinism,
   and the structural guarantees the experiments rely on. *)

open Mvcc_core
module G = Mvcc_workload.Schedule_gen
module PG = Mvcc_workload.Polygraph_gen
module Z = Mvcc_workload.Zipf
module P = Mvcc_polygraph.Polygraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rng seed = Random.State.make [| seed |]

(* -- Zipf -- *)

let test_zipf_bounds () =
  let z = Z.make ~n:5 ~theta:1.2 in
  let r = rng 1 in
  for _ = 1 to 500 do
    let k = Z.sample z r in
    check "in range" true (k >= 0 && k < 5)
  done

let test_zipf_skew () =
  let r = rng 2 in
  let count z =
    let hits = ref 0 in
    for _ = 1 to 2000 do
      if Z.sample z r = 0 then incr hits
    done;
    !hits
  in
  let uniform = count (Z.make ~n:10 ~theta:0.) in
  let skewed = count (Z.make ~n:10 ~theta:2.) in
  check "skew concentrates on item 0" true (skewed > uniform * 2)

let test_zipf_validation () =
  check "n=0 rejected" true
    (try ignore (Z.make ~n:0 ~theta:1.); false with Invalid_argument _ -> true);
  check "negative theta rejected" true
    (try ignore (Z.make ~n:3 ~theta:(-1.)); false
     with Invalid_argument _ -> true)

(* Zipf properties: sampled frequencies are monotone non-increasing in
   rank (up to sampling noise), and the skew parameter actually skews —
   theta = 0 is indistinguishable from uniform. *)

let zipf_counts ~n ~theta ~samples seed =
  let z = Z.make ~n ~theta in
  let r = rng seed in
  let counts = Array.make n 0 in
  for _ = 1 to samples do
    let k = Z.sample z r in
    counts.(k) <- counts.(k) + 1
  done;
  counts

let prop_zipf_monotone =
  QCheck2.Test.make
    ~name:"zipf sampled frequencies are monotone non-increasing in rank"
    ~count:40
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* n = int_range 2 8 in
      let* theta = float_range 0.5 2.0 in
      return (seed, n, theta))
    (fun (seed, n, theta) ->
      let samples = 20_000 in
      let counts = zipf_counts ~n ~theta ~samples seed in
      (* 3 sigma of a binomial count leaves ~1e-3 flake odds per pair *)
      let slack = 3. *. sqrt (float_of_int samples) in
      List.for_all
        (fun k ->
          float_of_int counts.(k + 1)
          <= float_of_int counts.(k) +. slack)
        (List.init (n - 1) Fun.id))

(* Upper 1e-6 quantiles of the chi-square distribution with 1 .. 7
   degrees of freedom. One chi-square test per draw at that false-alarm
   rate keeps a correct sampler's odds of failing a 40-draw run below
   4e-5. *)
let chi2_crit_1e6 = [| 23.928; 27.631; 30.665; 33.377; 35.888; 38.258; 40.522 |]

let prop_zipf_theta_zero_uniform =
  QCheck2.Test.make ~name:"zipf at theta=0 is uniform" ~count:40
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* n = int_range 2 8 in
      return (seed, n))
    (fun (seed, n) ->
      let samples = 20_000 in
      let counts = zipf_counts ~n ~theta:0. ~samples seed in
      let expect = float_of_int samples /. float_of_int n in
      let chi2 =
        Array.fold_left
          (fun acc c ->
            let d = float_of_int c -. expect in
            acc +. (d *. d /. expect))
          0. counts
      in
      chi2 <= chi2_crit_1e6.(n - 2))

(* -- schedule generation -- *)

let test_schedule_params () =
  let params = { G.default with n_txns = 4; n_entities = 3; min_steps = 2; max_steps = 5 } in
  let r = rng 3 in
  for _ = 1 to 50 do
    let s = G.schedule params r in
    check_int "txn count" 4 (Schedule.n_txns s);
    for i = 0 to 3 do
      let len = List.length (Schedule.txn_program s i) in
      check "steps in range" true (len >= 2 && len <= 5)
    done;
    List.iter
      (fun (st : Step.t) -> ignore st.Step.entity)
      (Array.to_list (Schedule.steps s))
  done

let test_no_blind_writes () =
  let params = { G.default with no_blind_writes = true; max_steps = 6 } in
  let r = rng 4 in
  for _ = 1 to 100 do
    let s = G.schedule params r in
    check "restricted model holds" false (Mvcc_classes.Dmvsr.has_blind_writes s)
  done

let test_interleave_preserves_programs () =
  let progs =
    [ [ Step.read 0 "x"; Step.write 0 "x" ]; [ Step.read 1 "y" ] ]
  in
  let r = rng 5 in
  for _ = 1 to 20 do
    let s = G.interleave progs r in
    check_int "length" 3 (Schedule.length s);
    check "program 0 preserved" true
      (List.equal Step.equal (Schedule.txn_program s 0) (List.nth progs 0))
  done

let test_two_step_model () =
  let params = { G.default with two_step = true; max_steps = 5 } in
  let r = rng 12 in
  for _ = 1 to 100 do
    let s = G.schedule params r in
    for i = 0 to Schedule.n_txns s - 1 do
      (* all reads precede all writes within each program *)
      let prog = Schedule.txn_program s i in
      let rec check_shape seen_write = function
        | [] -> true
        | st :: rest ->
            if Step.is_read st then
              (not seen_write) && check_shape seen_write rest
            else check_shape true rest
      in
      check "reads before writes" true (check_shape false prog)
    done;
    check "distinct accesses implied" true
      (List.for_all
         (fun i ->
           let prog = Schedule.txn_program s i in
           let reads = List.filter Step.is_read prog in
           List.length (List.sort_uniq compare reads) = List.length reads)
         (List.init (Schedule.n_txns s) Fun.id))
  done;
  (* restricted 2-step: writes are covered by reads *)
  let restricted = { params with no_blind_writes = true } in
  for _ = 1 to 100 do
    let s = G.schedule restricted r in
    check "no blind writes" false (Mvcc_classes.Dmvsr.has_blind_writes s)
  done

let test_determinism () =
  let params = G.default in
  let a = G.sample params (rng 7) 10 in
  let b = G.sample params (rng 7) 10 in
  check "same seed same schedules" true (List.equal Schedule.equal a b)

(* -- polygraph generation -- *)

let test_polygraph_assumptions () =
  let params = { PG.n_nodes = 7; arc_density = 0.4; choices_per_arc = 1.2 } in
  let r = rng 8 in
  for _ = 1 to 50 do
    let p = PG.generate params r in
    check "assumption b" true (P.assumption_b p);
    check "assumption c" true (P.assumption_c p)
  done

let test_disjoint_polygraphs () =
  let params = { PG.n_nodes = 9; arc_density = 0.4; choices_per_arc = 1.0 } in
  let r = rng 9 in
  for _ = 1 to 50 do
    let p = PG.generate_disjoint params r in
    check "disjoint" true (P.choice_disjoint p);
    check "assumption b" true (P.assumption_b p);
    check "assumption c" true (P.assumption_c p);
    check "has a choice" true (List.length p.P.choices >= 1)
  done

let test_random_monotone_shape () =
  let r = rng 10 in
  for _ = 1 to 50 do
    let f = PG.random_monotone ~n_vars:4 ~n_clauses:5 r in
    check_int "clause count" 5 (List.length f.Mvcc_sat.Monotone.clauses);
    List.iter
      (fun (c : Mvcc_sat.Monotone.clause) ->
        let k = List.length c.vars in
        check "width 1-3" true (k >= 1 && k <= 3);
        check "distinct vars" true
          (List.length (List.sort_uniq compare c.vars) = k))
      f.Mvcc_sat.Monotone.clauses
  done

let test_random_cnf_shape () =
  let r = rng 11 in
  let f = PG.random_cnf ~n_vars:4 ~n_clauses:6 ~max_width:3 r in
  check_int "clauses" 6 (Mvcc_sat.Cnf.n_clauses f);
  check_int "vars" 4 f.Mvcc_sat.Cnf.n_vars

let () =
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "validation" `Quick test_zipf_validation;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_zipf_monotone; prop_zipf_theta_zero_uniform ] );
      ( "schedules",
        [
          Alcotest.test_case "parameters" `Quick test_schedule_params;
          Alcotest.test_case "no blind writes" `Quick test_no_blind_writes;
          Alcotest.test_case "interleave" `Quick test_interleave_preserves_programs;
          Alcotest.test_case "two-step model" `Quick test_two_step_model;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "polygraphs",
        [
          Alcotest.test_case "assumptions" `Quick test_polygraph_assumptions;
          Alcotest.test_case "disjoint" `Quick test_disjoint_polygraphs;
          Alcotest.test_case "monotone shape" `Quick test_random_monotone_shape;
          Alcotest.test_case "cnf shape" `Quick test_random_cnf_shape;
        ] );
    ]
