(* Tests for the schedule model: steps, schedules, parsing, version
   functions, READ-FROM relations, equivalences, and padding. *)

open Mvcc_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let sched = Schedule.of_string

(* -- Step -- *)

let test_step_conflicts () =
  let r1x = Step.read 0 "x" and w2x = Step.write 1 "x" in
  let r2x = Step.read 1 "x" and w1y = Step.write 0 "y" in
  check "r-w conflict" true (Step.conflicts r1x w2x);
  check "w-r conflict (symmetric)" true (Step.conflicts w2x r1x);
  check "r-r no conflict" false (Step.conflicts r1x r2x);
  check "different entity" false (Step.conflicts r1x w1y);
  check "same transaction" false (Step.conflicts r1x (Step.write 0 "x"))

let test_step_mv_conflicts () =
  let r1x = Step.read 0 "x" and w2x = Step.write 1 "x" in
  check "read then write conflicts" true
    (Step.mv_conflicts ~first:r1x ~second:w2x);
  check "write then read does not (the multiversion asymmetry)" false
    (Step.mv_conflicts ~first:w2x ~second:r1x);
  check "write-write does not" false
    (Step.mv_conflicts ~first:(Step.write 0 "x") ~second:w2x)

let test_step_pp () =
  check_str "1-based rendering" "R1(x)" (Step.to_string (Step.read 0 "x"));
  check_str "write rendering" "W3(acct)" (Step.to_string (Step.write 2 "acct"))

(* -- Schedule parsing and structure -- *)

let test_parse_roundtrip () =
  let text = "R1(x) W1(x) R2(y) W2(y)" in
  check_str "round trip" text (Schedule.to_string (sched text))

let test_parse_flexible () =
  let s = sched "r1(x), w2(long_name); R3(y)" in
  check_int "three steps" 3 (Schedule.length s);
  check_str "entity kept" "long_name" (Schedule.step s 1).Step.entity

let test_parse_errors () =
  check "garbage rejected" true
    (try ignore (sched "X1(x)"); false with Invalid_argument _ -> true);
  check "missing paren" true
    (try ignore (sched "R1 x"); false with Invalid_argument _ -> true);
  check "zero-based rejected" true
    (try ignore (sched "R0(x)"); false with Invalid_argument _ -> true)

let test_structure () =
  let s = sched "R1(x) W2(y) W1(x)" in
  check_int "txns" 2 (Schedule.n_txns s);
  Alcotest.(check (list string)) "entities" [ "x"; "y" ] (Schedule.entities s);
  check_int "program lengths" 2 (List.length (Schedule.txn_program s 0));
  Alcotest.(check (list int)) "positions" [ 0; 2 ] (Schedule.txn_positions s 0)

let test_serial_detection () =
  check "serial" true (Schedule.is_serial (sched "R1(x) W1(x) R2(x)"));
  check "interleaved" false (Schedule.is_serial (sched "R1(x) R2(x) W1(x)"));
  check "empty serial" true (Schedule.is_serial (Schedule.of_steps []));
  Alcotest.(check (option (list int)))
    "order" (Some [ 1; 0 ])
    (Schedule.serial_order (sched "R2(x) W2(x) R1(y)"))

let test_serialization () =
  let s = sched "R1(x) R2(x) W1(x)" in
  let r = Schedule.serialization s [ 1; 0 ] in
  check_str "reordered" "R2(x) R1(x) W1(x)" (Schedule.to_string r);
  check "same system" true (Schedule.same_system s r);
  check "serial" true (Schedule.is_serial r);
  check "bad permutation rejected" true
    (try ignore (Schedule.serialization s [ 0; 0 ]); false
     with Invalid_argument _ -> true)

let test_prefix () =
  let s = sched "R1(x) W1(x) R2(x)" in
  let p = Schedule.prefix s 2 in
  check_str "prefix" "R1(x) W1(x)" (Schedule.to_string p);
  check "is prefix" true (Schedule.is_prefix p ~of_:s);
  check "not prefix" false
    (Schedule.is_prefix (sched "W1(x) W1(x)") ~of_:s);
  check_int "full prefix" 3 (Schedule.length (Schedule.prefix s 3))

let test_swap_adjacent () =
  let s = sched "R1(x) R2(y)" in
  check_str "swapped" "R2(y) R1(x)"
    (Schedule.to_string (Schedule.swap_adjacent s 0));
  check "same txn rejected" true
    (try ignore (Schedule.swap_adjacent (sched "R1(x) W1(x)") 0); false
     with Invalid_argument _ -> true)

let test_interleavings_count () =
  (* two programs of 2 steps each: C(4,2) = 6 shuffles *)
  let progs = [ sched "R1(x) W1(x)"; sched "R1(y) W1(y)" ] in
  check_int "multinomial count" 6
    (List.length (List.of_seq (Schedule.interleavings progs)));
  Seq.iter
    (fun s -> check_int "all steps present" 4 (Schedule.length s))
    (Schedule.interleavings progs)

let test_all_serializations () =
  let s = sched "R1(x) R2(x) R3(x)" in
  check_int "3! serializations" 6 (List.length (Schedule.all_serializations s))

(* -- Version functions -- *)

let test_standard_version_fn () =
  let s = sched "W1(x) R2(x) W2(x) R1(x)" in
  let v = Version_fn.standard s in
  check "legal" true (Version_fn.legal s v);
  check "total" true (Version_fn.total s v);
  Alcotest.(check (list int)) "domain" [ 1; 3 ] (Version_fn.domain v);
  check "R2 reads W1" true (Version_fn.get v 1 = Some (Version_fn.From 0));
  check "R1 reads W2" true (Version_fn.get v 3 = Some (Version_fn.From 2))

let test_version_fn_legality () =
  let s = sched "R1(x) W2(x)" in
  let bad = Version_fn.of_list [ (0, Version_fn.From 1) ] in
  check "future version illegal" false (Version_fn.legal s bad);
  let initial = Version_fn.of_list [ (0, Version_fn.Initial) ] in
  check "initial legal" true (Version_fn.legal s initial);
  let wrong_pos = Version_fn.of_list [ (1, Version_fn.Initial) ] in
  check "binding a write illegal" false (Version_fn.legal s wrong_pos)

let test_version_fn_choices () =
  let s = sched "W1(x) W2(x) R3(x) W3(y)" in
  check_int "three sources" 3 (List.length (Version_fn.choices s 2));
  check "write has no choices" true
    (try ignore (Version_fn.choices s 3); false
     with Invalid_argument _ -> true)

let test_version_fn_enumerate () =
  let s = sched "W1(x) W2(x) R3(x) R3(x)" in
  (* each read has 3 sources: 3 * 3 = 9 total version functions *)
  check_int "enumeration count" 9
    (Seq.length (Version_fn.enumerate s));
  Seq.iter
    (fun v -> check "each legal and total" true
        (Version_fn.legal s v && Version_fn.total s v))
    (Version_fn.enumerate s);
  let fixed = Version_fn.of_list [ (2, Version_fn.Initial) ] in
  check_int "fixed narrows" 3
    (Seq.length (Version_fn.enumerate ~fixed s));
  Seq.iter
    (fun v -> check "extension respected" true (Version_fn.extends v ~base:fixed))
    (Version_fn.enumerate ~fixed s)

let test_version_fn_restrict () =
  let v =
    Version_fn.of_list [ (0, Version_fn.Initial); (5, Version_fn.From 2) ]
  in
  Alcotest.(check (list int)) "restricted domain" [ 0 ]
    (Version_fn.domain (Version_fn.restrict v ~upto:3))

(* -- READ-FROM -- *)

let test_read_from_std () =
  let s = sched "W1(x) R2(x) W2(y) R1(y)" in
  let rel = Read_from.std_relation s in
  check "T2 reads x from T1" true
    (List.mem { Read_from.reader = 1; entity = "x"; writer = Read_from.T 0 } rel);
  check "T1 reads y from T2" true
    (List.mem { Read_from.reader = 0; entity = "y"; writer = Read_from.T 1 } rel)

let test_read_from_initial_and_self () =
  let s = sched "R1(x) W1(x) R1(x)" in
  let rel = Read_from.std_relation s in
  check "first read from T0" true
    (List.mem { Read_from.reader = 0; entity = "x"; writer = Read_from.T0 } rel);
  check "second read from self" true
    (List.mem { Read_from.reader = 0; entity = "x"; writer = Read_from.T 0 } rel)

let test_final_writers () =
  let s = sched "W1(x) W2(x) R1(y)" in
  Alcotest.(check bool) "x final writer T2" true
    (List.assoc "x" (Read_from.final_writers s) = Read_from.T 1);
  check "read-only entity is T0" true
    (List.assoc "y" (Read_from.final_writers s) = Read_from.T0)

let test_view_and_last_write () =
  let s = sched "W1(x) R2(x) W1(x)" in
  check "last write position" true
    (Read_from.last_write_of s ~txn:0 ~entity:"x" = Some 2);
  check "absent write" true
    (Read_from.last_write_of s ~txn:1 ~entity:"x" = None);
  let v = Read_from.view s (Version_fn.standard s) 1 in
  check "view of T2" true (v = [ ("x", Read_from.T 0) ])

(* -- Equivalences -- *)

let test_conflict_equivalence () =
  let s = sched "R1(x) R2(y) W1(x)" in
  let s' = sched "R2(y) R1(x) W1(x)" in
  check "reordering non-conflicting is equivalent" true
    (Equiv.conflict_equivalent s s');
  let s'' = sched "R1(x) W1(x) R2(y)" in
  check "still equivalent (R2 moves)" true (Equiv.conflict_equivalent s s'');
  let t = sched "R1(x) W2(x)" and t' = sched "W2(x) R1(x)" in
  check "conflicting pair reordered" false (Equiv.conflict_equivalent t t')

let test_mv_conflict_asymmetry () =
  (* the paper's rationale: W-R switches are harmless one way *)
  let wr = sched "W1(x) R2(x)" in
  let rw = sched "R2(x) W1(x)" in
  check "rw -> wr not equivalent (read came too early)" false
    (Equiv.mv_conflict_equivalent rw wr);
  check "wr -> rw equivalent (multiversion saves the late read)" true
    (Equiv.mv_conflict_equivalent wr rw)

let test_view_equivalence () =
  let s = sched "W1(x) R2(x) W2(x)" in
  let serial = Schedule.serialization s [ 0; 1 ] in
  check "view equivalent to serial T1 T2" true (Equiv.view_equivalent s serial);
  let other = Schedule.serialization s [ 1; 0 ] in
  check "not to T2 T1" false (Equiv.view_equivalent s other)

let test_full_view_equivalence () =
  (* s1 from Fig. 1: no version function serializes it *)
  let s = sched "R1(x) R2(x) W1(x) W2(x)" in
  let r = Schedule.serialization s [ 0; 1 ] in
  let works =
    Seq.exists
      (fun v -> Equiv.full_view_equivalent (s, v) (r, Version_fn.standard r))
      (Version_fn.enumerate s)
  in
  check "no version function matches serial AB" false works

let test_occurrence_map () =
  let s = sched "R1(x) R2(y) W1(x)" in
  let s' = sched "R2(y) R1(x) W1(x)" in
  let m = Equiv.occurrence_map s s' in
  Alcotest.(check (array int)) "mapped" [| 1; 0; 2 |] m;
  check "different systems rejected" true
    (try ignore (Equiv.occurrence_map s (sched "R1(x)")); false
     with Invalid_argument _ -> true)

(* -- Padding -- *)

let test_padding () =
  let s = sched "R1(x) W2(y)" in
  let p = Padding.pad s in
  check_int "txns shifted" 4 (Schedule.n_txns p);
  check_str "layout"
    "W1(x) W1(y) R2(x) W3(y) R4(x) R4(y)"
    (Schedule.to_string p);
  check "round trip" true (Schedule.equal (Padding.unpad p) s);
  check_int "tf index" 3 (Padding.tf p);
  check_int "padded index" 2 (Padding.padded_txn 1);
  check_int "original index" 1 (Padding.original_txn 2)

(* -- Liveness -- *)

let test_liveness_basics () =
  (* W1(x) is overwritten unread: dead; its transaction's read is dead too *)
  let s = sched "R1(y) W1(x) W2(x)" in
  let live = Liveness.live_positions s in
  check "overwritten write dead" false live.(1);
  check "final write live" true live.(2);
  (* R1(y): feeds W1(x), which is dead -> dead *)
  check "read feeding dead write is dead" false live.(0);
  Alcotest.(check int) "dead step count" 2 (List.length (Liveness.dead_steps s))

let test_liveness_chain () =
  (* liveness propagates backwards through reads-from chains *)
  let s = sched "R1(x) W1(y) R2(y) W2(z)" in
  let live = Liveness.live_positions s in
  check "all live" true (Array.for_all Fun.id live);
  let lrf = Liveness.live_read_froms s in
  check "live read-froms recorded" true (List.length lrf = 2)

let test_liveness_read_only_txn () =
  (* a pure reader writes nothing: its reads are dead (they cannot reach
     the final state) *)
  let s = sched "W1(x) R2(x)" in
  let live = Liveness.live_positions s in
  check "writer live" true live.(0);
  check "pure read dead" false live.(1)

(* -- qcheck properties -- *)

let gen_params rng =
  let open Mvcc_workload.Schedule_gen in
  schedule { default with n_txns = 3; n_entities = 2; max_steps = 3 } rng

let gen_schedule =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    return (gen_params (Random.State.make [| seed |])))

let prop_standard_always_legal =
  QCheck2.Test.make ~name:"standard version function is legal and total"
    ~count:300 gen_schedule (fun s ->
      let v = Version_fn.standard s in
      Version_fn.legal s v && Version_fn.total s v)

let prop_serialization_same_system =
  QCheck2.Test.make ~name:"serializations preserve the transaction system"
    ~count:200 gen_schedule (fun s ->
      List.for_all
        (fun r -> Schedule.same_system s r && Schedule.is_serial r)
        (Schedule.all_serializations s))

let prop_pad_unpad =
  QCheck2.Test.make ~name:"pad then unpad is the identity" ~count:200
    gen_schedule (fun s -> Schedule.equal (Padding.unpad (Padding.pad s)) s)

let prop_conflict_equiv_reflexive =
  QCheck2.Test.make ~name:"conflict equivalence is reflexive" ~count:200
    gen_schedule (fun s ->
      Equiv.conflict_equivalent s s && Equiv.mv_conflict_equivalent s s
      && Equiv.view_equivalent s s)

(* -- the interned representation (PR 5) -- *)

(* Generator biased toward the index's edge cases: entity names with
   digits and several characters, transactions that never act (empty
   position buckets), entities written but never read, and the empty
   schedule. *)
let gen_edge_schedule =
  QCheck2.Gen.(
    let names = [| "x"; "y"; "x1"; "tmp2"; "acct"; "v10" |] in
    let* n_txns = int_range 1 4 in
    let* steps =
      list_size (int_range 0 10)
        (let* t = int_range 0 (n_txns - 1) in
         let* e = int_range 0 (Array.length names - 1) in
         let* w = bool in
         return
           (if w then Step.write t names.(e) else Step.read t names.(e)))
    in
    return (Schedule.of_steps ~n_txns steps))

let mv_rel a b = Step.mv_conflicts ~first:a ~second:b

(* The transaction edges the oracle's pairs induce, sorted. *)
let oracle_edges s rel =
  Conflict.pairs_satisfying rel s
  |> List.map (fun (p, q) ->
         ((Schedule.step s p).txn, (Schedule.step s q).txn))
  |> List.sort_uniq compare

let graph_edges g = List.sort compare (Mvcc_graph.Digraph.edges g)

let sweeps_match s =
  Conflict.conflicting_pairs s = Conflict.pairs_satisfying Step.conflicts s
  && Conflict.mv_conflicting_pairs s = Conflict.pairs_satisfying mv_rel s
  && graph_edges (Conflict.graph s) = oracle_edges s Step.conflicts
  && graph_edges (Conflict.mv_graph s) = oracle_edges s mv_rel

let prop_sweep_matches_oracle =
  QCheck2.Test.make
    ~name:"bucket sweeps = all-pairs oracle (same pairs, same order)"
    ~count:300 gen_schedule sweeps_match

let prop_sweep_matches_oracle_edges =
  QCheck2.Test.make
    ~name:"bucket sweeps = oracle on empty txns and unread entities"
    ~count:300 gen_edge_schedule sweeps_match

(* The interned paths against their string-keyed reference oracles. *)
let reference_invariant s =
  Version_fn.equal (Version_fn.standard_ref s) (Version_fn.standard s)
  && Read_from.equal_finals
       (Read_from.final_writers_ref s)
       (Read_from.final_writers s)
  && Read_from.equal_relation
       (Liveness.live_read_froms_ref s)
       (Liveness.live_read_froms s)

(* The int-only permutation of the parent index must agree with generic
   re-interning of the concatenated programs, on steps AND on every
   observable of the interned view. *)
let same_index a b =
  Schedule.equal a b
  && Schedule.n_entities a = Schedule.n_entities b
  && List.init (Schedule.n_entities a) Fun.id
     |> List.for_all (fun e ->
            Schedule.entity_name a e = Schedule.entity_name b e
            && Schedule.entity_bucket a e = Schedule.entity_bucket b e)
  && List.init (Schedule.length a) Fun.id
     |> List.for_all (fun p ->
            Schedule.entity_at a p = Schedule.entity_at b p
            && Schedule.entity_rank a p = Schedule.entity_rank b p)
  && List.init (Schedule.n_txns a) Fun.id
     |> List.for_all (fun i ->
            Schedule.txn_positions_arr a i = Schedule.txn_positions_arr b i)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map (fun p -> x :: p)
            (permutations (List.filter (( <> ) x) l)))
        l

(* The oracle is built from the requested order, never read back from the
   output, so a serialization in the wrong order fails. *)
let serialization_invariant s =
  let n = Schedule.n_txns s in
  List.for_all
    (fun order ->
      same_index
        (Schedule.serialization s order)
        (Schedule.of_steps ~n_txns:n
           (List.concat_map (Schedule.txn_program s) order)))
    (permutations (List.init n Fun.id))

let prop_serialization_invariant =
  QCheck2.Test.make
    ~name:"serialization: permuted index = re-interned index" ~count:150
    gen_edge_schedule serialization_invariant

let prop_reference_invariant =
  QCheck2.Test.make
    ~name:"reference and interned paths produce identical results"
    ~count:200 gen_schedule reference_invariant

let prop_reference_invariant_edges =
  QCheck2.Test.make
    ~name:"reference/interned agree on edge-case schedules" ~count:200
    gen_edge_schedule reference_invariant

(* Round trip through each separator style the parser accepts. *)
let render sep s =
  Array.to_list (Schedule.steps s)
  |> List.map Step.to_string |> String.concat sep

let prop_parse_separators =
  QCheck2.Test.make
    ~name:"parser round-trips all separator styles and entity names"
    ~count:200
    QCheck2.Gen.(pair gen_edge_schedule (int_range 0 2))
    (fun (s, sep_ix) ->
      let sep = [| " "; ", "; ";" |].(sep_ix) in
      let parsed = Schedule.of_string (render sep s) in
      Schedule.steps parsed = Schedule.steps s)

let test_interned_index () =
  let s = sched "R1(x) W2(y) W1(x) R3(y) W3(z)" in
  check_int "entity count" 3 (Schedule.n_entities s);
  (* first-appearance ids *)
  check_str "id 0" "x" (Schedule.entity_name s 0);
  check_str "id 1" "y" (Schedule.entity_name s 1);
  Alcotest.(check (option int)) "lookup" (Some 2)
    (Schedule.entity_index s "z");
  Alcotest.(check (option int)) "unknown entity" None
    (Schedule.entity_index s "w");
  check_int "entity of step 3" 1 (Schedule.entity_at s 3);
  Alcotest.(check (array int)) "bucket of y" [| 1; 3 |]
    (Schedule.entity_bucket s 1);
  check_int "rank of step 3 in its bucket" 1 (Schedule.entity_rank s 3);
  Alcotest.(check (array int)) "positions of T1" [| 0; 2 |]
    (Schedule.txn_positions_arr s 0);
  Alcotest.(check (list int)) "ids sorted by name" [ 0; 1; 2 ]
    (Array.to_list (Schedule.sorted_entity_ids s))

let test_sweep_enumerated () =
  (* every interleaving of a two-transaction system, plus hand-picked
     schedules with empty transactions and write-only entities *)
  let progs = [ sched "R1(x) W1(y)"; sched "W1(x) R1(y)" ] in
  Seq.iter
    (fun s -> check "interleaving" true (sweeps_match s))
    (Schedule.interleavings progs);
  List.iter
    (fun s -> check "edge case" true (sweeps_match s))
    [
      Schedule.of_steps ~n_txns:3 [];
      Schedule.of_steps ~n_txns:3 [ Step.write 1 "lonely" ];
      sched "W1(x) W2(x) W1(x)";
    ]

let () =
  Alcotest.run "core"
    [
      ( "step",
        [
          Alcotest.test_case "conflicts" `Quick test_step_conflicts;
          Alcotest.test_case "mv conflicts" `Quick test_step_mv_conflicts;
          Alcotest.test_case "printing" `Quick test_step_pp;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "parse round trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse flexible" `Quick test_parse_flexible;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "serial detection" `Quick test_serial_detection;
          Alcotest.test_case "serialization" `Quick test_serialization;
          Alcotest.test_case "prefix" `Quick test_prefix;
          Alcotest.test_case "swap adjacent" `Quick test_swap_adjacent;
          Alcotest.test_case "interleavings" `Quick test_interleavings_count;
          Alcotest.test_case "all serializations" `Quick test_all_serializations;
        ] );
      ( "version functions",
        [
          Alcotest.test_case "standard" `Quick test_standard_version_fn;
          Alcotest.test_case "legality" `Quick test_version_fn_legality;
          Alcotest.test_case "choices" `Quick test_version_fn_choices;
          Alcotest.test_case "enumerate" `Quick test_version_fn_enumerate;
          Alcotest.test_case "restrict" `Quick test_version_fn_restrict;
        ] );
      ( "read-from",
        [
          Alcotest.test_case "standard relation" `Quick test_read_from_std;
          Alcotest.test_case "initial and self" `Quick test_read_from_initial_and_self;
          Alcotest.test_case "final writers" `Quick test_final_writers;
          Alcotest.test_case "views" `Quick test_view_and_last_write;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "conflict" `Quick test_conflict_equivalence;
          Alcotest.test_case "mv asymmetry" `Quick test_mv_conflict_asymmetry;
          Alcotest.test_case "view" `Quick test_view_equivalence;
          Alcotest.test_case "full view" `Quick test_full_view_equivalence;
          Alcotest.test_case "occurrence map" `Quick test_occurrence_map;
        ] );
      ("padding", [ Alcotest.test_case "pad/unpad" `Quick test_padding ]);
      ( "liveness",
        [
          Alcotest.test_case "basics" `Quick test_liveness_basics;
          Alcotest.test_case "chains" `Quick test_liveness_chain;
          Alcotest.test_case "read-only transactions" `Quick
            test_liveness_read_only_txn;
        ] );
      ( "interned",
        [
          Alcotest.test_case "index accessors" `Quick test_interned_index;
          Alcotest.test_case "sweeps on enumerated schedules" `Quick
            test_sweep_enumerated;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_standard_always_legal;
            prop_serialization_same_system;
            prop_pad_unpad;
            prop_conflict_equiv_reflexive;
            prop_sweep_matches_oracle;
            prop_sweep_matches_oracle_edges;
            prop_reference_invariant;
            prop_reference_invariant_edges;
            prop_serialization_invariant;
            prop_parse_separators;
          ] );
    ]
