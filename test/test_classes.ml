(* Tests for the serializability classes: the paper's Fig. 1 examples as
   oracle fixtures, Theorems 1-3, and exhaustive cross-validation of every
   pair of independent decision procedures. *)

open Mvcc_core
module C = Mvcc_classes.Csr
module V = Mvcc_classes.Vsr
module MC = Mvcc_classes.Mvcsr
module MS = Mvcc_classes.Mvsr
module D = Mvcc_classes.Dmvsr
module SW = Mvcc_classes.Switching
module T = Mvcc_classes.Topography
module Fsr = Mvcc_classes.Fsr
module Family = Mvcc_classes.Family
module Mvsg = Mvcc_classes.Mvsg
module Report = Mvcc_classes.Report

let check = Alcotest.(check bool)
let sched = Schedule.of_string

(* Memberships from the schedule-level tests, each a full procedure.
   [T.classify] answers VSR, MVSR and DMVSR from the very containments
   [T.consistent] checks, so only these memberships can refute one. *)
let full_membership s =
  {
    T.serial = Schedule.is_serial s;
    csr = C.test s;
    vsr = V.test s;
    mvcsr = MC.test s;
    mvsr = MS.test s;
    dmvsr = D.test s;
  }

(* -- Fig. 1 -- *)

let test_fig1_regions () =
  List.iter
    (fun (name, claimed, s) ->
      let m = T.classify s in
      Alcotest.(check bool) (name ^ " consistent") true
        (T.consistent (full_membership s));
      Alcotest.(check string) (name ^ " region")
        (T.region_name claimed)
        (T.region_name (T.region m)))
    T.fig1_examples

(* -- CSR -- *)

let test_csr_examples () =
  check "serial is CSR" true (C.test (sched "R1(x) W1(x) R2(x)"));
  check "lost update not CSR" false (C.test (sched "R1(x) R2(x) W1(x) W2(x)"));
  (match C.witness (sched "R1(x) R2(y) W1(x) W2(y)") with
  | Some r ->
      check "witness is serial" true (Schedule.is_serial r);
      check "witness conflict-equivalent" true
        (Equiv.conflict_equivalent (sched "R1(x) R2(y) W1(x) W2(y)") r)
  | None -> Alcotest.fail "expected CSR witness");
  (match C.violation (sched "R1(x) R2(x) W1(x) W2(x)") with
  | Some cycle -> check "violation nonempty" true (List.length cycle >= 2)
  | None -> Alcotest.fail "expected a conflict cycle")

(* -- Theorem 1: MVCSR iff MVCG acyclic -- *)

let test_mvcsr_witness () =
  let s = sched "R1(x) W1(x) R2(x) R2(y) W2(y) R1(y) W1(y)" in
  check "s4 is MVCSR" true (MC.test s);
  (match MC.witness s with
  | Some r ->
      check "witness serial" true (Schedule.is_serial r);
      check "witness mv-conflict-equivalent" true
        (Equiv.mv_conflict_equivalent s r)
  | None -> Alcotest.fail "expected MVCSR witness");
  check "s1 not MVCSR" false (MC.test (sched "R1(x) R2(x) W1(x) W2(x)"))

let test_theorem3_version_fn () =
  (* Theorem 3's constructive proof: the version function derived from the
     MVCSR witness makes the full schedule view-equivalent to it *)
  let s = sched "R1(x) W1(x) R2(x) R2(y) W2(y) R1(y) W1(y)" in
  match MC.witness s with
  | None -> Alcotest.fail "fixture is MVCSR"
  | Some r ->
      let v = MC.version_fn_for s r in
      check "legal" true (Version_fn.legal s v);
      check "view equivalent to witness" true
        (Equiv.full_view_equivalent (s, v) (r, Version_fn.standard r))

(* -- Theorem 2: switching characterization -- *)

let test_switching_path () =
  let s = sched "W1(x) R2(x) W2(y) R1(y)" in
  match SW.path_to_serial s with
  | None -> check "then not MVCSR" false (MC.test s)
  | Some path ->
      check "starts at s" true (Schedule.equal (List.hd path) s);
      check "ends serial" true
        (Schedule.is_serial (List.nth path (List.length path - 1)));
      (* every hop is a legal switch *)
      let rec hops = function
        | a :: b :: rest ->
            check "hop is one switch" true
              (List.exists (Schedule.equal b) (SW.neighbours a));
            hops (b :: rest)
        | _ -> ()
      in
      hops path

let test_switching_distance () =
  check "serial distance zero" true
    (SW.distance_to_serial (sched "R1(x) R2(x)") = Some 0);
  check "one swap" true
    (SW.distance_to_serial (sched "R1(x) R2(y) W1(x)") = Some 1)

(* -- VSR -- *)

let test_vsr_examples () =
  check "s3 is VSR" true (V.test (sched "W1(x) R2(x) R3(y) W2(y) W3(x) W4(x)"));
  check "s1 not VSR" false (V.test (sched "R1(x) R2(x) W1(x) W2(x)"));
  (match V.witness (sched "W1(x) R2(x)") with
  | Some r -> check "witness view-equivalent" true
      (Equiv.view_equivalent (sched "W1(x) R2(x)") r)
  | None -> Alcotest.fail "expected VSR witness")

let test_vsr_polygraph_structure () =
  let s = sched "W1(x) R2(x) W3(x)" in
  let p = V.polygraph_of s in
  (* padded nodes: T0, three transactions, Tf *)
  Alcotest.(check int) "node count" 5 p.Mvcc_polygraph.Polygraph.n

(* -- DMVSR -- *)

let test_dmvsr_transform () =
  let s = sched "W1(x) R2(x)" in
  let t = D.transform s in
  check "read inserted before blind write" true
    (Schedule.to_string t = "R1(x) W1(x) R2(x)");
  check "fixture has blind writes" true (D.has_blind_writes s);
  check "transformed has none" false (D.has_blind_writes t);
  let clean = sched "R1(x) W1(x)" in
  check "no-blind-write schedule unchanged" true
    (Schedule.equal (D.transform clean) clean)

(* -- FSR -- *)

let test_fsr_examples () =
  check "serial is FSR" true (Fsr.test (sched "R1(x) W1(x) R2(x)"));
  check "lost update not FSR" false (Fsr.test (sched "R1(x) R2(x) W1(x) W2(x)"));
  (match Fsr.witness (sched "W1(x) R2(x)") with
  | Some r -> check "witness equivalent" true
      (Fsr.equivalent (sched "W1(x) R2(x)") r)
  | None -> Alcotest.fail "expected FSR witness")

let test_fsr_strictly_wider_than_vsr () =
  (* dead reads distinguish FSR from VSR: every read below feeds nothing
     (no transaction writes after reading), so final-state equivalence
     only constrains the final writers — but view equivalence insists that
     R1(e1) read from T3, forcing T2 < T3 < T1, which contradicts R2(e0)
     reading from T1. Witness found by random search, pinned here. *)
  let s = sched "W1(e0) W2(e1) R2(e0) W3(e1) R3(e1) R1(e1)" in
  check "FSR" true (Fsr.test s);
  check "not VSR" false (V.test s);
  check "every read is dead" true
    (let dead = Liveness.dead_steps s in
     Array.for_all
       (fun (st : Step.t) ->
         (not (Step.is_read st)) || List.exists (Step.equal st) dead)
       (Schedule.steps s))

let test_fsr_mvsr_incomparable () =
  (* FSR \ MVSR: both reads arrive before every write, so any version
     function serves them the initial version, which no serialization
     realizes — yet both reads (and the overwritten writes) are dead, so
     final-state equivalence only needs the final writer T3 *)
  let s = sched "R1(x) R2(x) W1(x) W2(x) W3(x)" in
  check "FSR" true (Fsr.test s);
  check "not MVSR" false (MS.test s);
  (* MVSR \ FSR: s4 is MVCSR hence MVSR, but not even FSR *)
  let s4 = sched "R1(x) W1(x) R2(x) R2(y) W2(y) R1(y) W1(y)" in
  check "s4 MVSR" true (MS.test s4);
  check "s4 not FSR" false (Fsr.test s4)

let test_vsr_own_write_interposition () =
  (* a read served an external version while its own transaction already
     wrote the entity cannot be realized serially: the own write would
     interpose. (The multiversion classes are fine with it: the version
     function can still serve the external version.) *)
  let s = sched "W1(x) W2(x) R1(x)" in
  check "not VSR" false (V.test s);
  check "exact oracle agrees" false (V.test_exact s);
  check "but MVSR" true (MS.test s)

(* -- conflict families ([5]) -- *)

let test_family_endpoints () =
  let schedules =
    List.map sched
      [
        "R1(x) R2(x) W1(x) W2(x)";
        "W1(x) R2(x) R3(y) W2(y) W3(x)";
        "R1(x) W1(x) R2(x) W2(x)";
        "W2(x) R1(x) W3(x) W1(x)";
      ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "full set = CSR" (C.test s)
        (Family.test ~kinds:Family.all_kinds s);
      Alcotest.(check bool) "{Rw} = MVCSR" (MC.test s)
        (Family.test ~kinds:[ Family.Rw ] s);
      check "{} accepts everything" true (Family.test ~kinds:[] s))
    schedules

let test_family_monotone () =
  (* more preserved conflict kinds = smaller class *)
  let s = sched "W1(x) R2(x) R3(y) W2(y) W3(x)" in
  List.iter
    (fun kinds ->
      List.iter
        (fun kinds' ->
          let subset = List.for_all (fun k -> List.mem k kinds') kinds in
          if subset && Family.test ~kinds:kinds' s then
            check "monotone" true (Family.test ~kinds s))
        Family.subsets)
    Family.subsets

let test_family_unsafe_without_rw () =
  (* {Ww, Wr} accepts s1, which is not even MVSR: only preserving the
     read-then-write order is what keeps a class inside MVSR *)
  let s1 = sched "R1(x) R2(x) W1(x) W2(x)" in
  check "accepted by {Ww,Wr}" true
    (Family.test ~kinds:[ Family.Ww; Family.Wr ] s1);
  check "but s1 is not MVSR" false (MS.test s1);
  check "safe flags" true
    (Family.safe ~kinds:[ Family.Rw ]
    && not (Family.safe ~kinds:[ Family.Ww; Family.Wr ]))

let test_family_witness () =
  let s = sched "R1(x) W1(x) R2(x) R2(y) W2(y) R1(y) W1(y)" in
  match Family.witness ~kinds:[ Family.Rw ] s with
  | Some r ->
      check "witness serial" true (Schedule.is_serial r);
      check "witness mv-conflict-equivalent" true
        (Equiv.mv_conflict_equivalent s r)
  | None -> Alcotest.fail "s4 is MVCSR"

(* -- MVSG (Bernstein & Goodman [2]) -- *)

let test_mvsg_basics () =
  let s = sched "W1(x) R2(x)" in
  let v = Version_fn.standard s in
  check "well formed" true (Mvsg.well_formed s v);
  check "serializable" true (Mvsg.serializable_with s v);
  check "write order suffices" true (Mvsg.write_order_serializable s v);
  Alcotest.(check int) "versions of x" 2 (List.length (Mvsg.versions_of s "x"));
  (* the lost-update schedule has no serializing version function *)
  check "s1 not MVSG-serializable" false
    (Mvsg.test (sched "R1(x) R2(x) W1(x) W2(x)"))

let test_mvsg_well_formedness () =
  (* a read after the transaction's own write served a foreign version is
     ill-formed: no serial schedule realizes it *)
  let s = sched "W2(x) W1(x) R1(x)" in
  let bad = Version_fn.of_list [ (2, Version_fn.From 0) ] in
  check "ill formed" false (Mvsg.well_formed s bad);
  check "not serializable" false (Mvsg.serializable_with s bad);
  let good = Version_fn.of_list [ (2, Version_fn.From 1) ] in
  check "own write is fine" true (Mvsg.well_formed s good)

let test_mvsg_order_validation () =
  let s = sched "W1(x) R2(x)" in
  let v = Version_fn.standard s in
  check "missing versions rejected" true
    (try
       ignore (Mvsg.graph ~order:(fun _ -> [ Mvsg.Initial ]) s v);
       false
     with Invalid_argument _ -> true);
  check "initial must come first" true
    (try
       ignore
         (Mvsg.graph ~order:(fun _ -> [ Mvsg.At 0; Mvsg.Initial ]) s v);
       false
     with Invalid_argument _ -> true)

(* -- consolidated reports -- *)

let test_report_consistency () =
  List.iter
    (fun (_, claimed, s) ->
      let r = Report.make s in
      Alcotest.(check string) "report region matches classifier"
        (T.region_name claimed)
        (T.region_name r.Report.region);
      (* verdicts agree with the direct testers *)
      check "csr verdict" true (r.Report.csr.Report.in_class = C.test s);
      check "mvsr verdict" true (r.Report.mvsr.Report.in_class = MS.test s);
      (* witnesses, when present, are serial schedules of the system *)
      List.iter
        (fun (v : Report.verdict) ->
          match v.Report.witness with
          | Some w ->
              check "witness serial" true (Schedule.is_serial w);
              check "witness same system" true (Schedule.same_system s w)
          | None -> ())
        [ r.Report.csr; r.Report.vsr; r.Report.fsr; r.Report.mvcsr ])
    T.fig1_examples

let test_report_rendering () =
  let r = Report.make (sched "R1(x) R2(x) W1(x) W2(x)") in
  let text = Format.asprintf "%a" Report.pp r in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec at i = i + n <= h && (String.sub text i n = needle || at (i + 1)) in
    at 0
  in
  check "mentions region" true (contains "not MVSR");
  check "mentions a violation" true (contains "cycle")

(* -- exhaustive cross-validation -- *)

let exhaustive_systems =
  [
    [ "R1(x) W1(x)"; "R1(x) W1(x)" ];
    [ "R1(x) W1(y)"; "R1(y) W1(x)" ];
    [ "W1(x) W1(y)"; "R1(x) R1(y)" ];
    [ "R1(x) W1(x)"; "W1(x)"; "R1(x)" ];
    [ "W1(x)"; "R1(x) W1(y)"; "R1(y)" ];
    (* write-then-read programs: the own-write interposition cases *)
    [ "W1(x) R1(x)"; "W1(x)" ];
    [ "W1(x) R1(x)"; "R1(x) W1(x)" ];
  ]

let for_all_interleavings f =
  List.iter
    (fun spec ->
      let progs = List.map sched spec in
      Seq.iter f (Schedule.interleavings progs))
    exhaustive_systems

let test_exhaustive_theorem1 () =
  (* MVCG acyclicity (Theorem 1) against the switching BFS (Theorem 2) *)
  for_all_interleavings (fun s ->
      Alcotest.(check bool)
        (Schedule.to_string s) (SW.test s) (MC.test s))

let test_exhaustive_vsr () =
  for_all_interleavings (fun s ->
      Alcotest.(check bool)
        (Schedule.to_string s) (V.test_exact s) (V.test s))

let test_exhaustive_mvsr () =
  for_all_interleavings (fun s ->
      Alcotest.(check bool)
        (Schedule.to_string s) (MS.test_naive s) (MS.test s))

let test_exhaustive_universe () =
  (* the full universe: EVERY schedule of every 2-transaction system over
     2 entities with at most 2 distinct accesses per transaction *)
  let checked = ref 0 in
  Seq.iter
    (fun s ->
      incr checked;
      let name = Schedule.to_string s in
      Alcotest.(check bool) ("t1/t2 " ^ name) (SW.test s) (MC.test s);
      Alcotest.(check bool) ("vsr " ^ name) (V.test_exact s) (V.test s);
      Alcotest.(check bool) ("mvsr " ^ name) (MS.test_naive s) (MS.test s);
      (* FSR's finals-filtered search against the definition *)
      Alcotest.(check bool) ("fsr " ^ name)
        (List.exists (Fsr.equivalent s) (Schedule.all_serializations s))
        (Fsr.test s);
      Alcotest.(check bool) ("consistent " ^ name) true
        (T.consistent (full_membership s)))
    (Mvcc_workload.Enumerate.schedules ~n_txns:2 ~n_entities:2 ~max_steps:2
       ());
  Alcotest.(check bool) "universe was nontrivial" true (!checked > 1000)

let test_exhaustive_containments () =
  for_all_interleavings (fun s ->
      Alcotest.(check bool)
        ("consistent: " ^ Schedule.to_string s)
        true
        (T.consistent (full_membership s)))

(* -- MVSR extras -- *)

let test_mvsr_certificate () =
  let s = sched "W1(x) R2(x) R3(y) W2(y) W3(x)" in
  match MS.certificate s with
  | None -> Alcotest.fail "s2 is MVSR"
  | Some (order, v) ->
      check "legal version fn" true (Version_fn.legal s v);
      let r = Schedule.serialization s order in
      check "certificate serializes" true
        (Equiv.full_view_equivalent (s, v) (r, Version_fn.standard r))

let test_mvsr_pinned () =
  (* §4: s is serializable only with R2(x) <- x_A *)
  let s = sched "R1(x) W1(x) R2(x) R1(y) W1(y) R2(y) W2(y)" in
  check "pinned to W1(x) works" true
    (MS.test_pinned s
       ~pinned:(Version_fn.of_list [ (2, Version_fn.From 1) ]));
  check "pinned to initial fails" false
    (MS.test_pinned s ~pinned:(Version_fn.of_list [ (2, Version_fn.Initial) ]));
  check "illegal pin rejected" true
    (try ignore (MS.test_pinned s
                   ~pinned:(Version_fn.of_list [ (2, Version_fn.From 6) ]));
       false
     with Invalid_argument _ -> true)

let test_serializable_with () =
  let s = sched "W1(x) R2(x)" in
  check "standard serializes" true
    (MS.serializable_with s (Version_fn.standard s));
  check "partial rejected" true
    (try ignore (MS.serializable_with s Version_fn.empty); false
     with Invalid_argument _ -> true)

(* -- qcheck properties -- *)

let gen_schedule =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let rng = Random.State.make [| seed |] in
    return
      (Mvcc_workload.Schedule_gen.schedule
         { Mvcc_workload.Schedule_gen.default with
           n_txns = 3; n_entities = 2; max_steps = 3 }
         rng))

let prop_csr_subset_vsr =
  QCheck2.Test.make ~name:"CSR implies VSR" ~count:200 gen_schedule (fun s ->
      (not (C.test s)) || V.test s)

let prop_csr_subset_mvcsr =
  QCheck2.Test.make ~name:"CSR implies MVCSR" ~count:200 gen_schedule
    (fun s -> (not (C.test s)) || MC.test s)

let prop_theorem3 =
  QCheck2.Test.make ~name:"Theorem 3: MVCSR implies MVSR" ~count:200
    gen_schedule (fun s -> (not (MC.test s)) || MS.test s)

let prop_vsr_subset_mvsr =
  QCheck2.Test.make ~name:"VSR implies MVSR" ~count:200 gen_schedule
    (fun s -> (not (V.test s)) || MS.test s)

let gen_distinct =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let rng = Random.State.make [| seed |] in
    return
      (Mvcc_workload.Schedule_gen.schedule
         { Mvcc_workload.Schedule_gen.default with
           n_txns = 3; n_entities = 2; max_steps = 4;
           distinct_accesses = true }
         rng))

(* [8]'s containment is stated in the paper's model, where a transaction
   accesses an entity at most once per action; with repeated writes the
   triple-set READ-FROM semantics admit artifacts (see DESIGN.md). *)
let prop_dmvsr_subset_mvcsr =
  QCheck2.Test.make
    ~name:"DMVSR implies MVCSR ([8]'s MWW within MRW, distinct accesses)"
    ~count:150 gen_distinct (fun s -> (not (D.test s)) || MC.test s)

let gen_no_blind =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let rng = Random.State.make [| seed |] in
    return
      (Mvcc_workload.Schedule_gen.schedule
         { Mvcc_workload.Schedule_gen.default with
           n_txns = 3; n_entities = 2; max_steps = 4; no_blind_writes = true }
         rng))

let prop_dmvsr_is_mvsr_without_blind_writes =
  QCheck2.Test.make
    ~name:"without blind writes DMVSR coincides with MVSR" ~count:150
    gen_no_blind (fun s ->
      QCheck2.assume (not (D.has_blind_writes s));
      D.test s = MS.test s)

(* -- the MVSR search against the string-keyed one -- *)

(* Oracle: the search as it was written with a decimal-string memo key
   ("mask,w0,w1,..."), kept here to pin the int-array memo's search
   order and counts. Same read analysis, same placement test, same
   induced version function. *)
module Mvsr_oracle = struct
  type read = {
    pos : int;
    ent : int;
    own_prev : int option;
    pin : Version_fn.source option;
  }

  let search s pinned =
    let n = Schedule.n_txns s in
    let k = Schedule.n_entities s in
    let wpos = Array.make_matrix n (max 1 k) [] in
    let own_last = Array.make_matrix n (max 1 k) (-1) in
    let reads = Array.make n [] and writes = Array.make n [] in
    Array.iteri
      (fun pos (st : Step.t) ->
        let e = Schedule.entity_at s pos in
        match st.action with
        | Step.Write ->
            own_last.(st.txn).(e) <- pos;
            wpos.(st.txn).(e) <- wpos.(st.txn).(e) @ [ pos ];
            if not (List.mem e writes.(st.txn)) then
              writes.(st.txn) <- e :: writes.(st.txn)
        | Step.Read ->
            let own_prev =
              if own_last.(st.txn).(e) >= 0 then Some own_last.(st.txn).(e)
              else None
            in
            reads.(st.txn) <-
              reads.(st.txn)
              @ [ { pos; ent = e; own_prev; pin = Version_fn.get pinned pos } ])
      (Schedule.steps s);
    let txn_of q = (Schedule.step s q).txn in
    let can_place lw i =
      List.for_all
        (fun r ->
          match (r.pin, r.own_prev) with
          | None, Some _ -> true
          | None, None -> (
              match lw.(r.ent) with
              | -1 -> true
              | j -> (
                  match wpos.(j).(r.ent) with
                  | p :: _ -> p < r.pos
                  | [] -> false))
          | Some Version_fn.Initial, _ -> r.own_prev = None && lw.(r.ent) = -1
          | Some (Version_fn.From q), _ ->
              if txn_of q = i then r.own_prev <> None
              else r.own_prev = None && lw.(r.ent) = txn_of q)
        reads.(i)
    in
    let state_key mask lw =
      let buf = Buffer.create 16 in
      Buffer.add_string buf (string_of_int mask);
      Array.iter
        (fun w ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int w))
        lw;
      Buffer.contents buf
    in
    let induced order =
      let lw = Array.make k (-1) in
      List.fold_left
        (fun v i ->
          let v =
            List.fold_left
              (fun v r ->
                let src =
                  match (r.pin, r.own_prev) with
                  | Some p, _ -> p
                  | None, Some q -> Version_fn.From q
                  | None, None -> (
                      match lw.(r.ent) with
                      | -1 -> Version_fn.Initial
                      | j ->
                          Version_fn.From
                            (List.fold_left
                               (fun acc p -> if p < r.pos then p else acc)
                               (-1) wpos.(j).(r.ent)))
                in
                Version_fn.add r.pos src v)
              v reads.(i)
          in
          List.iter (fun e -> lw.(e) <- i) writes.(i);
          v)
        Version_fn.empty order
    in
    let memo = Hashtbl.create 256 in
    let lw = Array.make k (-1) in
    let branches = ref 0 and hits = ref 0 in
    let rec go mask depth acc =
      if depth = n then Some (List.rev acc)
      else
        let key = state_key mask lw in
        if Hashtbl.mem memo key then begin
          incr hits;
          None
        end
        else begin
          let rec try_txn i =
            if i >= n then None
            else if mask land (1 lsl i) = 0 && can_place lw i then begin
              incr branches;
              let saved = List.map (fun e -> (e, lw.(e))) writes.(i) in
              List.iter (fun e -> lw.(e) <- i) writes.(i);
              match go (mask lor (1 lsl i)) (depth + 1) (i :: acc) with
              | Some order -> Some order
              | None ->
                  List.iter (fun (e, w) -> lw.(e) <- w) saved;
                  try_txn (i + 1)
            end
            else try_txn (i + 1)
          in
          let r = try_txn 0 in
          if r = None then Hashtbl.replace memo key ();
          r
        end
    in
    let result = Option.map (fun o -> (o, induced o)) (go 0 0 []) in
    (result, !branches, !hits)
end

(* Up to 6 transactions over up to 3 entities, and a random legal
   partial version function to pin. *)
let gen_pinned_schedule =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000
    and* n_txns = int_range 1 6
    and* n_entities = int_range 1 3 in
    let rng = Random.State.make [| seed |] in
    let s =
      Mvcc_workload.Schedule_gen.schedule
        { Mvcc_workload.Schedule_gen.default with
          n_txns; n_entities; min_steps = 1; max_steps = 4 }
        rng
    in
    let pinned =
      List.fold_left
        (fun v pos ->
          if Step.is_read (Schedule.step s pos) && Random.State.bool rng
          then
            let cs = Version_fn.choices s pos in
            Version_fn.add pos
              (List.nth cs (Random.State.int rng (List.length cs)))
              v
          else v)
        Version_fn.empty
        (List.init (Schedule.length s) Fun.id)
    in
    return (s, pinned))

let same_certificate a b =
  match (a, b) with
  | None, None -> true
  | Some (o1, v1), Some (o2, v2) -> o1 = o2 && Version_fn.equal v1 v2
  | _ -> false

let prop_mvsr_search_matches_string_keyed =
  QCheck2.Test.make
    ~name:"MVSR search = string-keyed oracle (witness, counts, pinned)"
    ~count:300 gen_pinned_schedule (fun (s, pinned) ->
      let cert, branches, hits = Mvsr_oracle.search s Version_fn.empty in
      let same_decide =
        match (MS.decide s, cert) with
        | (true, { Mvcc_provenance.Witness.evidence =
                     Accept_version_fn (order, v); _ }), Some _ ->
            same_certificate (Some (order, v)) cert
        | (false, { evidence = Reject_exhausted r; _ }), None ->
            r.branches = branches && r.propagated = hits
        | _ -> false
      in
      let pinned_cert, _, _ = Mvsr_oracle.search s pinned in
      same_decide
      && same_certificate (MS.certificate_pinned s ~pinned) pinned_cert)

(* -- derived indexes against built ones -- *)

(* Every field of the interned view, compared with the index
   [Schedule.of_steps] builds over the same step list. *)
let same_index derived =
  let built =
    Schedule.of_steps ~n_txns:(Schedule.n_txns derived)
      (Array.to_list (Schedule.steps derived))
  in
  let k = Schedule.n_entities built in
  let len = Schedule.length built in
  let all f n = List.for_all f (List.init n Fun.id) in
  Schedule.n_entities derived = k
  && all
       (fun e ->
         let name = Schedule.entity_name built e in
         Schedule.entity_name derived e = name
         && Schedule.entity_index derived name = Some e
         && Schedule.entity_bucket derived e = Schedule.entity_bucket built e)
       k
  && Schedule.entity_index derived "absent" = None
  && all
       (fun p ->
         Schedule.entity_at derived p = Schedule.entity_at built p
         && Schedule.entity_rank derived p = Schedule.entity_rank built p)
       len
  && all
       (fun i ->
         Schedule.txn_positions_arr derived i
         = Schedule.txn_positions_arr built i)
       (Schedule.n_txns built)

(* The blind-write transform as it was written over step lists. *)
let transform_oracle s =
  let seen = Hashtbl.create 8 in
  Schedule.of_steps ~n_txns:(Schedule.n_txns s)
    (List.concat_map
       (fun (st : Step.t) ->
         let key = (st.txn, st.entity) in
         let blind = Step.is_write st && not (Hashtbl.mem seen key) in
         Hashtbl.replace seen key ();
         if blind then [ Step.read st.txn st.entity; st ] else [ st ])
       (Array.to_list (Schedule.steps s)))

let prop_derived_indexes =
  QCheck2.Test.make
    ~name:"pad, transform, serialization: derived index = built index"
    ~count:300
    QCheck2.Gen.(pair gen_pinned_schedule (int_range 0 1_000_000))
    (fun ((s, _), seed) ->
      let rng = Random.State.make [| seed |] in
      let order =
        List.map snd
          (List.sort compare
             (List.init (Schedule.n_txns s) (fun i ->
                  (Random.State.bits rng, i))))
      in
      same_index (Padding.pad s)
      && same_index (D.transform s)
      && same_index (Schedule.serialization s order)
      && Schedule.equal (D.transform s) (transform_oracle s))

let prop_vsr_subset_fsr =
  QCheck2.Test.make ~name:"VSR implies FSR (distinct accesses)" ~count:150
    gen_distinct (fun s -> (not (V.test s)) || Fsr.test s)

let prop_csr_subset_fsr =
  QCheck2.Test.make ~name:"CSR implies FSR" ~count:150 gen_schedule
    (fun s -> (not (C.test s)) || Fsr.test s)

let prop_family_rw_equals_mvcsr =
  QCheck2.Test.make ~name:"family {Rw} coincides with MVCSR" ~count:200
    gen_schedule (fun s -> Family.test ~kinds:[ Family.Rw ] s = MC.test s)

let prop_family_full_equals_csr =
  QCheck2.Test.make ~name:"family {Ww,Wr,Rw} coincides with CSR" ~count:200
    gen_schedule (fun s ->
      Family.test ~kinds:Family.all_kinds s = C.test s)

let prop_mvsg_agrees_per_version_fn =
  QCheck2.Test.make
    ~name:"MVSG ([2]) agrees with the pinned search per version function"
    ~count:60 gen_distinct (fun s ->
      Seq.for_all
        (fun v -> Mvsg.serializable_with s v = MS.serializable_with s v)
        (Version_fn.enumerate s))

let prop_mvsg_class_agrees =
  QCheck2.Test.make ~name:"MVSG-based MVSR test agrees with the search"
    ~count:60 gen_distinct (fun s -> Mvsg.test s = MS.test s)

(* An empirical structure theorem for the paper's Section 3 discussion:
   [8]'s DMVSR coincides with the conflict family preserving write-write
   and read-write order. *)
let prop_dmvsr_equals_family_ww_rw =
  QCheck2.Test.make
    ~name:"DMVSR coincides with family {Ww,Rw} (distinct accesses)"
    ~count:200 gen_distinct (fun s ->
      D.test s = Family.test ~kinds:[ Family.Ww; Family.Rw ] s)

(* Fixing the version order to write order (the paper's append-at-end
   model) yields a class strictly between DMVSR and MVCSR. *)
let write_order_class s =
  Seq.exists
    (fun v -> Mvsg.well_formed s v && Mvsg.write_order_serializable s v)
    (Version_fn.enumerate s)

let prop_write_order_between =
  QCheck2.Test.make
    ~name:"DMVSR <= write-order-serializable <= MVCSR" ~count:100
    gen_distinct (fun s ->
      let wo = write_order_class s in
      ((not (D.test s)) || wo) && ((not wo) || MC.test s))

let prop_serial_in_every_class =
  QCheck2.Test.make ~name:"serializations are in every class" ~count:100
    gen_schedule (fun s ->
      let r = Schedule.serialization s (List.init (Schedule.n_txns s) Fun.id) in
      C.test r && V.test r && MC.test r && MS.test r && D.test r)

let () =
  Alcotest.run "classes"
    [
      ("fig1", [ Alcotest.test_case "regions" `Quick test_fig1_regions ]);
      ("csr", [ Alcotest.test_case "examples" `Quick test_csr_examples ]);
      ( "mvcsr",
        [
          Alcotest.test_case "witness (Theorem 1)" `Quick test_mvcsr_witness;
          Alcotest.test_case "Theorem 3 version fn" `Quick test_theorem3_version_fn;
        ] );
      ( "switching",
        [
          Alcotest.test_case "path validity (Theorem 2)" `Quick test_switching_path;
          Alcotest.test_case "distances" `Quick test_switching_distance;
        ] );
      ( "vsr",
        [
          Alcotest.test_case "examples" `Quick test_vsr_examples;
          Alcotest.test_case "polygraph shape" `Quick test_vsr_polygraph_structure;
        ] );
      ( "dmvsr",
        [
          Alcotest.test_case "transform" `Quick test_dmvsr_transform;
          QCheck_alcotest.to_alcotest prop_derived_indexes;
        ] );
      ( "fsr",
        [
          Alcotest.test_case "examples" `Quick test_fsr_examples;
          Alcotest.test_case "wider than VSR" `Quick
            test_fsr_strictly_wider_than_vsr;
          Alcotest.test_case "own-write interposition" `Quick
            test_vsr_own_write_interposition;
          Alcotest.test_case "FSR/MVSR incomparable" `Quick
            test_fsr_mvsr_incomparable;
        ] );
      ( "mvsg",
        [
          Alcotest.test_case "basics" `Quick test_mvsg_basics;
          Alcotest.test_case "well-formedness" `Quick test_mvsg_well_formedness;
          Alcotest.test_case "order validation" `Quick test_mvsg_order_validation;
        ] );
      ( "family",
        [
          Alcotest.test_case "endpoints" `Quick test_family_endpoints;
          Alcotest.test_case "monotone" `Quick test_family_monotone;
          Alcotest.test_case "unsafe without Rw" `Quick
            test_family_unsafe_without_rw;
          Alcotest.test_case "witness" `Quick test_family_witness;
        ] );
      ( "report",
        [
          Alcotest.test_case "consistency" `Quick test_report_consistency;
          Alcotest.test_case "rendering" `Quick test_report_rendering;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "Theorem 1 vs Theorem 2" `Slow test_exhaustive_theorem1;
          Alcotest.test_case "VSR polygraph vs exact" `Slow test_exhaustive_vsr;
          Alcotest.test_case "MVSR search vs naive" `Slow test_exhaustive_mvsr;
          Alcotest.test_case "containments" `Slow test_exhaustive_containments;
          Alcotest.test_case "full 2x2x2 universe" `Slow
            test_exhaustive_universe;
        ] );
      ( "mvsr",
        [
          Alcotest.test_case "certificate" `Quick test_mvsr_certificate;
          Alcotest.test_case "pinned reads" `Quick test_mvsr_pinned;
          Alcotest.test_case "serializable with" `Quick test_serializable_with;
          QCheck_alcotest.to_alcotest prop_mvsr_search_matches_string_keyed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_csr_subset_vsr;
            prop_csr_subset_mvcsr;
            prop_theorem3;
            prop_vsr_subset_mvsr;
            prop_dmvsr_subset_mvcsr;
            prop_dmvsr_is_mvsr_without_blind_writes;
            prop_vsr_subset_fsr;
            prop_csr_subset_fsr;
            prop_family_rw_equals_mvcsr;
            prop_family_full_equals_csr;
            prop_mvsg_agrees_per_version_fn;
            prop_mvsg_class_agrees;
            prop_dmvsr_equals_family_ww_rw;
            prop_write_order_between;
            prop_serial_in_every_class;
          ] );
    ]
