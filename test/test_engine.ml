(* Tests for the storage engine: the version store, program semantics, and
   end-to-end runs under every policy with semantic invariants. *)

module E = Mvcc_engine.Engine
module P = Mvcc_engine.Program
module S = Mvcc_engine.Store
module Metrics = Mvcc_obs.Metrics
module Span = Mvcc_obs.Span
module Json = Mvcc_obs.Json
module Event = Mvcc_engine.Event
module Sink = Mvcc_obs.Sink

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -- Store -- *)

let test_store_initial () =
  let st = S.create ~initial:[ ("x", 5) ] in
  check_int "initial value" 5 (S.latest st "x").S.value;
  check_int "lazy entity defaults to 0" 0 (S.latest st "y").S.value;
  check_int "one version" 1 (S.version_count st "x")

let test_store_versions () =
  let st = S.create ~initial:[ ("x", 1) ] in
  S.install st "x" ~value:10 ~wts:2;
  S.install st "x" ~value:20 ~wts:5;
  check_int "latest" 20 (S.latest st "x").S.value;
  check_int "read at 3 sees wts 2" 10 (S.read_at st "x" 3).S.value;
  check_int "read at 1 sees initial" 1 (S.read_at st "x" 1).S.value;
  check_int "chain length" 3 (S.version_count st "x")

let test_store_validation () =
  let st = S.create ~initial:[] in
  check "non-positive wts rejected" true
    (try S.install st "x" ~value:0 ~wts:0; false
     with Invalid_argument _ -> true);
  S.install st "x" ~value:1 ~wts:3;
  check "duplicate wts rejected" true
    (try S.install st "x" ~value:2 ~wts:3; false
     with Invalid_argument _ -> true)

let test_store_invalidation () =
  let st = S.create ~initial:[ ("x", 0) ] in
  (* a transaction with ts 5 reads the initial version *)
  let v = S.read_at st "x" 5 in
  v.S.max_rts <- 5;
  check "older write would invalidate" true (S.would_invalidate st "x" ~wts:3);
  check "younger write fine" false (S.would_invalidate st "x" ~wts:7)

let test_store_value_map () =
  let st = S.create ~initial:[ ("a", 1); ("b", 2) ] in
  S.install st "a" ~value:9 ~wts:1;
  check "map reflects latest" true
    (S.value_map st = [ ("a", 9); ("b", 2) ])

(* The store against a naive model: the interned names in first-touch
   order, and each present entity's versions as (wts, value, max_rts)
   triples in an assoc list. *)
(* the [by_id] accessors go through [intern] and the [_id] form *)
type store_op =
  | Set_initial of string * int
  | Intern of string
  | Install of bool * string * int * int  (* by_id, entity, value, wts *)
  | Read_at of bool * string * int * bool  (* bump [max_rts] to the ts *)
  | Latest of bool * string
  | Would_invalidate of bool * string * int
  | Prune of string * int
  | Prune_all of int
  | Version_count of string

let show_store_op =
  let form name by_id = if by_id then name ^ "_id (intern)" else name in
  function
  | Set_initial (e, v) -> Printf.sprintf "set_initial %s %d" e v
  | Intern e -> "intern " ^ e
  | Install (by_id, e, v, w) ->
      Printf.sprintf "%s %s ~value:%d ~wts:%d" (form "install" by_id) e v w
  | Read_at (by_id, e, ts, bump) ->
      Printf.sprintf "%s %s %d%s" (form "read_at" by_id) e ts
        (if bump then " (bump)" else "")
  | Latest (by_id, e) -> form "latest" by_id ^ " " ^ e
  | Would_invalidate (by_id, e, w) ->
      Printf.sprintf "%s %s ~wts:%d" (form "would_invalidate" by_id) e w
  | Prune (e, w) -> Printf.sprintf "prune %s ~watermark:%d" e w
  | Prune_all w -> Printf.sprintf "prune_all ~watermark:%d" w
  | Version_count e -> "version_count " ^ e

type store_model = {
  mutable interned : string list;  (* first-touch order *)
  mutable chains : (string * (int * int * int) list) list;
}

let m_intern m e =
  if not (List.mem e m.interned) then m.interned <- m.interned @ [ e ]

let m_set m e c =
  m.chains <- (e, c) :: List.remove_assoc e m.chains

(* a chain access: makes the entity present at initial value 0 *)
let m_chain m e =
  m_intern m e;
  match List.assoc_opt e m.chains with
  | Some c -> c
  | None ->
      m_set m e [ (0, 0, 0) ];
      [ (0, 0, 0) ]

(* the newest version satisfying [p], as (wts, value, max_rts) *)
let m_newest p c =
  List.fold_left
    (fun best ((w, _, _) as v) ->
      match best with
      | Some (bw, _, _) when bw >= w -> best
      | _ when p w -> Some v
      | _ -> best)
    None c

let m_latest c = Option.get (m_newest (fun _ -> true) c)

let m_prune m e watermark =
  let c = m_chain m e in
  match m_newest (fun w -> w <= watermark) c with
  | None -> 0
  | Some (base, _, _) ->
      let keep = List.filter (fun (w, _, _) -> w >= base) c in
      m_set m e keep;
      List.length c - List.length keep

let m_present m = List.sort compare (List.map fst m.chains)
let m_versions c = List.sort compare (List.map (fun (w, v, _) -> (w, v)) c)

let store_entities = List.init 20 (Printf.sprintf "e%d")

let gen_store_op =
  QCheck2.Gen.(
    let entity = oneofl store_entities in
    let small = int_range 0 99 in
    let ts = int_range 0 14 in
    frequency
      [
        (1, map2 (fun e v -> Set_initial (e, v)) entity small);
        (2, map (fun e -> Intern e) entity);
        ( 4,
          map4
            (fun by_id e v w -> Install (by_id, e, v, w))
            bool entity small (int_range (-1) 12) );
        ( 3,
          map4
            (fun by_id e t b -> Read_at (by_id, e, t, b))
            bool entity ts bool );
        (1, map2 (fun by_id e -> Latest (by_id, e)) bool entity);
        ( 2,
          map3
            (fun by_id e w -> Would_invalidate (by_id, e, w))
            bool entity ts );
        (1, map2 (fun e w -> Prune (e, w)) entity ts);
        (1, map (fun w -> Prune_all w) ts);
        (1, map (fun e -> Version_count e) entity);
      ])

let prop_store_model =
  QCheck2.Test.make ~name:"store agrees with an assoc-list model" ~count:300
    ~print:(fun (initial, ops) ->
      Printf.sprintf "initial [%s]\n%s"
        (String.concat "; "
           (List.map (fun (e, v) -> Printf.sprintf "%s=%d" e v) initial))
        (String.concat "\n" (List.map show_store_op ops)))
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 4)
           (pair (oneofl store_entities) (int_range 0 99)))
        (list_size (int_range 0 80) gen_store_op))
    (fun (initial, ops) ->
      let t = S.create ~initial in
      let m = { interned = []; chains = [] } in
      let m_set_initial e v =
        m_intern m e;
        m_set m e [ (0, v, 0) ]
      in
      List.iter (fun (e, v) -> m_set_initial e v) initial;
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let raises f =
        match f () with () -> false | exception Invalid_argument _ -> true
      in
      (* an id form's caller interns first, so the model does too *)
      let id_of by_id e =
        if by_id then begin
          m_intern m e;
          Some (S.intern t e)
        end
        else None
      in
      let step op =
        match op with
        | Set_initial (e, v) ->
            S.set_initial t e v;
            m_set_initial e v
        | Intern e ->
            ignore (S.intern t e);
            m_intern m e
        | Install (by_id, e, value, wts) ->
            let install =
              match id_of by_id e with
              | Some id -> fun () -> S.install_id t id ~value ~wts
              | None -> fun () -> S.install t e ~value ~wts
            in
            (* a non-positive wts is refused before the name is interned
               or the chain touched *)
            let refused =
              wts <= 0
              || List.exists (fun (w, _, _) -> w = wts) (m_chain m e)
            in
            if raises install <> refused then
              fail "install %s ~wts:%d: Invalid_argument expected %b" e wts
                refused;
            if not refused then m_set m e ((wts, value, wts) :: m_chain m e)
        | Read_at (by_id, e, ts, bump) -> (
            let read_at =
              match id_of by_id e with
              | Some id -> fun () -> S.read_at_id t id ts
              | None -> fun () -> S.read_at t e ts
            in
            (* after a prune no version may lie at or below [ts] *)
            let expect = m_newest (fun w -> w <= ts) (m_chain m e) in
            match (read_at (), expect) with
            | exception Invalid_argument _ ->
                if expect <> None then fail "read_at %s %d raised" e ts
            | _, None -> fail "read_at %s %d: model has no version" e ts
            | v, Some (w, value, rts) ->
                if (v.S.wts, v.S.value) <> (w, value) then
                  fail "read_at %s %d: (%d, %d), model (%d, %d)" e ts v.S.wts
                    v.S.value w value;
                if bump then begin
                  v.S.max_rts <- max v.S.max_rts ts;
                  m_set m e
                    (List.map
                       (fun ((w', _, _) as x) ->
                         if w' = w then (w, value, max rts ts) else x)
                       (m_chain m e))
                end)
        | Latest (by_id, e) ->
            let v =
              match id_of by_id e with
              | Some id -> S.latest_id t id
              | None -> S.latest t e
            in
            let w, value, _ = m_latest (m_chain m e) in
            if (v.S.wts, v.S.value) <> (w, value) then fail "latest %s" e
        | Would_invalidate (by_id, e, wts) ->
            let got =
              match id_of by_id e with
              | Some id -> S.would_invalidate_id t id ~wts
              | None -> S.would_invalidate t e ~wts
            in
            let expect =
              List.exists (fun (w, _, r) -> w < wts && r > wts) (m_chain m e)
            in
            if got <> expect then
              fail "would_invalidate %s ~wts:%d: expected %b" e wts expect
        | Prune (e, watermark) ->
            let n = S.prune t e ~watermark in
            if n <> m_prune m e watermark then fail "prune %s" e
        | Prune_all watermark ->
            let n = S.prune_all t ~watermark in
            let expect =
              List.fold_left
                (fun acc e -> acc + m_prune m e watermark)
                0 (m_present m)
            in
            if n <> expect then fail "prune_all: %d, model %d" n expect
        | Version_count e ->
            if S.version_count t e <> List.length (m_chain m e) then
              fail "version_count %s" e
      in
      let agrees () =
        let present = m_present m in
        if S.entities t <> present then fail "entities differ";
        List.iter
          (fun e ->
            if (not (List.mem e present)) && List.mem e (S.entities t) then
              fail "intern-only %s is listed" e)
          m.interned;
        List.iteri
          (fun id e ->
            if S.intern t e <> id || S.name t id <> e then
              fail "%s is not id %d" e id)
          m.interned;
        let expect f = List.map (fun e -> (e, f (List.assoc e m.chains))) in
        let value c = match m_latest c with _, v, _ -> v in
        if S.value_map t <> expect value present then
          fail "value_map differs";
        if S.dump t <> expect m_versions present then fail "dump differs"
      in
      List.iter (fun op -> step op; agrees ()) ops;
      let read t e ts =
        match S.read_at t e ts with
        | v -> Some (v.S.wts, v.S.value)
        | exception Invalid_argument _ -> None
      in
      let restored = S.of_dump (S.dump t) in
      if S.entities restored <> S.entities t then fail "of_dump: entities";
      List.iter
        (fun e ->
          for ts = 0 to 14 do
            if read t e ts <> read restored e ts then
              fail "of_dump: read_at %s %d" e ts
          done)
        (m_present m);
      true)

(* -- Program -- *)

let test_program_eval () =
  let regs = function "x" -> 10 | "y" -> 3 | _ -> raise Not_found in
  check_int "arith" 13 (P.eval regs (P.Add (P.Reg "x", P.Reg "y")));
  check_int "sub const" 7 (P.eval regs (P.Sub (P.Reg "x", P.Const 3)))

let test_program_mix () =
  let regs = function "x" -> 3 | _ -> raise Not_found in
  let a = P.eval regs (P.Mix (10, P.Reg "x")) in
  check_int "mix is deterministic" a (P.eval regs (P.Mix (10, P.Reg "x")));
  check "mix scrambles its input" true (a <> 3);
  check_int "zero rounds is the identity" 3 (P.eval regs (P.Mix (0, P.Reg "x")))

let test_program_builders () =
  let t = P.transfer ~label:"t" ~from_:"a" ~to_:"b" 5 in
  check_int "transfer ops" 4 (List.length t.P.ops);
  let r = P.read_all ~label:"r" [ "a"; "b"; "c" ] in
  check_int "read all" 3 (List.length r.P.ops);
  let b = P.blind_write ~label:"b" "x" 1 in
  check "blind write has no read" true
    (match b.P.ops with [ P.Write _ ] -> true | _ -> false)

(* -- Engine runs -- *)

let accounts = List.init 6 (fun i -> Printf.sprintf "a%d" i)
let initial = List.map (fun a -> (a, 100)) accounts

let bank_workload =
  List.init 4 (fun i ->
      P.transfer
        ~label:(Printf.sprintf "t%d" i)
        ~from_:(List.nth accounts (i mod 6))
        ~to_:(List.nth accounts ((i + 2) mod 6))
        7)
  @ List.init 4 (fun i -> P.read_all ~label:(Printf.sprintf "r%d" i) accounts)

let total state = List.fold_left (fun acc (_, v) -> acc + v) 0 state

let test_all_policies_commit_and_conserve () =
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          let r = E.run ~policy ~initial ~programs:bank_workload ~seed () in
          check_int
            (Printf.sprintf "%s seed %d commits" (E.policy_name policy) seed)
            (List.length bank_workload)
            r.E.stats.E.commits;
          check_int
            (Printf.sprintf "%s seed %d conserves" (E.policy_name policy) seed)
            600
            (total r.E.final_state))
        [ 1; 2; 3; 11; 99 ])
    [ E.S2pl; E.To; E.Mvto; E.Sgt ]

let test_deterministic () =
  let run () = E.run ~policy:E.S2pl ~initial ~programs:bank_workload ~seed:5 () in
  let a = run () and b = run () in
  check "same stats" true (a.E.stats = b.E.stats);
  check "same state" true (a.E.final_state = b.E.final_state)

let test_mvto_readers_never_abort () =
  let readers = List.init 8 (fun i -> P.read_all ~label:(string_of_int i) accounts) in
  let r = E.run ~policy:E.Mvto ~initial ~programs:readers ~seed:3 () in
  check_int "no aborts in read-only workload" 0 r.E.stats.E.aborts;
  check_int "no blocking" 0 r.E.stats.E.blocked_ticks

let test_mvto_no_blocking_ever () =
  let r = E.run ~policy:E.Mvto ~initial ~programs:bank_workload ~seed:4 () in
  check_int "mvto never blocks" 0 r.E.stats.E.blocked_ticks

(* Both runs start with an empty runnable set: one has no clients, the
   other only read-only ones, which the snapshot path launches off the
   tick loop. *)
let test_empty_runnable_set () =
  let readers =
    List.init 5 (fun i -> P.read_all ~label:(string_of_int i) accounts)
  in
  List.iter
    (fun policy ->
      let name = E.policy_name policy in
      let r = E.run ~policy ~initial ~programs:[] ~seed:1 () in
      check_int (name ^ " no clients: ticks") 0 r.E.stats.E.ticks;
      check_int (name ^ " no clients: commits") 0 r.E.stats.E.commits;
      let r =
        E.run ~policy ~initial ~programs:readers ~ro_snapshot:true ~seed:1 ()
      in
      check_int (name ^ " read-only: ticks") 0 r.E.stats.E.ticks;
      check_int (name ^ " read-only: commits") 5 r.E.stats.E.commits;
      check_int (name ^ " read-only: snapshot reads") 5
        (List.length r.E.ro_reads))
    E.all_policies

let test_s2pl_deadlock_resolved () =
  (* two transfers in opposite directions force lock cycles eventually *)
  let programs =
    [
      P.transfer ~label:"ab" ~from_:"a0" ~to_:"a1" 1;
      P.transfer ~label:"ba" ~from_:"a1" ~to_:"a0" 1;
    ]
  in
  (* try many seeds: all must terminate with both committed *)
  List.iter
    (fun seed ->
      let r = E.run ~policy:E.S2pl ~initial ~programs ~seed () in
      check_int "both commit" 2 r.E.stats.E.commits;
      check_int "balances conserved" 600 (total r.E.final_state))
    (List.init 20 Fun.id)

let test_version_chains_grow_under_mvto () =
  let programs =
    List.init 5 (fun i -> P.increment ~label:(string_of_int i) "a0" 1)
  in
  let r = E.run ~policy:E.Mvto ~initial ~programs ~seed:1 () in
  check "chains grew" true (r.E.stats.E.max_version_chain > 1);
  check_int "all increments applied" 105
    (List.assoc "a0" r.E.final_state)

let test_blind_writes () =
  let programs =
    [ P.blind_write ~label:"w1" "a0" 42; P.blind_write ~label:"w2" "a0" 43 ]
  in
  List.iter
    (fun policy ->
      let r = E.run ~policy ~initial ~programs ~seed:2 () in
      check_int "both commit" 2 r.E.stats.E.commits;
      check "one of the writes is final" true
        (let v = List.assoc "a0" r.E.final_state in
         v = 42 || v = 43))
    [ E.S2pl; E.To; E.Mvto; E.Sgt ]

let test_si_commits_and_conserves_transfers () =
  (* transfers read what they write, so SI's first-committer-wins keeps
     them serializable and the invariant holds *)
  List.iter
    (fun seed ->
      let r = E.run ~policy:E.Si ~initial ~programs:bank_workload ~seed () in
      check_int "commits" (List.length bank_workload) r.E.stats.E.commits;
      check_int "conserved" 600 (total r.E.final_state))
    [ 1; 2; 3 ]

let test_si_write_skew_anomaly () =
  (* the copy-skew workload: T1 copies x into y, T2 copies y into x.
     Serial outcomes from (x=1, y=2) are (1,1) or (2,2); under SI both
     transactions can read their snapshots and commit (disjoint write
     sets), producing the non-serializable (2,1). *)
  let programs =
    [
      { P.label = "copy-x-to-y"; ops = [ P.Read "x"; P.Write ("y", P.Reg "x") ] };
      { P.label = "copy-y-to-x"; ops = [ P.Read "y"; P.Write ("x", P.Reg "y") ] };
    ]
  in
  let initial = [ ("x", 1); ("y", 2) ] in
  let serial_outcomes = [ [ ("x", 1); ("y", 1) ]; [ ("x", 2); ("y", 2) ] ] in
  let outcome policy seed =
    (E.run ~policy ~initial ~programs ~seed ()).E.final_state
  in
  let seeds = List.init 30 Fun.id in
  (* every serializable policy always lands on a serial outcome *)
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          check "serializable policies produce serial outcomes" true
            (List.mem (outcome policy seed) serial_outcomes))
        seeds)
    [ E.S2pl; E.To; E.Mvto; E.Sgt ];
  (* some interleaving exhibits the anomaly under SI *)
  let anomalous =
    List.exists
      (fun seed -> not (List.mem (outcome E.Si seed) serial_outcomes))
      seeds
  in
  check "SI exhibits write skew" true anomalous

let test_sgt_readers_never_abort () =
  (* reads never conflict with reads, so the certification graph of a
     read-only workload has no arcs and nothing ever aborts or waits *)
  let readers =
    List.init 8 (fun i -> P.read_all ~label:(string_of_int i) accounts)
  in
  let r = E.run ~policy:E.Sgt ~initial ~programs:readers ~seed:3 () in
  check_int "no aborts in read-only workload" 0 r.E.stats.E.aborts;
  check_int "no blocking" 0 r.E.stats.E.blocked_ticks

let test_gc_prunes_versions () =
  let programs =
    List.init 8 (fun i -> P.increment ~label:(string_of_int i) "a0" 1)
  in
  let without = E.run ~policy:E.Mvto ~initial ~programs ~seed:9 () in
  let with_gc = E.run ~policy:E.Mvto ~initial ~programs ~gc:true ~seed:9 () in
  check "same final state" true (without.E.final_state = with_gc.E.final_state);
  check "gc pruned something" true (with_gc.E.stats.E.gc_pruned > 0);
  check "no gc prunes nothing" true (without.E.stats.E.gc_pruned = 0);
  check "chains shorter with gc" true
    (with_gc.E.stats.E.max_version_chain
    <= without.E.stats.E.max_version_chain)

let test_crash_injection () =
  (* invariants survive arbitrary mid-flight failures under every policy:
     crashed attempts discard their buffers and restart *)
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          let r =
            E.run ~policy ~initial ~programs:bank_workload
              ~crash_probability:0.05 ~seed ()
          in
          check_int
            (Printf.sprintf "%s crash seed %d conserves"
               (E.policy_name policy) seed)
            600
            (total r.E.final_state);
          check_int "all programs still commit"
            (List.length bank_workload)
            r.E.stats.E.commits;
          check "crashes recorded as aborts" true (r.E.stats.E.aborts > 0))
        [ 1; 2; 3 ])
    E.all_policies

let test_deadlock_policies () =
  (* opposed transfers force lock conflicts; every resolution policy must
     terminate with all commits and conserved balances *)
  let programs =
    [
      P.transfer ~label:"ab" ~from_:"a0" ~to_:"a1" 1;
      P.transfer ~label:"ba" ~from_:"a1" ~to_:"a0" 1;
      P.transfer ~label:"ab2" ~from_:"a0" ~to_:"a1" 2;
    ]
  in
  List.iter
    (fun deadlock ->
      List.iter
        (fun seed ->
          let r = E.run ~policy:E.S2pl ~initial ~programs ~deadlock ~seed () in
          check_int
            (Printf.sprintf "%s seed %d commits"
               (E.deadlock_policy_name deadlock) seed)
            3 r.E.stats.E.commits;
          check_int "conserved" 600 (total r.E.final_state))
        (List.init 15 Fun.id))
    [ E.Detect; E.Wait_die; E.Wound_wait ]

let test_wound_wait_preempts () =
  (* an older requester wounds a younger lock holder rather than waiting:
     with wound-wait there must be runs with aborts but zero blocked ticks
     spent by the older transaction on that lock; at minimum the policies
     must differ somewhere on this contended workload *)
  let programs =
    List.init 4 (fun i -> P.increment ~label:(string_of_int i) "a0" 1)
  in
  let stats deadlock seed =
    (E.run ~policy:E.S2pl ~initial ~programs ~deadlock ~seed ()).E.stats
  in
  let differs =
    List.exists
      (fun seed -> stats E.Wound_wait seed <> stats E.Detect seed)
      (List.init 20 Fun.id)
  in
  check "policies behave differently somewhere" true differs;
  List.iter
    (fun seed ->
      check_int "wound-wait still completes" 4
        (stats E.Wound_wait seed).E.commits)
    (List.init 10 Fun.id)

let test_store_prune () =
  let st = S.create ~initial:[ ("x", 1) ] in
  S.install st "x" ~value:2 ~wts:2;
  S.install st "x" ~value:3 ~wts:5;
  let dropped = S.prune st "x" ~watermark:3 in
  check_int "dropped below-watermark history" 1 dropped;
  check_int "snapshot base kept" 2 (S.read_at st "x" 3).S.value;
  check_int "latest kept" 3 (S.latest st "x").S.value

(* -- observability: abort reasons, cascade chains, commit waits -- *)

let instrumented ?(crash = 0.) ?(initial = initial) ~policy ~programs seed =
  let metrics = Metrics.create () in
  let spans = Span.create ~capacity:65536 () in
  let obs = Sink.create ~metrics ~spans () in
  let r =
    E.run ~policy ~initial ~programs ~crash_probability:crash ~obs ~seed ()
  in
  (r, metrics, spans)

let abort_reason_total metrics =
  List.fold_left
    (fun acc reason ->
      acc
      + Metrics.counter metrics ("engine.abort." ^ Event.reason_name reason))
    0 Event.all_reasons

(* the abort reason an attempt span closed with, if it aborted *)
let abort_reason (s : Span.span) =
  let attr k = List.assoc_opt k s.Span.attrs in
  match (s.Span.name, attr "outcome", attr "reason") with
  | "attempt", Some (Json.Str "abort"), Some (Json.Str r) -> Some r
  | _ -> None

(* the accounting identities every instrumented run must satisfy:
   counters reconcile with the engine's own statistics, and the span
   ring holds exactly one "commit" point per commit and one aborted
   attempt span per abort, with each reason counted as often as its
   [engine.abort.<reason>] counter *)
let check_reconciled name r metrics spans =
  check_int (name ^ ": no span dropped") 0 (Span.dropped spans);
  check_int (name ^ ": commit counter = stats") r.E.stats.E.commits
    (Metrics.counter metrics "engine.commits");
  check_int (name ^ ": abort counter = stats") r.E.stats.E.aborts
    (Metrics.counter metrics "engine.aborts");
  check_int
    (name ^ ": abort reasons partition the aborts")
    r.E.stats.E.aborts (abort_reason_total metrics);
  let sl = Span.to_list spans in
  let count f = List.length (List.filter f sl) in
  check_int (name ^ ": one commit point per commit") r.E.stats.E.commits
    (count (fun s -> s.Span.name = "commit"));
  check_int (name ^ ": one aborted attempt per abort") r.E.stats.E.aborts
    (count (fun s -> abort_reason s <> None));
  List.iter
    (fun reason ->
      let n = Event.reason_name reason in
      check_int
        (Printf.sprintf "%s: %s attempts = engine.abort.%s" name n n)
        (Metrics.counter metrics ("engine.abort." ^ n))
        (count (fun s -> abort_reason s = Some n)))
    Event.all_reasons

(* a dependency chain: t1 reads t0's dirty write, t2 reads t1's, t3
   reads t2's — so a crash of an early writer must cascade down the
   whole suffix. Filler reads keep every transaction alive long enough
   for its successor to consume the dirty value. *)
let chain_workload =
  let filler = List.init 4 (fun i -> P.Read (Printf.sprintf "f%d" i)) in
  let link label src dst =
    { P.label; ops = (P.Read src :: P.Write (dst, P.Reg src) :: filler) }
  in
  [
    { P.label = "t0"; ops = (P.Write ("x", P.Const 1) :: filler) };
    link "t1" "x" "y";
    link "t2" "y" "z";
    link "t3" "z" "w";
  ]

let test_sgt_cascade_chain () =
  let seeds = List.init 80 Fun.id in
  (* the counters must reconcile on every seed... *)
  List.iter
    (fun seed ->
      let r, metrics, spans =
        instrumented ~crash:0.08 ~policy:E.Sgt ~programs:chain_workload
          seed
      in
      check_reconciled (Printf.sprintf "cascade seed %d" seed) r metrics
        spans)
    seeds;
  (* ...and some seed must exhibit a chain at least three deep: a root
     abort (crash or certification) followed by >= 2 cascades *)
  let deep_chain seed =
    let _, metrics, spans =
      instrumented ~crash:0.08 ~policy:E.Sgt ~programs:chain_workload seed
    in
    Metrics.counter metrics "engine.abort.cascade" >= 2
    &&
    (* aborted attempts in abort order: a root, then >= 2 cascades *)
    match List.filter_map abort_reason (Span.to_list spans) with
    | "cascade" :: _ | [] -> false
    | _ :: rest -> List.length (List.filter (( = ) "cascade") rest) >= 2
  in
  check "some seed cascades >= 3 transactions deep" true
    (List.exists deep_chain seeds)

let test_sgt_commit_waits () =
  (* t1 reads t0's dirty write and finishes first, so it must hold its
     commit until t0 resolves — observable as engine.commit-waits > 0
     while both still commit (no crashes, so nothing ever aborts) *)
  let programs =
    [
      {
        P.label = "writer";
        ops =
          (P.Write ("x", P.Const 7)
          :: List.init 6 (fun i -> P.Read (Printf.sprintf "f%d" i)));
      };
      { P.label = "reader"; ops = [ P.Read "x" ] };
    ]
  in
  let seeds = List.init 80 Fun.id in
  let waited = ref false in
  List.iter
    (fun seed ->
      let r, metrics, spans = instrumented ~policy:E.Sgt ~programs seed in
      check_int
        (Printf.sprintf "seed %d: both commit" seed)
        2 r.E.stats.E.commits;
      check_int (Printf.sprintf "seed %d: no aborts" seed) 0
        r.E.stats.E.aborts;
      check_reconciled
        (Printf.sprintf "commit-wait seed %d" seed)
        r metrics spans;
      if Metrics.counter metrics "engine.commit-waits" > 0 then begin
        waited := true;
        check
          (Printf.sprintf "seed %d: commit-wait point traced" seed)
          true
          (List.exists
             (fun s -> s.Span.name = "commit-wait")
             (Span.to_list spans))
      end)
    seeds;
  check "some seed exhibits a commit wait" true !waited

let test_abort_reason_counters () =
  (* each policy's characteristic abort shows up under its own reason
     counter on this contended workload, and never under another
     policy's reason *)
  let seeds = List.init 40 Fun.id in
  let reason_hit policy name =
    List.exists
      (fun seed ->
        let _, metrics, _ =
          instrumented ~policy ~programs:bank_workload seed
        in
        Metrics.counter metrics ("engine.abort." ^ name) > 0)
      seeds
  in
  check "ts-order aborts under TO" true (reason_hit E.To "ts-order");
  check "first-committer aborts under SI" true
    (reason_hit E.Si "first-committer");
  check "no certification aborts under TO" false
    (reason_hit E.To "certification");
  check "no ts-order aborts under S2PL" false (reason_hit E.S2pl "ts-order");
  (* the counter constants spell [engine.abort.<reason_name>] *)
  List.iter
    (fun r ->
      Alcotest.(check string)
        "counter name" ("engine.abort." ^ Event.reason_name r)
        (Event.reason_counter r))
    Event.all_reasons;
  (* crash injection surfaces as the crash reason under every policy *)
  List.iter
    (fun policy ->
      check
        (Printf.sprintf "crashes counted under %s" (E.policy_name policy))
        true
        (List.exists
           (fun seed ->
             let _, metrics, _ =
               instrumented ~crash:0.1 ~policy ~programs:bank_workload seed
             in
             Metrics.counter metrics "engine.abort.crash" > 0)
           seeds))
    E.all_policies

(* the span/stat identities beyond SGT: Mix-loaded mixed workloads
   under every policy, with crashes feeding the crash reason *)
let test_spans_reconcile_all_policies () =
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          let initial, programs =
            Mvcc_workload.Program_gen.mixed ~n_entities:6 ~theta:0.6
              ~n_txns:10 ~seed ()
          in
          let r, metrics, spans =
            instrumented ~crash:0.05 ~initial ~policy ~programs seed
          in
          check_reconciled
            (Printf.sprintf "%s seed %d" (E.policy_name policy) seed)
            r metrics spans)
        (List.init 12 Fun.id))
    E.all_policies

(* -- properties -- *)

let prop_conservation =
  QCheck2.Test.make ~name:"transfers conserve total balance under all policies"
    ~count:60
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* n_transfers = int_range 1 6 in
      let* policy = oneofl [ E.S2pl; E.To; E.Mvto; E.Sgt ] in
      return (seed, n_transfers, policy))
    (fun (seed, n_transfers, policy) ->
      let programs =
        List.init n_transfers (fun i ->
            P.transfer
              ~label:(string_of_int i)
              ~from_:(List.nth accounts (i mod 6))
              ~to_:(List.nth accounts ((i + 1) mod 6))
              (1 + (i * 3)))
      in
      let r = E.run ~policy ~initial ~programs ~seed () in
      r.E.stats.E.commits = n_transfers && total r.E.final_state = 600)

(* -- the off-loop snapshot-read version function -- *)

module W = Mvcc_provenance.Witness
module Checker = Mvcc_provenance.Checker
module VF = Mvcc_core.Version_fn

(* Every off-loop read must serve exactly the snapshot-timestamp version
   function: per entity the newest committed install at or below the
   snapshot. Checked three ways against the captured install stream —
   directly against the max-install oracle; against [Version_fn.standard]
   on the committed prefix (installs at or below the snapshot, replayed
   in timestamp order, are a serial schedule whose standard version
   function must be what the reader saw); and through the provenance
   checker as a [Read_consistent] witness over that prefix. *)
let prop_ro_snapshot_version_fn =
  QCheck2.Test.make
    ~name:"off-loop readers observe the snapshot version function"
    ~count:40
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* policy = oneofl E.all_policies in
      let* n_txns = int_range 4 12 in
      return (seed, policy, n_txns))
    (fun (seed, policy, n_txns) ->
      let initial, programs =
        Mvcc_workload.Program_gen.mixed ~n_entities:6 ~theta:0.5
          ~read_fraction:0.5 ~reads_per_txn:3 ~writes_per_txn:2 ~mix_rounds:0
          ~n_txns ~seed ()
      in
      let installs = ref [] in
      let prov = Mvcc_provenance.Log.create () in
      let r =
        E.run ~policy ~initial ~programs ~prov
          ~wal:(fun e ->
            match e with
            | E.Wal_install { entity; wts; txn; _ } ->
                installs := (entity, wts, txn) :: !installs
            | _ -> ())
          ~ro_snapshot:true ~seed ()
      in
      let installs = List.rev !installs in
      let n_ro = List.length (List.filter P.read_only programs) in
      let ok_entry (id, snap, views) =
        let oracle e =
          List.fold_left
            (fun acc (e', w, _) -> if e' = e && w <= snap then max acc w else acc)
            0 installs
        in
        let read_order =
          List.filter_map
            (function P.Read e -> Some e | P.Write _ -> None)
            (List.nth programs id).P.ops
        in
        List.map fst views = read_order
        && List.for_all (fun (e, w) -> w = oracle e) views
        &&
        (* the committed prefix in timestamp order + the reads, as a
           schedule: installs of one commit never straddle the snapshot
           (their timestamps are drawn consecutively), so the prefix is
           commit-complete and its standard version function is the
           snapshot's *)
        let prefix =
          List.filter (fun (_, w, _) -> w <= snap) installs
          |> List.stable_sort (fun (_, w1, _) (_, w2, _) -> compare w1 w2)
        in
        let steps =
          List.map (fun (e, _, txn) -> Mvcc_core.Step.write txn e) prefix
          @ List.map (fun (e, _) -> Mvcc_core.Step.read id e) views
        in
        let sched =
          Mvcc_core.Schedule.of_steps ~n_txns:(List.length programs) steps
        in
        let base = List.length prefix in
        let vf =
          List.fold_left
            (fun (pos, vf) (e, w) ->
              let src =
                if w = 0 then VF.Initial
                else
                  let j = ref (-1) in
                  List.iteri
                    (fun k (e', w', _) -> if e' = e && w' = w then j := k)
                    prefix;
                  VF.From !j
              in
              (pos + 1, VF.add pos src vf))
            (base, VF.empty) views
          |> snd
        in
        VF.equal vf (VF.standard sched)
        && Checker.check sched
             { W.claim = Read_consistent; evidence = Accept_version_fn ([], vf) }
           = Checker.Confirmed
      in
      r.E.stats.E.commits = n_txns
      && List.length r.E.ro_reads = n_ro
      && List.for_all ok_entry r.E.ro_reads
      &&
      (* the full-run witness still verifies with the off-loop readers in
         the history *)
      match r.E.provenance with
      | Some (h, w) -> Checker.check h w = Checker.Confirmed
      | None -> false)

(* -- the frozen golden grid -- *)

(* One line per run over policy x gc x crash x ro_snapshot x seed
   (plus the S2PL deadlock-prevention modes and, per policy, two
   max_ticks-cut runs): the run's stats and durable count, and MD5s of the
   final state, the off-loop reads, the committed history with its
   printed witness, and the bytes a [Hook] writes (group commit every 3
   commits, a checkpoint every 4). [test/golden/engine_grid.golden]
   holds the grid as the engine produced it; any change to a decision,
   a witness or a WAL byte shows up as a differing line. Set
   ENGINE_GRID_OUT to a path to write the regenerated grid there. *)
module Wal = Mvcc_durable.Wal
module Hook = Mvcc_durable.Hook

let grid_programs seed =
  let initial, programs =
    Mvcc_workload.Program_gen.mixed ~n_entities:6 ~theta:0.6
      ~read_fraction:0.4 ~reads_per_txn:3 ~writes_per_txn:2 ~mix_rounds:2
      ~n_txns:10 ~seed ()
  in
  (* a program reading its own writes ([From_self] sources, one entity
     written twice) and one writing an entity outside the initial
     state *)
  let extra =
    [
      {
        P.label = "self";
        ops =
          [
            P.Write ("e0", P.Const 7);
            P.Read "e0";
            P.Write ("e0", P.Add (P.Reg "e0", P.Const 1));
            P.Read "e0";
            P.Write ("e1", P.Add (P.Reg "e0", P.Const 1));
            P.Read "e1";
          ];
      };
      {
        P.label = "fresh";
        ops = [ P.Read "e1"; P.Write ("n0", P.Add (P.Reg "e1", P.Const 3)) ];
      };
    ]
  in
  (initial, programs @ extra)

let grid_line ~policy ?deadlock ?max_ticks ?(tag = "") ?programs ~gc ~crash
    ~ro ~seed () =
  let initial, programs =
    match programs with
    | None -> grid_programs seed
    | Some ps -> (fst (grid_programs seed), ps)
  in
  let w = Wal.writer ~window:(Wal.window ~commits:3 ()) () in
  let hook = Hook.create w in
  let prov = Mvcc_provenance.Log.create () in
  let r =
    E.run ~policy ~initial ~programs ?max_ticks ~gc ~crash_probability:crash
      ?deadlock ~prov ~wal:(Hook.listener hook)
      ~wal_durable:(fun () -> Wal.acked_commits w)
      ~snapshot_every:4 ~ro_snapshot:ro ~seed ()
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  let final =
    String.concat ";"
      (List.map (fun (e, v) -> Printf.sprintf "%s=%d" e v) r.E.final_state)
  in
  let ro_reads =
    String.concat ";"
      (List.map
         (fun (id, snap, views) ->
           Printf.sprintf "%d@%d:%s" id snap
             (String.concat ","
                (List.map (fun (e, w) -> Printf.sprintf "%s/%d" e w) views)))
         r.E.ro_reads)
  in
  let witness =
    match r.E.provenance with
    | None -> "none"
    | Some (h, wit) ->
        Format.asprintf "%s | %a" (Mvcc_core.Schedule.to_string h) W.pp wit
  in
  (* the literal "c1" keeps each line byte-identical to the frozen
     golden file *)
  Format.asprintf
    "%s%s c1 gc%d crash%g ro%d seed%d%s: %a durable=%s final=%s ro=%s \
     witness=%s wal=%s"
    (E.policy_name policy)
    (match deadlock with
    | None -> ""
    | Some d -> "/" ^ E.deadlock_policy_name d)
    (Bool.to_int gc) crash (Bool.to_int ro) seed
    ((match max_ticks with None -> "" | Some t -> Printf.sprintf " max%d" t)
    ^ tag)
    E.pp_stats r.E.stats
    (match r.E.durable_commits with None -> "-" | Some d -> string_of_int d)
    (md5 final) (md5 ro_reads) (md5 witness)
    (md5 (Wal.contents w))

let engine_grid () =
  let lines = ref [] in
  let add l = lines := l :: !lines in
  let dims f =
    List.iter
      (fun gc ->
        List.iter
          (fun crash ->
            List.iter
              (fun ro ->
                List.iter (fun seed -> f ~gc ~crash ~ro ~seed) [ 1; 2; 3 ])
              [ false; true ])
          [ 0.; 0.05 ])
      [ false; true ]
  in
  List.iter
    (fun policy ->
      dims (fun ~gc ~crash ~ro ~seed ->
          add (grid_line ~policy ~gc ~crash ~ro ~seed ())))
    E.all_policies;
  List.iter
    (fun deadlock ->
      dims (fun ~gc ~crash ~ro ~seed ->
          add (grid_line ~policy:E.S2pl ~deadlock ~gc ~crash ~ro ~seed ())))
    [ E.Wait_die; E.Wound_wait ];
  List.iter
    (fun policy ->
      add
        (grid_line ~policy ~max_ticks:25 ~gc:true ~crash:0.05 ~ro:true
           ~seed:1 ()))
    E.all_policies;
  (* cut after one tick, mid-attempt: a write of an entity outside the
     initial state has executed but not committed — which entities the
     final state lists then depends on what the policy's write touched *)
  List.iter
    (fun policy ->
      add
        (grid_line ~policy ~max_ticks:1 ~tag:" uncommitted"
           ~programs:
             [
               {
                 P.label = "w";
                 ops = [ P.Write ("n1", P.Const 5); P.Read "e0" ];
               };
             ]
           ~gc:false ~crash:0. ~ro:false ~seed:1 ()))
    E.all_policies;
  String.concat "\n" (List.rev !lines) ^ "\n"

let test_engine_grid () =
  let got = engine_grid () in
  (match Sys.getenv_opt "ENGINE_GRID_OUT" with
  | Some path -> Out_channel.with_open_bin path (fun oc -> output_string oc got)
  | None -> ());
  let want =
    In_channel.with_open_bin "golden/engine_grid.golden" In_channel.input_all
  in
  (* report the first differing line, then require the whole file *)
  (match
     List.find_opt
       (fun (g, w) -> g <> w)
       (List.combine
          (String.split_on_char '\n' got)
          (String.split_on_char '\n' want))
   with
  | Some (g, w) -> Alcotest.(check string) "first differing grid line" w g
  | None | (exception Invalid_argument _) -> ());
  check "grid is byte-identical to the golden" true (got = want)

(* -- the paper's class oracle -- *)

(* Every committed history, run through the paper's own deciders rather
   than the policy's witness: the single-version serializable policies
   (S2PL, TO, SGT) realize subsets of CSR, and MVTO a subset of MVSR
   (PAPER.md, Fig. 1). SI is not serializable and is left out. *)
let prop_class_oracle =
  let decider name = Option.get (Mvcc_classes.Deciders.find name) in
  let csr = decider "CSR" and mvsr = decider "MVSR" in
  QCheck2.Test.make ~name:"committed histories lie in the paper's classes"
    ~count:80
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* policy = oneofl [ E.S2pl; E.To; E.Mvto; E.Sgt ] in
      let* ro = bool in
      let* n_txns = int_range 2 7 in
      return (seed, policy, ro, n_txns))
    (fun (seed, policy, ro, n_txns) ->
      let initial, programs =
        Mvcc_workload.Program_gen.mixed ~n_entities:4 ~theta:0.6
          ~read_fraction:0.4 ~reads_per_txn:3 ~writes_per_txn:2 ~mix_rounds:0
          ~n_txns ~seed ()
      in
      let r =
        E.run ~policy ~initial ~programs
          ~prov:(Mvcc_provenance.Log.create ())
          ~ro_snapshot:ro ~seed ()
      in
      match r.E.provenance with
      | None -> false
      | Some (h, _) ->
          Mvcc_analysis.Decider.test_schedule
            (if policy = E.Mvto then mvsr else csr)
            h)

(* The engine's SGT certifier against the batch conflict-graph test. The
   run's event stream is replayed into the live steps: a transaction's
   [Wal_begin] drops the steps of its earlier attempt (the certifier
   forgot them at the abort), committed steps stay. After every logged
   operation the batch conflict graph of the live steps must be acyclic,
   and at every certification abort the live steps plus the refused
   operation — the attempt's next program op — must close a cycle. *)
let prop_sgt_matches_batch_conflict_graph =
  QCheck2.Test.make
    ~name:"engine sgt accepts exactly what the batch conflict graph allows"
    ~count:60
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* crash = oneofl [ 0.; 0.05 ] in
      let* n_txns = int_range 3 12 in
      return (seed, crash, n_txns))
    (fun (seed, crash, n_txns) ->
      let initial, programs =
        Mvcc_workload.Program_gen.mixed ~n_entities:6 ~theta:0.6
          ~read_fraction:0.4 ~reads_per_txn:3 ~writes_per_txn:2 ~mix_rounds:0
          ~n_txns ~seed ()
      in
      (* mixed programs read every entity before writing it; a blind
         write puts an entity in an attempt's write set only *)
      let programs =
        Array.of_list (programs @ [ P.blind_write ~label:"blind" "e0" 7 ])
      in
      let events = ref [] in
      ignore
        (E.run ~policy:E.Sgt ~initial ~programs:(Array.to_list programs)
           ~crash_probability:crash
           ~wal:(fun e -> events := e :: !events)
           ~seed ());
      let module Step = Mvcc_core.Step in
      let acyclic steps =
        Mvcc_graph.Cycle.is_acyclic
          (Mvcc_core.Conflict.graph
             (Mvcc_core.Schedule.of_steps ~n_txns:(Array.length programs)
                (List.rev steps)))
      in
      (* live steps newest first, and each attempt's logged op count *)
      let live = ref [] and done_ops = Array.make (Array.length programs) 0 in
      List.for_all
        (function
          | E.Wal_begin { txn; _ } ->
              live := List.filter (fun (st : Step.t) -> st.txn <> txn) !live;
              done_ops.(txn) <- 0;
              true
          | E.Wal_op { txn; entity; write; _ } ->
              live :=
                (if write then Step.write txn entity else Step.read txn entity)
                :: !live;
              done_ops.(txn) <- done_ops.(txn) + 1;
              acyclic !live
          | E.Wal_abort { txn; reason = Event.Certification } ->
              let refused =
                match List.nth programs.(txn).P.ops done_ops.(txn) with
                | P.Read e -> Step.read txn e
                | P.Write (e, _) -> Step.write txn e
              in
              not (acyclic (refused :: !live))
          | _ -> true)
        (List.rev !events))

(* Entity ids are bookkeeping: reversing [initial] re-assigns every
   initial entity's store id (the lists have even length, so none keeps
   its slot) and must change nothing a run reports — stats, final state,
   off-loop read views, the certificate, and every logged event except
   the [Wal_state] records, which follow [initial]'s order. *)
let prop_ids_carry_no_meaning =
  QCheck2.Test.make ~name:"reversing initial changes ids, not runs"
    ~count:100
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* policy = oneofl E.all_policies in
      let* ro_snapshot = bool in
      let* gc = bool in
      let* crash = oneofl [ 0.; 0.05 ] in
      let* half = int_range 1 4 in
      let* n_txns = int_range 2 12 in
      return (seed, policy, ro_snapshot, gc, crash, 2 * half, n_txns))
    (fun (seed, policy, ro_snapshot, gc, crash, n_entities, n_txns) ->
      let initial, programs =
        Mvcc_workload.Program_gen.mixed ~n_entities ~theta:0.6
          ~read_fraction:0.4 ~reads_per_txn:3 ~writes_per_txn:2 ~mix_rounds:0
          ~n_txns ~seed ()
      in
      let initial = List.mapi (fun k (e, v) -> (e, v + k)) initial in
      (* an entity outside [initial] is interned at admission only *)
      let programs = programs @ [ P.blind_write ~label:"blind" "fresh" 7 ] in
      let run initial =
        let events = ref [] in
        let r =
          E.run ~policy ~initial ~programs ~gc ~crash_probability:crash
            ~ro_snapshot ~prov:(Mvcc_provenance.Log.create ())
            ~wal:(fun ev ->
              match ev with
              | E.Wal_state _ -> ()
              | ev -> events := ev :: !events)
            ~seed ()
        in
        let cert =
          Option.map
            (fun (h, w) ->
              ( Mvcc_core.Schedule.to_string h,
                Format.asprintf "%a" Mvcc_provenance.Witness.pp w ))
            r.E.provenance
        in
        (r.E.stats, r.E.final_state, r.E.ro_reads, cert, List.rev !events)
      in
      run initial = run (List.rev initial))

let test_policy_names () =
  List.iter
    (fun p ->
      check (E.policy_name p ^ " round-trips") true
        (E.policy_of_name (E.policy_name p) = Some p))
    E.all_policies;
  check_int "five policies" 5 (List.length E.all_policies);
  check "unknown name" true (E.policy_of_name "2pl" = None)

let () =
  Alcotest.run "engine"
    [
      ( "store",
        [
          Alcotest.test_case "initial" `Quick test_store_initial;
          Alcotest.test_case "versions" `Quick test_store_versions;
          Alcotest.test_case "validation" `Quick test_store_validation;
          Alcotest.test_case "invalidation rule" `Quick test_store_invalidation;
          Alcotest.test_case "value map" `Quick test_store_value_map;
        ] );
      ( "program",
        [
          Alcotest.test_case "eval" `Quick test_program_eval;
          Alcotest.test_case "builders" `Quick test_program_builders;
          Alcotest.test_case "mix" `Quick test_program_mix;
        ] );
      ( "runs",
        [
          Alcotest.test_case "commit and conserve" `Quick
            test_all_policies_commit_and_conserve;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "mvto readers never abort" `Quick
            test_mvto_readers_never_abort;
          Alcotest.test_case "mvto never blocks" `Quick test_mvto_no_blocking_ever;
          Alcotest.test_case "s2pl deadlocks resolved" `Quick
            test_s2pl_deadlock_resolved;
          Alcotest.test_case "version chains" `Quick
            test_version_chains_grow_under_mvto;
          Alcotest.test_case "blind writes" `Quick test_blind_writes;
          Alcotest.test_case "si transfers" `Quick
            test_si_commits_and_conserves_transfers;
          Alcotest.test_case "si write skew anomaly" `Quick
            test_si_write_skew_anomaly;
          Alcotest.test_case "sgt readers never abort" `Quick
            test_sgt_readers_never_abort;
          Alcotest.test_case "gc prunes" `Quick test_gc_prunes_versions;
          Alcotest.test_case "crash injection" `Quick test_crash_injection;
          Alcotest.test_case "deadlock policies" `Quick test_deadlock_policies;
          Alcotest.test_case "wound-wait preempts" `Quick
            test_wound_wait_preempts;
          Alcotest.test_case "store prune" `Quick test_store_prune;
          Alcotest.test_case "policy names" `Quick test_policy_names;
          Alcotest.test_case "empty runnable set" `Quick
            test_empty_runnable_set;
        ] );
      ( "observability",
        [
          Alcotest.test_case "sgt cascade chain" `Quick
            test_sgt_cascade_chain;
          Alcotest.test_case "sgt commit waits" `Quick
            test_sgt_commit_waits;
          Alcotest.test_case "abort reason counters" `Quick
            test_abort_reason_counters;
          Alcotest.test_case "spans reconcile under every policy" `Quick
            test_spans_reconcile_all_policies;
        ] );
      ( "golden",
        [ Alcotest.test_case "engine grid" `Quick test_engine_grid ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_conservation;
            prop_ro_snapshot_version_fn;
            prop_class_oracle;
            prop_sgt_matches_batch_conflict_graph;
            prop_store_model;
            prop_ids_carry_no_meaning;
          ] );
    ]
