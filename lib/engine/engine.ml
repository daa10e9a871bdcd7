module Sink = Mvcc_obs.Sink
module J = Mvcc_obs.Json
module W = Mvcc_provenance.Witness
open Intake

type policy = Policy.policy = S2pl | To | Mvto | Si | Sgt

let names =
  [ (S2pl, "s2pl"); (To, "to"); (Mvto, "mvto"); (Si, "si"); (Sgt, "sgt") ]
let all_policies = List.map fst names
let policy_name p = List.assoc p names

let policy_of_name s =
  List.find_map (fun (p, n) -> if n = s then Some p else None) names

type deadlock_policy = Policy.deadlock = Detect | Wait_die | Wound_wait

let deadlock_policy_name = function
  | Detect -> "detect"
  | Wait_die -> "wait-die"
  | Wound_wait -> "wound-wait"

type stats = {
  commits : int;
  aborts : int;
  ticks : int;
  blocked_ticks : int;
  reads : int;
  writes : int;
  max_version_chain : int;
  gc_pruned : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "commits=%d aborts=%d ticks=%d blocked=%d reads=%d writes=%d \
     max-chain=%d gc=%d"
    s.commits s.aborts s.ticks s.blocked_ticks s.reads s.writes
    s.max_version_chain s.gc_pruned

type batch = Fixed of int | Auto

type result = {
  stats : stats;
  final_state : (string * int) list;
  provenance : (Mvcc_core.Schedule.t * W.t) option;
  durable_commits : int option;
  ro_reads : (int * int * (string * int) list) list;
}

(* the durability events live in {!Event}, below {!Policy}; re-exported
   here under their historical names *)

type read_src = Event.read_src = From_init | From_self | From_txn of int

type wal_event = Event.t =
  | Wal_state of { entity : string; value : int }
  | Wal_begin of { txn : int; ts : int }
  | Wal_op of {
      txn : int;
      entity : string;
      write : bool;
      src : read_src option;
    }
  | Wal_install of { txn : int; entity : string; value : int; wts : int }
  | Wal_commit of { txn : int }
  | Wal_abort of { txn : int; reason : Event.reason }
  | Wal_checkpoint of { store : Store.t; commits : int }

(* newest write per entity wins; the buffer is newest-first *)
let final_writes buffer =
  List.fold_left
    (fun acc w ->
      if List.exists (fun w' -> w'.w_eid = w.w_eid) acc then acc else w :: acc)
    [] buffer

(* The driver: intake, the serial tick loop asking the policy for every
   decision, and the span and WAL streams. [cores], [client_queues] and
   [batch] are accepted and ignored (see the interface). *)
let run ~policy ~initial ~programs ?(max_ticks = 1_000_000) ?(gc = false)
    ?(crash_probability = 0.) ?deadlock ?(obs = Sink.noop) ?prov ?wal
    ?wal_durable ?snapshot_every ?cores:_ ?client_queues:_ ?batch:_
    ?(ro_snapshot = false) ~seed () =
  let (module P) = Policy.of_engine ?deadlock policy in
  let rng = Random.State.make [| seed |] in
  let store = Store.create ~initial in
  (* the committing client behind each installed write timestamp; every
     timestamp is drawn from [fresh_ts], so they are dense *)
  let writer_of_wts = ref (Array.make 64 (-1)) in
  let set_writer wts txn =
    let len = Array.length !writer_of_wts in
    if wts >= len then begin
      let bigger = Array.make (max (wts + 1) (2 * len)) (-1) in
      Array.blit !writer_of_wts 0 bigger 0 len;
      writer_of_wts := bigger
    end;
    !writer_of_wts.(wts) <- txn
  in
  (* the run certificate folds the events the log hook sees; an event
     is only built when one of the two is attached, the same thunking
     discipline as span attributes *)
  let cert = Option.map (fun _ -> Certificate.create ()) prov in
  let wal_emit ev =
    if Option.is_some wal || Option.is_some cert then begin
      let ev = ev () in
      Option.iter (fun f -> f ev) wal;
      Option.iter (fun c -> Certificate.observe c ev) cert
    end
  in
  let next_ts = ref 0 in
  let fresh_ts () =
    incr next_ts;
    !next_ts
  in
  List.iter
    (fun (entity, value) -> wal_emit (fun () -> Wal_state { entity; value }))
    initial;
  let clients =
    Intake.admit ~policy_name:(policy_name policy) ~programs
      ~intern:(Store.intern store) ~obs ~fresh_ts
      ~wal_begin:(fun ~txn ~ts -> wal_emit (fun () -> Wal_begin { txn; ts }))
      ()
  in
  (* Off-loop read-only transactions ([ro_snapshot]) are marked by
     [is_ro]; [rw_before.(i)] counts read/write clients submitted before
     client [i] — a read-only transaction launches once that many
     read/write commits have landed, so its snapshot reflects the state
     its position in the submission stream would plausibly observe. *)
  let is_ro =
    Array.map (fun c -> ro_snapshot && Program.read_only c.program) clients
  in
  let ro_entities =
    Array.mapi
      (fun i c ->
        if is_ro.(i) then List.sort_uniq Int.compare (Array.to_list c.ids)
        else [])
      clients
  in
  let rw_before = Array.make (Array.length clients) 0 in
  for i = 1 to Array.length clients - 1 do
    rw_before.(i) <- rw_before.(i - 1) + Bool.to_int (not is_ro.(i - 1))
  done;
  (* each client's attempt counter, for its span *)
  let attempts = Array.make (Array.length clients) 0 in
  (* The source of the last read, stashed by [read_value] for
     [record_op]: kind 0 = own buffer, 1 = committed version with wts
     [last_src_arg], 2 = dirty write of transaction [last_src_arg].
     Plain int stores: blind runs pay nothing. *)
  let last_src_kind = ref 1 in
  let last_src_arg = ref 0 in
  let last_src () =
    match !last_src_kind with
    | 0 -> From_self
    | 2 -> From_txn !last_src_arg
    | _ ->
        if !last_src_arg = 0 then From_init
        else From_txn !writer_of_wts.(!last_src_arg)
  in
  let commits = ref 0
  and aborts = ref 0
  and ticks = ref 0
  and blocked_ticks = ref 0
  and reads = ref 0
  and writes = ref 0 in
  (* Deferred commit acknowledgement: under group commit a commit is
     durable once [wal_durable] has counted past it; acks are matched to
     commits in commit order. *)
  let commit_ticks : (int * int) Queue.t = Queue.create () in
  let acked = ref 0 in
  let poll_acks () =
    match wal_durable with
    | None -> ()
    | Some durable ->
        let d = durable () in
        while !acked < d && not (Queue.is_empty commit_ticks) do
          let txn, at = Queue.pop commit_ticks in
          incr acked;
          Sink.incr obs "engine.acks";
          Sink.observe obs "engine.ack-lag-ticks"
            (float_of_int (!ticks - at));
          Sink.span_event obs ~parent:clients.(txn).sp_txn "durable"
            ~attrs:(fun () ->
              [ ("txn", J.Int txn); ("lag_ticks", J.Int (!ticks - at)) ])
        done
  in
  (* the policy's metadata arrays are indexed by interned entity id;
     every id comes from [initial] or a program operation *)
  let capacity =
    List.fold_left
      (fun acc p -> acc + List.length p.Program.ops)
      (List.length initial) programs
  in
  (* policies abort other clients (wound-wait, SGT cascades) through
     the driver's [abort], defined below with the policy's state *)
  let abort_ref = ref (fun ~reason:_ _ -> ()) in
  let st =
    P.create
      {
        Policy.store;
        clients;
        capacity;
        fresh_ts;
        clock = (fun () -> !next_ts);
        obs;
        abort = (fun ~reason c -> !abort_ref ~reason c);
      }
  in
  let gc_pruned = ref 0 in
  (* GC sweeps every chain at every commit: dropped versions shrink the
     [max_rts] visibility later [would_invalidate] decisions depend on. *)
  let collect_garbage () =
    if gc then begin
      let watermark =
        Array.fold_left
          (fun acc c ->
            (* unlaunched read-only clients don't pin the watermark:
               their snapshot, drawn at launch, is >= the clock now,
               and pruning keeps the snapshot base *)
            if c.status = Committed || is_ro.(c.id) then acc
            else min acc (P.gc_ts c))
          max_int clients
      in
      let watermark = if watermark = max_int then !next_ts else watermark in
      gc_pruned := !gc_pruned + Store.prune_all store ~watermark
    end
  in
  (* A transition into Waiting is a delay; retries of the same blocked
     operation are accounted as blocked ticks, not fresh delays. *)
  let delay c e =
    if c.status <> Waiting e then begin
      Sink.incr obs "engine.delays";
      Sink.span_event obs ~parent:c.sp_attempt "delay" ~attrs:(fun () ->
          [ ("txn", J.Int c.id); ("entity", J.Str e) ])
    end;
    c.status <- Waiting e
  in
  let record_op c e ~write =
    incr (if write then writes else reads);
    (* the read's source under every policy: recovery re-derives the
       read-from edges (and so cascading aborts across a crash) from
       these, and the certificate the version function *)
    wal_emit (fun () ->
        let src = if write then None else Some (last_src ()) in
        Wal_op { txn = c.id; entity = e; write; src });
    Sink.span_event obs ~parent:c.sp_attempt "op" ~attrs:(fun () ->
        [ ("txn", J.Int c.id); ("entity", J.Str e); ("write", J.Bool write) ])
  in
  (* an attempt's buffered writes whose value nothing asked for: read
     back by none, and overwritten before its commit or dropped by its
     abort *)
  let count_unevaluated c =
    if Sink.enabled obs then begin
      let n =
        List.fold_left (fun n w -> if w.forced then n else n + 1) 0 c.buffer
      in
      if n > 0 then Sink.incr obs ~by:n "engine.writes.unevaluated"
    end
  in
  (* Abort the attempt and restart it: the policy drops its footprint
     first, and afterwards aborts whoever depended on it (SGT's
     cascade). *)
  let abort ~reason c =
    P.finish st c ~committed:false;
    count_unevaluated c;
    incr aborts;
    attempts.(c.id) <- attempts.(c.id) + 1;
    Sink.incr obs "engine.aborts";
    Sink.incr obs (Event.reason_counter reason);
    wal_emit (fun () -> Wal_abort { txn = c.id; reason });
    Sink.span_finish obs c.sp_attempt ~attrs:(fun () ->
        [
          ("outcome", J.Str "abort");
          ("reason", J.Str (Event.reason_name reason));
        ]);
    c.pc <- 0;
    c.regs <- [];
    c.buffer <- [];
    c.ts <- fresh_ts ();
    c.snapshot <- c.ts;
    wal_emit (fun () -> Wal_begin { txn = c.id; ts = c.ts });
    c.sp_attempt <-
      Sink.span_start obs ~parent:c.sp_txn "attempt" ~attrs:(fun () ->
          [ ("txn", J.Int c.id); ("ts", J.Int c.ts) ]);
    (* randomized restart backoff: immediate retry livelocks symmetric
       conflicts (every victim re-collides with the transaction that beat
       it); a short random sit-out breaks the symmetry *)
    c.status <- Backoff (1 + Random.State.int rng 8);
    P.cascade st c
  in
  abort_ref := abort;
  (* Serve a read: the own write buffer, else the version (or dirty
     write) the policy finds to answer it. *)
  let read_value c id =
    match List.find_opt (fun w -> w.w_eid = id) c.buffer with
    | Some w ->
        last_src_kind := 0;
        force w
    | None -> (
        match P.serve st c id with
        | Version v ->
            last_src_kind := 1;
            last_src_arg := v.Store.wts;
            v.Store.value
        | Dirty { writer; write } ->
            last_src_kind := 2;
            last_src_arg := writer;
            force write)
  in
  let rw_commits = ref 0 in
  let record_commit c =
    incr commits;
    if not is_ro.(c.id) then incr rw_commits;
    Sink.incr obs "engine.commits";
    wal_emit (fun () -> Wal_commit { txn = c.id });
    Sink.span_event obs ~parent:c.sp_attempt "commit" ~attrs:(fun () ->
        [ ("txn", J.Int c.id) ]);
    Sink.span_finish obs c.sp_attempt ~attrs:(fun () ->
        [ ("outcome", J.Str "commit") ]);
    Sink.span_finish obs c.sp_txn ~attrs:(fun () ->
        [
          ("outcome", J.Str "committed");
          ("attempts", J.Int (attempts.(c.id) + 1));
        ]);
    if Option.is_some wal_durable then
      Queue.push (c.id, !ticks) commit_ticks
  in
  let install_for c w ~wts =
    let entity = w.w_entity and value = force w in
    (* write-ahead: the install record precedes the store mutation *)
    wal_emit (fun () -> Wal_install { txn = c.id; entity; value; wts });
    Store.install_id store w.w_eid ~value ~wts;
    set_writer wts c.id;
    Sink.span_event obs ~parent:c.sp_attempt "install" ~attrs:(fun () ->
        [ ("txn", J.Int c.id); ("entity", J.Str entity); ("wts", J.Int wts) ])
  in
  (* ---- the off-loop read-only snapshot path ([ro_snapshot]) ---- *)
  let ro_views = ref [] in
  (* the clients in id order, split once: the off-loop read-only ones
     launch at commit boundaries via [launch_ready_ro], the rest make up
     the tick loop's runnable set *)
  let ro_clients, runnable =
    let ro, rw =
      List.partition (fun c -> is_ro.(c.id)) (Array.to_list clients)
    in
    (Array.of_list ro, Array.of_list rw)
  in
  (* The pending read-only clients split at the [!rw_commits] threshold,
     since [rw_before] never decreases with the id: [ro_deferred] holds
     those that have arrived but failed [P.ro_safe], in id order, and
     [ro_next] indexes the first of [ro_clients] that has not arrived. *)
  let ro_next = ref 0 in
  let ro_deferred = ref [] in
  let launch_ro c =
    (* a re-begun reader (TO/MVTO) is logged like any attempt begin *)
    let ts0 = c.ts in
    let snap = P.ro_stamp st c in
    if c.ts <> ts0 then
      wal_emit (fun () -> Wal_begin { txn = c.id; ts = c.ts });
    Sink.incr obs "engine.ro.offloop";
    let views = ref [] in
    Array.iteri
      (fun i op ->
        match op with
        | Program.Read e ->
            let id = c.ids.(i) in
            let v = Store.read_at_id store id snap in
            P.ro_read st c id v;
            last_src_kind := 1;
            last_src_arg := v.Store.wts;
            views := (e, v.Store.wts) :: !views;
            record_op c e ~write:false
        | Program.Write _ -> assert false (* is_ro guarantees reads only *))
      c.ops;
    ro_views := (c.id, snap, List.rev !views) :: !ro_views;
    c.status <- Committed;
    record_commit c
  in
  (* Scan the launch queue at a commit boundary (and once before the
     first tick): a pending read-only client launches when enough
     read/write commits have landed and the policy's position-safety
     test passes. [~force] is the end-of-run drain — every committed
     operation has executed by then, so position safety holds
     vacuously. Only the deferred clients and those arrived since the
     last scan are visited, in id order. *)
  let launch_ready_ro ~force () =
    let deferred c =
      if force || P.ro_safe st ro_entities.(c.id) then begin
        launch_ro c;
        false
      end
      else begin
        Sink.incr obs "engine.ro.deferred";
        true
      end
    in
    let kept = List.filter deferred !ro_deferred in
    let fresh = ref [] in
    while
      !ro_next < Array.length ro_clients
      && (force || rw_before.(ro_clients.(!ro_next).id) <= !rw_commits)
    do
      let c = ro_clients.(!ro_next) in
      incr ro_next;
      if deferred c then fresh := c :: !fresh
    done;
    ro_deferred := kept @ List.rev !fresh
  in
  let commit c =
    match P.validate st c with
    | Policy.Go ->
        let stamp = P.stamp st c in
        List.iter
          (fun w ->
            let wts =
              match stamp with Fresh_each -> fresh_ts () | At ts -> ts
            in
            install_for c w ~wts)
          (final_writes c.buffer);
        count_unevaluated c;
        P.finish st c ~committed:true;
        c.status <- Committed;
        record_commit c
    | Wait ->
        (* the commit waits on another transaction (SGT: a dirty
           predecessor) *)
        if c.status <> Waiting "(commit)" then begin
          Sink.incr obs "engine.commit-waits";
          Sink.span_event obs ~parent:c.sp_attempt "commit-wait"
            ~attrs:(fun () -> [ ("txn", J.Int c.id) ])
        end;
        c.status <- Waiting "(commit)"
    | Abort reason -> abort ~reason c
    | Retry -> ()
  in
  let advance c =
    c.pc <- c.pc + 1;
    c.status <- Ready
  in
  let refuse c e = function
    | Policy.Wait -> delay c e
    | Abort reason -> abort ~reason c
    | Go | Retry -> ()
  in
  let step c =
    if c.pc = 0 && c.regs = [] && c.buffer = [] then P.on_begin st c;
    if c.pc >= Array.length c.ops then commit c
    else
      match c.ops.(c.pc) with
      | Program.Read e -> (
          let id = c.ids.(c.pc) in
          match P.read st c id with
          | Go ->
              c.regs <-
                { entity = e; eid = id; value = read_value c id } :: c.regs;
              record_op c e ~write:false;
              advance c
          | v -> refuse c e v)
      | Program.Write (e, expr) -> (
          let id = c.ids.(c.pc) in
          match P.write st c id with
          | Go ->
              record_op c e ~write:true;
              (* the value waits for its first use ({!Intake.force}) *)
              let w =
                {
                  w_entity = e;
                  w_eid = id;
                  expr;
                  regs_at = c.regs;
                  forced = false;
                  w_value = 0;
                }
              in
              c.buffer <- w :: c.buffer;
              P.wrote st c id w;
              advance c
          | v -> refuse c e v)
  in
  (* The runnable set is the first [!n_runnable] entries of [runnable],
     in id order. Only the client a tick picks can commit on that tick,
     and [Committed] is terminal (cascades, wound-wait and crash
     injection skip committed clients), so the set loses exactly that
     client at a commit and changes at no other time: a tick picks by
     one draw and one array index. *)
  let n_runnable = ref (Array.length runnable) in
  let rec loop () =
    if !n_runnable > 0 && !ticks < max_ticks then begin
      incr ticks;
      let i = Random.State.int rng !n_runnable in
      let c = runnable.(i) in
      (match c.status with
      | _
        when crash_probability > 0.
             && Random.State.float rng 1. < crash_probability ->
          (* injected failure: the transaction crashes and restarts *)
          abort ~reason:Event.Crash c
      | Waiting _ -> begin
          (* retry the same operation *)
          let before = c.status in
          step c;
          if c.status = before then incr blocked_ticks
        end
      | Backoff k -> c.status <- (if k <= 1 then Ready else Backoff (k - 1))
      | Ready -> step c
      | Committed -> assert false (* never in the runnable set *));
      (if c.status = Committed then begin
         Array.blit runnable (i + 1) runnable i (!n_runnable - i - 1);
         decr n_runnable;
         launch_ready_ro ~force:false ();
         collect_garbage ();
         (* checkpoints sit on commit boundaries: every install of the
            just-committed transaction is already logged and applied *)
         match snapshot_every with
         | Some n when n > 0 && !commits mod n = 0 ->
             wal_emit (fun () ->
                 Wal_checkpoint { store; commits = !commits })
         | _ -> ()
       end);
      poll_acks ();
      loop ()
    end
  in
  launch_ready_ro ~force:false ();
  loop ();
  launch_ready_ro ~force:true ();
  poll_acks ();
  (* a run cut off by [max_ticks] leaves transactions mid-flight; close
     their spans so every exported span tree is complete *)
  Array.iter
    (fun c ->
      if c.status <> Committed then begin
        Sink.span_finish obs c.sp_attempt ~attrs:(fun () ->
            [ ("outcome", J.Str "running") ]);
        Sink.span_finish obs c.sp_txn ~attrs:(fun () ->
            [
              ("outcome", J.Str "running");
              ("attempts", J.Int (attempts.(c.id) + 1));
            ])
      end)
    clients;
  let max_chain = max 1 (Store.longest_chain store) in
  Sink.set_gauge obs "engine.max-version-chain" max_chain;
  Sink.set_gauge obs "engine.ticks" !ticks;
  Sink.set_gauge obs "engine.blocked-ticks" !blocked_ticks;
  (* Issue the run's certificate from the event fold: the committed
     final attempts, in operation order, and the policy's witness. *)
  let provenance =
    match (prov, cert) with
    | Some log, Some cert ->
        let h = Certificate.assemble cert in
        let witness = Certificate.witness ~policy h in
        let id = Mvcc_provenance.Log.register log witness in
        Sink.span_event obs "decision" ~attrs:(fun () ->
            [
              ("site", J.Str ("engine." ^ policy_name policy));
              ("id", J.Int id); ("ok", J.Bool true);
            ]);
        Some (h.history, witness)
    | _ -> None
  in
  {
    stats =
      {
        commits = !commits;
        aborts = !aborts;
        ticks = !ticks;
        blocked_ticks = !blocked_ticks;
        reads = !reads;
        writes = !writes;
        max_version_chain = max_chain;
        gc_pruned = !gc_pruned;
      };
    final_state = Store.value_map store;
    ro_reads = List.rev !ro_views;
    provenance;
    durable_commits =
      (if Option.is_some wal_durable then Some !acked else None);
  }
