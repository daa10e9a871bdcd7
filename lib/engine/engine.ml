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
      if List.exists (fun w' -> w'.w_eid = w.w_eid) acc then acc
      else w :: acc)
    [] buffer

(* One run under policy [P]: [t] holds the run's state, and [run]
   below drives its steps — [create] (intake), [tick] until the runnable
   set drains or [max_ticks] elapses, the read-only drain, [finish]. *)
module Run (P : Policy.S) = struct
  type t = {
    rng : Random.State.t;
    store : Store.t;
    obs : Sink.t;
    wal : (wal_event -> unit) option;
    cert : Certificate.t option;  (* folds the events [wal] sees *)
    wal_durable : (unit -> int) option;
    max_ticks : int;
    gc : bool;
    crash_probability : float;
    snapshot_every : int option;
    clock : int ref;  (* the last timestamp drawn; the policy's too *)
    clients : client array;
    st : P.t;
    mutable writer_of_wts : int array;
        (* the committing client of each installed write timestamp;
           every timestamp comes from [fresh_ts], so they are dense *)
    mutable src_kind : int;
    mutable src_arg : int;
        (* the last read's source, stashed by [read_value] for
           [record_op]: kind 0 = own buffer, 1 = committed version with
           wts [src_arg], 2 = dirty write of client [src_arg]. Plain int
           stores: blind runs pay nothing. *)
    attempts : int array;  (* per client, for its span *)
    mutable commits : int;
    mutable aborts : int;
    mutable ticks : int;
    mutable blocked_ticks : int;
    mutable reads : int;
    mutable writes : int;
    mutable gc_pruned : int;
    commit_ticks : (int * int) Queue.t;
        (* (client, tick) per commit not yet acknowledged: under group
           commit a commit is durable once [wal_durable] has counted
           past it, in commit order *)
    mutable acked : int;
    runnable : client array;
    mutable n_runnable : int;
        (* the runnable set is the first [n_runnable] entries of
           [runnable], in id order. Only the client a tick picks can
           commit on that tick, and [Committed] is terminal (cascades,
           wound-wait and crash injection skip committed clients), so
           the set loses exactly that client at a commit and changes at
           no other time: a tick picks by one draw and one index. *)
    is_ro : bool array;  (* off-loop read-only ([ro_snapshot]) *)
    ro_clients : client array;  (* in id order *)
    mutable rw_commits : int;
    mutable ro_next : int;
    mutable ro_deferred : client list;
        (* [ro_clients.(k)] arrives once as many read/write clients have
           committed as were submitted before it: its id minus [k]. So
           its snapshot reflects the state its position in the stream
           would plausibly observe, and arrivals follow the id order:
           [ro_deferred] holds those arrived but refused by [P.ro_safe],
           in id order, and [ro_next] indexes the first not arrived. *)
    mutable ro_views : (int * int * (string * int) list) list;
  }

  let fresh_ts t =
    incr t.clock;
    !(t.clock)

  (* an event is only built when a log hook or a certificate is
     attached, the same thunking discipline as span attributes *)
  let emit t ev =
    if Option.is_some t.wal || Option.is_some t.cert then begin
      let ev = ev () in
      Option.iter (fun f -> f ev) t.wal;
      Option.iter (fun c -> Certificate.observe c ev) t.cert
    end

  let restamp t c =
    c.ts <- fresh_ts t;
    emit t (fun () -> Wal_begin { txn = c.id; ts = c.ts })

  let open_attempt t c =
    c.sp_attempt <-
      Sink.span_start t.obs ~parent:c.sp_txn "attempt" ~attrs:(fun () ->
          [ ("txn", J.Int c.id); ("ts", J.Int c.ts) ])

  let set_writer t wts txn =
    let len = Array.length t.writer_of_wts in
    if wts >= len then begin
      let bigger = Array.make (max (wts + 1) (2 * len)) (-1) in
      Array.blit t.writer_of_wts 0 bigger 0 len;
      t.writer_of_wts <- bigger
    end;
    t.writer_of_wts.(wts) <- txn

  let last_src t =
    match t.src_kind with
    | 0 -> From_self
    | 2 -> From_txn t.src_arg
    | _ ->
        if t.src_arg = 0 then From_init
        else From_txn t.writer_of_wts.(t.src_arg)

  let poll_acks t =
    match t.wal_durable with
    | None -> ()
    | Some durable ->
        let d = durable () in
        while t.acked < d && not (Queue.is_empty t.commit_ticks) do
          let txn, at = Queue.pop t.commit_ticks in
          t.acked <- t.acked + 1;
          Sink.incr t.obs "engine.acks";
          Sink.observe t.obs "engine.ack-lag-ticks"
            (float_of_int (t.ticks - at));
          Sink.span_event t.obs ~parent:t.clients.(txn).sp_txn "durable"
            ~attrs:(fun () ->
              [ ("txn", J.Int txn); ("lag_ticks", J.Int (t.ticks - at)) ])
        done

  (* GC sweeps every chain at every commit: dropped versions shrink the
     [max_rts] visibility later [would_invalidate] decisions depend on.
     Unlaunched read-only clients don't pin the watermark: their
     snapshot, drawn at launch, is >= the clock now, and pruning keeps
     the snapshot base. *)
  let collect_garbage t =
    if t.gc then begin
      let watermark =
        Array.fold_left
          (fun acc c ->
            if c.status = Committed || t.is_ro.(c.id) then acc
            else min acc (P.gc_ts c))
          max_int t.clients
      in
      let watermark =
        if watermark = max_int then !(t.clock) else watermark
      in
      t.gc_pruned <- t.gc_pruned + Store.prune_all t.store ~watermark
    end

  (* A transition into Waiting is a delay; retries of the same blocked
     operation are accounted as blocked ticks, not fresh delays. *)
  let delay t c e =
    if c.status <> Waiting e then begin
      Sink.incr t.obs "engine.delays";
      Sink.span_event t.obs ~parent:c.sp_attempt "delay" ~attrs:(fun () ->
          [ ("txn", J.Int c.id); ("entity", J.Str e) ])
    end;
    c.status <- Waiting e

  let record_op t c e ~write =
    if write then t.writes <- t.writes + 1 else t.reads <- t.reads + 1;
    (* the read's source under every policy: recovery re-derives the
       read-from edges (and so cascading aborts across a crash) from
       these, and the certificate the version function *)
    emit t (fun () ->
        let src = if write then None else Some (last_src t) in
        Wal_op { txn = c.id; entity = e; write; src });
    Sink.span_event t.obs ~parent:c.sp_attempt "op" ~attrs:(fun () ->
        [
          ("txn", J.Int c.id); ("entity", J.Str e); ("write", J.Bool write);
        ])

  (* an attempt's buffered writes whose value nothing asked for: read
     back by none, and overwritten before its commit or dropped by its
     abort *)
  let count_unevaluated t c =
    if Sink.enabled t.obs then begin
      let n =
        List.fold_left (fun n w -> if w.forced then n else n + 1) 0 c.buffer
      in
      if n > 0 then Sink.incr t.obs ~by:n "engine.writes.unevaluated"
    end

  (* Abort the attempt and restart it: the policy drops its footprint
     first, and afterwards aborts whoever depended on it (SGT's
     cascade). *)
  let abort t ~reason c =
    P.finish t.st c ~committed:false;
    count_unevaluated t c;
    t.aborts <- t.aborts + 1;
    t.attempts.(c.id) <- t.attempts.(c.id) + 1;
    Sink.incr t.obs "engine.aborts";
    Sink.incr t.obs (Event.reason_counter reason);
    emit t (fun () -> Wal_abort { txn = c.id; reason });
    Sink.span_finish t.obs c.sp_attempt ~attrs:(fun () ->
        [
          ("outcome", J.Str "abort");
          ("reason", J.Str (Event.reason_name reason));
        ]);
    c.pc <- 0;
    c.regs <- [];
    c.buffer <- [];
    restamp t c;
    c.snapshot <- c.ts;
    open_attempt t c;
    (* randomized restart backoff: immediate retry livelocks symmetric
       conflicts (every victim re-collides with the transaction that beat
       it); a short random sit-out breaks the symmetry *)
    c.status <- Backoff (1 + Random.State.int t.rng 8);
    P.cascade t.st c

  (* Serve a read: the own write buffer, else the version (or dirty
     write) the policy finds to answer it. *)
  let read_value t c id =
    match List.find_opt (fun w -> w.w_eid = id) c.buffer with
    | Some w ->
        t.src_kind <- 0;
        force w
    | None -> (
        match P.serve t.st c id with
        | Version v ->
            t.src_kind <- 1;
            t.src_arg <- v.Store.wts;
            v.Store.value
        | Dirty { writer; write } ->
            t.src_kind <- 2;
            t.src_arg <- writer;
            force write)

  let record_commit t c =
    t.commits <- t.commits + 1;
    if not t.is_ro.(c.id) then t.rw_commits <- t.rw_commits + 1;
    Sink.incr t.obs "engine.commits";
    emit t (fun () -> Wal_commit { txn = c.id });
    Sink.span_event t.obs ~parent:c.sp_attempt "commit" ~attrs:(fun () ->
        [ ("txn", J.Int c.id) ]);
    Sink.span_finish t.obs c.sp_attempt ~attrs:(fun () ->
        [ ("outcome", J.Str "commit") ]);
    Sink.span_finish t.obs c.sp_txn ~attrs:(fun () ->
        [
          ("outcome", J.Str "committed");
          ("attempts", J.Int (t.attempts.(c.id) + 1));
        ]);
    if Option.is_some t.wal_durable then
      Queue.push (c.id, t.ticks) t.commit_ticks

  let install_for t c w ~wts =
    let entity = w.w_entity and value = force w in
    (* write-ahead: the install record precedes the store mutation *)
    emit t (fun () -> Wal_install { txn = c.id; entity; value; wts });
    Store.install_id t.store w.w_eid ~value ~wts;
    set_writer t wts c.id;
    Sink.span_event t.obs ~parent:c.sp_attempt "install" ~attrs:(fun () ->
        [
          ("txn", J.Int c.id); ("entity", J.Str entity); ("wts", J.Int wts);
        ])

  (* an off-loop read-only client reads at its snapshot and commits on
     the spot *)
  let launch_ro t c =
    (* a re-begun reader (TO/MVTO) is logged like any attempt begin *)
    let ts0 = c.ts in
    let snap = P.ro_stamp t.st c in
    if c.ts <> ts0 then
      emit t (fun () -> Wal_begin { txn = c.id; ts = c.ts });
    Sink.incr t.obs "engine.ro.offloop";
    let views = ref [] in
    Array.iteri
      (fun i op ->
        match op with
        | Program.Read e ->
            let id = c.ids.(i) in
            let v = Store.read_at_id t.store id snap in
            P.ro_read t.st c id v;
            t.src_kind <- 1;
            t.src_arg <- v.Store.wts;
            views := (e, v.Store.wts) :: !views;
            record_op t c e ~write:false
        | Program.Write _ -> assert false (* is_ro guarantees reads only *))
      c.ops;
    t.ro_views <- (c.id, snap, List.rev !views) :: t.ro_views;
    c.status <- Committed;
    record_commit t c

  (* Scan the launch queue at a commit boundary (and once before the
     first tick): a pending read-only client launches when enough
     read/write commits have landed and the policy's position-safety
     test passes. [~force] is the end-of-run drain — every committed
     operation has executed by then, so position safety holds
     vacuously. Only the deferred clients and those arrived since the
     last scan are visited, in id order. *)
  let launch_ready_ro t ~force =
    let deferred c =
      if force || P.ro_safe t.st c.ids then begin
        launch_ro t c;
        false
      end
      else begin
        Sink.incr t.obs "engine.ro.deferred";
        true
      end
    in
    let kept = List.filter deferred t.ro_deferred in
    let fresh = ref [] in
    while
      t.ro_next < Array.length t.ro_clients
      && (force || t.ro_clients.(t.ro_next).id - t.ro_next <= t.rw_commits)
    do
      let c = t.ro_clients.(t.ro_next) in
      t.ro_next <- t.ro_next + 1;
      if deferred c then fresh := c :: !fresh
    done;
    t.ro_deferred <- kept @ List.rev !fresh

  let commit t c =
    match P.validate t.st c with
    | Policy.Go ->
        let stamp = P.stamp t.st c in
        List.iter
          (fun w ->
            let wts =
              match stamp with Fresh_each -> fresh_ts t | At ts -> ts
            in
            install_for t c w ~wts)
          (final_writes c.buffer);
        count_unevaluated t c;
        P.finish t.st c ~committed:true;
        c.status <- Committed;
        record_commit t c
    | Wait ->
        (* the commit waits on another transaction (SGT: a dirty
           predecessor) *)
        if c.status <> Waiting "(commit)" then begin
          Sink.incr t.obs "engine.commit-waits";
          Sink.span_event t.obs ~parent:c.sp_attempt "commit-wait"
            ~attrs:(fun () -> [ ("txn", J.Int c.id) ])
        end;
        c.status <- Waiting "(commit)"
    | Abort reason -> abort t ~reason c
    | Retry -> ()

  let advance c =
    c.pc <- c.pc + 1;
    c.status <- Ready

  let refuse t c e = function
    | Policy.Wait -> delay t c e
    | Abort reason -> abort t ~reason c
    | Go | Retry -> ()

  let step t c =
    if c.pc = 0 && c.regs = [] && c.buffer = [] then P.on_begin t.st c;
    if c.pc >= Array.length c.ops then commit t c
    else
      match c.ops.(c.pc) with
      | Program.Read e -> (
          let id = c.ids.(c.pc) in
          match P.read t.st c id with
          | Go ->
              let value = read_value t c id in
              c.regs <- { entity = e; eid = id; value } :: c.regs;
              record_op t c e ~write:false;
              advance c
          | v -> refuse t c e v)
      | Program.Write (e, expr) -> (
          let id = c.ids.(c.pc) in
          match P.write t.st c id with
          | Go ->
              record_op t c e ~write:true;
              (* the value waits for its first use ({!Intake.force}) *)
              let w =
                { w_entity = e; w_eid = id; expr; regs_at = c.regs;
                  forced = false; w_value = 0 }
              in
              c.buffer <- w :: c.buffer;
              P.wrote t.st c id w;
              advance c
          | v -> refuse t c e v)

  let live t = t.n_runnable > 0 && t.ticks < t.max_ticks

  (* one pick from the runnable set, and the commit boundary's work if
     it committed *)
  let tick t =
    t.ticks <- t.ticks + 1;
    let i = Random.State.int t.rng t.n_runnable in
    let c = t.runnable.(i) in
    (match c.status with
    | _
      when t.crash_probability > 0.
           && Random.State.float t.rng 1. < t.crash_probability ->
        (* injected failure: the transaction crashes and restarts *)
        abort t ~reason:Event.Crash c
    | Waiting _ ->
        (* retry the same operation *)
        let before = c.status in
        step t c;
        if c.status = before then t.blocked_ticks <- t.blocked_ticks + 1
    | Backoff k -> c.status <- (if k <= 1 then Ready else Backoff (k - 1))
    | Ready -> step t c
    | Committed -> assert false (* never in the runnable set *));
    (if c.status = Committed then begin
       Array.blit t.runnable (i + 1) t.runnable i (t.n_runnable - i - 1);
       t.n_runnable <- t.n_runnable - 1;
       launch_ready_ro t ~force:false;
       collect_garbage t;
       (* checkpoints sit on commit boundaries: every install of the
          just-committed transaction is already logged and applied *)
       match t.snapshot_every with
       | Some n when n > 0 && t.commits mod n = 0 ->
           emit t (fun () ->
               Wal_checkpoint { store = t.store; commits = t.commits })
       | _ -> ()
     end);
    poll_acks t

  (* Intake: the base state is logged, every program checked, each
     operation's entity resolved to its store id once (BOHM-style: the
     footprint is known before execution), and every client given its
     begin timestamp, log record and spans before the first tick. *)
  let create ~policy ~initial ~programs ~max_ticks ~gc ~crash_probability
      ~obs ~cert ~wal ~wal_durable ~snapshot_every ~ro_snapshot ~seed =
    let rng = Random.State.make [| seed |] in
    let store = Store.create ~initial in
    let intern = function
      | Program.Read e | Write (e, _) -> Store.intern store e
    in
    let client id program =
      let ops = Array.of_list program.Program.ops in
      { id; program; ops; ids = Array.map intern ops; pc = 0; regs = [];
        buffer = []; ts = 0; snapshot = 0; status = Ready; sp_txn = -1;
        sp_attempt = -1 }
    in
    let clients = Array.of_list (List.mapi client programs) in
    let is_ro =
      Array.map (fun c -> ro_snapshot && Program.read_only c.program) clients
    in
    let ro, rw =
      List.partition (fun c -> is_ro.(c.id)) (Array.to_list clients)
    in
    (* the policy's metadata arrays are indexed by interned entity id;
       every id comes from [initial] or a program operation *)
    let capacity =
      List.fold_left
        (fun acc p -> acc + List.length p.Program.ops)
        (List.length initial) programs
    in
    (* policies abort other clients (wound-wait, SGT cascades) through
       [abort], tied to the run once it exists *)
    let knot = ref (fun ~reason:_ _ -> ()) in
    let clock = ref 0 in
    let ctx =
      { Policy.store; clients; capacity; obs;
        fresh_ts = (fun () -> incr clock; !clock);
        clock = (fun () -> !clock);
        abort = (fun ~reason c -> !knot ~reason c) }
    in
    let t =
      { rng; store; obs; wal; cert; wal_durable; max_ticks; gc;
        crash_probability; snapshot_every; clock; clients;
        st = P.create ctx; writer_of_wts = Array.make 64 (-1);
        src_kind = 1; src_arg = 0;
        attempts = Array.make (Array.length clients) 0;
        commits = 0; aborts = 0; ticks = 0; blocked_ticks = 0; reads = 0;
        writes = 0; gc_pruned = 0; commit_ticks = Queue.create ();
        acked = 0; runnable = Array.of_list rw; n_runnable = List.length rw;
        is_ro; ro_clients = Array.of_list ro; rw_commits = 0; ro_next = 0;
        ro_deferred = []; ro_views = [] }
    in
    knot := abort t;
    List.iter
      (fun (entity, value) -> emit t (fun () -> Wal_state { entity; value }))
      initial;
    List.iter check_registers programs;
    Sink.set_gauge obs "engine.clients" (Array.length clients);
    let name = policy_name policy in
    Array.iter
      (fun c ->
        restamp t c;
        c.sp_txn <-
          Sink.span_start obs "txn" ~attrs:(fun () ->
              [ ("txn", J.Int c.id); ("policy", J.Str name) ]);
        open_attempt t c)
      clients;
    t

  (* a run cut off by [max_ticks] leaves transactions mid-flight; their
     spans close so every exported span tree is complete *)
  let finish t ~policy ~prov =
    poll_acks t;
    Array.iter
      (fun c ->
        if c.status <> Committed then begin
          Sink.span_finish t.obs c.sp_attempt ~attrs:(fun () ->
              [ ("outcome", J.Str "running") ]);
          Sink.span_finish t.obs c.sp_txn ~attrs:(fun () ->
              [
                ("outcome", J.Str "running");
                ("attempts", J.Int (t.attempts.(c.id) + 1));
              ])
        end)
      t.clients;
    let max_chain = max 1 (Store.longest_chain t.store) in
    Sink.set_gauge t.obs "engine.max-version-chain" max_chain;
    Sink.set_gauge t.obs "engine.ticks" t.ticks;
    Sink.set_gauge t.obs "engine.blocked-ticks" t.blocked_ticks;
    let stats =
      { commits = t.commits; aborts = t.aborts; ticks = t.ticks;
        blocked_ticks = t.blocked_ticks; reads = t.reads; writes = t.writes;
        max_version_chain = max_chain; gc_pruned = t.gc_pruned }
    and durable_commits =
      if Option.is_some t.wal_durable then Some t.acked else None
    and store = t.store
    and ro_views = t.ro_views
    and cert = t.cert
    and obs = t.obs in
    (* the run's certificate from the event fold: the committed final
       attempts, in operation order, and the policy's witness. [t] is
       not used past here, so the clients and the policy's state are
       garbage while the history is assembled. *)
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
    { stats; final_state = Store.value_map store;
      ro_reads = List.rev ro_views; provenance; durable_commits }
end

(* [cores], [client_queues] and [batch] are accepted and ignored (see
   the interface). *)
let run ~policy ~initial ~programs ?(max_ticks = 1_000_000) ?(gc = false)
    ?(crash_probability = 0.) ?deadlock ?(obs = Sink.noop) ?prov ?wal
    ?wal_durable ?snapshot_every ?cores:_ ?client_queues:_ ?batch:_
    ?(ro_snapshot = false) ~seed () =
  let module R = Run ((val Policy.of_engine ?deadlock policy)) in
  let t =
    R.create ~policy ~initial ~programs ~max_ticks ~gc ~crash_probability
      ~obs ~wal ~wal_durable ~snapshot_every ~ro_snapshot ~seed
      ~cert:(Option.map (fun _ -> Certificate.create ()) prov)
  in
  R.launch_ready_ro t ~force:false;
  while R.live t do
    R.tick t
  done;
  R.launch_ready_ro t ~force:true;
  R.finish t ~policy ~prov
