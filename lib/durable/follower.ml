module Store = Mvcc_engine.Store
module Engine = Mvcc_engine.Engine
module Schedule = Mvcc_core.Schedule
module Step = Mvcc_core.Step
module W = Mvcc_provenance.Witness
module Sink = Mvcc_obs.Sink
module J = Mvcc_obs.Json

(* A log-shipping follower is recovery-in-a-loop: the same analysis pass
   as [Recovery], fed one streamed record at a time, plus an incremental
   redo that applies a transaction's installs when its Commit record
   arrives. Because [Store.dump] orders versions by wts (not by install
   order) the incrementally-built store is byte-identical to one-shot
   recovery of the same prefix — qcheck-pinned in test_durable.

   The stream is consumed with the same tolerance as the one-shot
   reader: newline-terminated garbage is a skip, an unterminated
   parse-failing tail stays pending (it may simply not have fully
   shipped yet). An unterminated tail that parses is a complete record
   whose newline has not arrived: a strict prefix of a framed line can
   never parse (the crc field closes the object), so consuming it early
   is safe and keeps the follower byte-equivalent to one-shot recovery
   of the same prefix.

   Incremental redo assumes the stream is a log prefix, where commits
   never cascade. Any deviation — a mid-stream skip (lost Commit records
   upstream can cascade), or initial state arriving after installs —
   flips [degraded] and the follower rebuilds its store from the shared
   [Recovery.assemble] instead, trading incrementality for the one-shot
   semantics. *)

type t = {
  policy : Engine.policy;
  an : Recovery.analysis;
  mutable store : Store.t;
  pending : (int, (string * int * int) list) Hashtbl.t;
      (* txn -> installs of its current attempt, newest first *)
  writer_of_wts : (int, int) Hashtbl.t;
  tail : Buffer.t; (* bytes past the last consumed line *)
  mutable ingested : int;
  mutable records : int;
  mutable commits : int;
  mutable ts : int; (* snapshot timestamp: max applied wts *)
  mutable skipped : int;
  mutable degraded : bool;
  obs : Sink.t;
  mutable cur_span : int;
      (* the open [follower.ingest] span while inside [feed], parent of
         the [replicated] point spans; -1 outside *)
}

let create ~policy ?(obs = Sink.noop) () =
  {
    policy;
    an = Recovery.analysis ();
    store = Store.create ~initial:[];
    pending = Hashtbl.create 16;
    writer_of_wts = Hashtbl.create 16;
    tail = Buffer.create 256;
    ingested = 0;
    records = 0;
    commits = 0;
    ts = 0;
    skipped = 0;
    degraded = false;
    obs;
    cur_span = -1;
  }

let snapshot_ts t = t.ts
let ingested_bytes t = t.ingested
let records_applied t = t.records
let commits_applied t = t.commits
let skips t = t.skipped
let store t = t.store

let stats t =
  {
    Mvcc_obs.Jsonl.skipped = t.skipped;
    torn_tail = String.trim (Buffer.contents t.tail) <> "";
  }

let state t = Recovery.assemble ~policy:t.policy ~stats:(stats t) t.an

(* Fall back to the one-shot semantics: the analysis saw exactly the
   records a one-shot read of the consumed bytes would, so assembling it
   yields the correct store even across cascades. *)
let refresh t =
  let r = state t in
  t.store <- r.Recovery.store;
  Hashtbl.reset t.writer_of_wts;
  t.ts <- 0;
  List.iter
    (fun (wts, txn) ->
      Hashtbl.replace t.writer_of_wts wts txn;
      if wts > t.ts then t.ts <- wts)
    r.Recovery.writers;
  t.commits <- List.length r.Recovery.commit_order

let apply t (r : Wal.record) =
  Recovery.observe t.an r;
  t.records <- t.records + 1;
  match r with
  | State { entity; value } ->
      (* the same first-touch interning and last-wins overwrite as
         [Store.create] over the analysis's initial list *)
      if t.ts > 0 || t.commits > 0 then t.degraded <- true
      else Store.set_initial t.store entity value
  | Begin { txn; _ } | Abort { txn; _ } -> Hashtbl.replace t.pending txn []
  | Op _ | Checkpoint _ -> ()
  | Install { txn; entity; value; wts } ->
      let cur = try Hashtbl.find t.pending txn with Not_found -> [] in
      Hashtbl.replace t.pending txn ((entity, value, wts) :: cur)
  | Commit { txn } ->
      let installs = try Hashtbl.find t.pending txn with Not_found -> [] in
      List.iter
        (fun (entity, value, wts) ->
          if not t.degraded then Store.install t.store entity ~value ~wts;
          Hashtbl.replace t.writer_of_wts wts txn;
          if wts > t.ts then t.ts <- wts)
        (List.rev installs);
      Hashtbl.replace t.pending txn [];
      t.commits <- t.commits + 1;
      Sink.incr t.obs "follower.commits";
      Sink.span_event t.obs ~parent:t.cur_span "replicated"
        ~attrs:(fun () ->
          [ ("txn", J.Int txn); ("snapshot_ts", J.Int t.ts) ])

(* Decode and apply [s.[pos] .. s.[pos + len - 1]]; whether it was a
   record. *)
let line t s ~pos ~len ~terminated =
  match Wal.decode_sub s ~pos ~len with
  | Some (_lsn, r) ->
      apply t r;
      true
  | None ->
      if terminated && String.trim (String.sub s pos len) <> "" then begin
        t.skipped <- t.skipped + 1;
        (* a lost record mid-stream can hide a Commit: incremental
           redo is no longer sound, cascades may be pending *)
        t.degraded <- true
      end;
      false

let feed t chunk =
  let before = t.records in
  t.cur_span <- Sink.span_start t.obs "follower.ingest";
  t.ingested <- t.ingested + String.length chunk;
  (* a chunk that starts a line is scanned in place, not copied *)
  let s =
    if Buffer.length t.tail = 0 then chunk
    else begin
      Buffer.add_string t.tail chunk;
      let s = Buffer.contents t.tail in
      Buffer.clear t.tail;
      s
    end
  in
  let n = String.length s in
  let i = ref 0 in
  let scanning = ref true in
  while !scanning do
    match String.index_from_opt s !i '\n' with
    | Some j ->
        ignore (line t s ~pos:!i ~len:(j - !i) ~terminated:true);
        i := j + 1
    | None -> scanning := false
  done;
  if !i < n && not (line t s ~pos:!i ~len:(n - !i) ~terminated:false) then
    Buffer.add_substring t.tail s !i (n - !i);
  if t.degraded && t.records > before then refresh t;
  let applied = t.records - before in
  Sink.incr t.obs "follower.chunks";
  Sink.incr ~by:applied t.obs "follower.records";
  Sink.set_gauge t.obs "follower.ingested-bytes" t.ingested;
  Sink.set_gauge t.obs "follower.snapshot-ts" t.ts;
  Sink.set_gauge t.obs "follower.skips" t.skipped;
  Sink.span_finish t.obs t.cur_span ~attrs:(fun () ->
      [
        ("bytes", J.Int (String.length chunk));
        ("records", J.Int applied);
        ("snapshot_ts", J.Int t.ts);
      ]);
  t.cur_span <- -1;
  applied

let catch_up t log =
  let len = String.length log in
  if len < t.ingested then
    invalid_arg "Follower.catch_up: the log shrank below what was ingested";
  feed t (String.sub log t.ingested (len - t.ingested))

let catch_up_file t path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> catch_up t (In_channel.input_all ic))

let read_view t =
  List.map
    (fun e -> (e, (Store.read_at t.store e t.ts).Store.value))
    (Store.entities t.store)

let read t e = List.assoc_opt e (read_view t)

(* Certified reads: extend the recovered committed history with an
   observer transaction reading every entity at the snapshot timestamp,
   bind each observer read to the version it served (via the writer of
   that wts), and have the independent checker confirm the whole
   extended history read-consistent — the follower's reads are exactly
   as trustworthy as the history they are spliced into. *)
let certify t =
  let r = state t in
  let h = r.Recovery.history in
  let n = Schedule.n_txns h in
  let entities = Store.entities t.store in
  let hsteps = Array.to_list (Schedule.steps h) in
  let base = List.length hsteps in
  let h' =
    Schedule.of_steps ~n_txns:(n + 1)
      (hsteps @ List.map (fun e -> Step.read n e) entities)
  in
  let obs_srcs =
    List.mapi
      (fun i e ->
        let v = Store.read_at t.store e t.ts in
        let src =
          if v.Store.wts = 0 then Wal.From_init
          else Wal.From_txn (Hashtbl.find t.writer_of_wts v.Store.wts)
        in
        (base + i, src))
      entities
  in
  let vf =
    Mvcc_engine.Event.version_fn h' (r.Recovery.read_srcs @ obs_srcs)
  in
  let w = { W.claim = W.Read_consistent; evidence = Accept_version_fn ([], vf) } in
  (h', w, Mvcc_provenance.Checker.verify h' w)

let certified_read_view t =
  let _, _, ok = certify t in
  (read_view t, ok)
