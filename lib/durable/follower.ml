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

   The stream is consumed by the one-shot reader's own scanner
   ([Wal.scan]), so it has the same tolerance by construction:
   newline-terminated garbage is a skip, an unterminated parse-failing
   tail stays pending (it may simply not have fully shipped yet). An
   unterminated tail that parses is a complete record whose newline has
   not arrived (a strict prefix of a framed line never parses: the crc
   field closes the object), and one-shot recovery of those bytes reads
   it, so the follower applies it at once, provisionally: it keeps a
   copy of the analysis from before the record, and if the next bytes
   go on with anything but the newline, the line is not a record after
   all and the copy comes back.

   Apply is by id: pending installs sit in a txn-indexed array, the
   writer of each version in a wts-indexed one, and an entity is
   interned when its install commits, in the order recovery's redo
   interns it.

   Incremental redo assumes the stream is a log prefix, where commits
   never cascade. Any deviation — a mid-stream skip (lost Commit records
   upstream can cascade), or initial state arriving after installs —
   flips [degraded] and the follower rebuilds its store from the shared
   [Recovery.assemble] instead, trading incrementality for the one-shot
   semantics. *)

type t = {
  policy : Engine.policy;
  mutable an : Recovery.analysis;
  mutable provisional : Recovery.analysis option;
      (* the analysis before the record that [tail] holds, read before
         its line's newline arrived; [None] when [tail] holds no such
         record *)
  mutable store : Store.t;
  mutable pending : (string * int * int) list array;
      (* by txn: the installs of its current attempt, newest first *)
  mutable writer_of_wts : int array;
      (* by wts: the committed writer of that version, -1 = none *)
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
    provisional = None;
    store = Store.create ~initial:[];
    pending = Array.make 16 [];
    writer_of_wts = Array.make 64 (-1);
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

(* [a], grown with [fill] to hold index [i]; transaction ids and write
   timestamps are dense, as the engine assigns them *)
let cover a i fill =
  let len = Array.length a in
  if i < len then a
  else begin
    let bigger = Array.make (max (i + 1) (2 * len)) fill in
    Array.blit a 0 bigger 0 len;
    bigger
  end

let set_writer t wts txn =
  t.writer_of_wts <- cover t.writer_of_wts wts (-1);
  t.writer_of_wts.(wts) <- txn;
  if wts > t.ts then t.ts <- wts

let snapshot_ts t = t.ts
let ingested_bytes t = t.ingested
let records_applied t = t.records
let commits_applied t = t.commits
let skips t = t.skipped
let store t = t.store

let stats t =
  {
    Mvcc_obs.Jsonl.skipped = t.skipped;
    torn_tail =
      Option.is_none t.provisional
      && String.trim (Buffer.contents t.tail) <> "";
  }

let state t = Recovery.assemble ~policy:t.policy ~stats:(stats t) t.an

(* Fall back to the one-shot semantics: the analysis saw exactly the
   records a one-shot read of the consumed bytes would, so assembling it
   yields the correct store even across cascades. *)
let refresh t =
  let r = state t in
  t.store <- r.Recovery.store;
  Array.fill t.writer_of_wts 0 (Array.length t.writer_of_wts) (-1);
  t.ts <- 0;
  List.iter (fun (wts, txn) -> set_writer t wts txn) r.Recovery.writers;
  t.commits <- List.length r.Recovery.commit_order

(* Redo a committed attempt's installs, oldest first. The entity is
   interned here, at commit, as one-shot recovery's redo interns it: an
   aborted attempt's installs never reach the store's name table. *)
let rec redo t txn = function
  | [] -> ()
  | (entity, value, wts) :: older ->
      redo t txn older;
      if not t.degraded then
        Store.install_id t.store (Store.intern t.store entity) ~value ~wts;
      set_writer t wts txn

let apply t (r : Wal.record) =
  Recovery.observe t.an r;
  t.records <- t.records + 1;
  match r with
  | State { entity; value } ->
      (* the same first-touch interning and last-wins overwrite as
         [Store.create] over the analysis's initial list *)
      if t.ts > 0 || t.commits > 0 then t.degraded <- true
      else Store.set_initial t.store entity value
  | Begin { txn; _ } | Abort { txn; _ } ->
      if txn < Array.length t.pending then t.pending.(txn) <- []
  | Op _ | Checkpoint _ -> ()
  | Install { txn; entity; value; wts } ->
      t.pending <- cover t.pending txn [];
      t.pending.(txn) <- (entity, value, wts) :: t.pending.(txn)
  | Commit { txn } ->
      if txn < Array.length t.pending then begin
        redo t txn t.pending.(txn);
        t.pending.(txn) <- []
      end;
      t.commits <- t.commits + 1;
      Sink.incr t.obs "follower.commits";
      Sink.span_event t.obs ~parent:t.cur_span "replicated"
        ~attrs:(fun () ->
          [ ("txn", J.Int txn); ("snapshot_ts", J.Int t.ts) ])

let skip t () =
  t.skipped <- t.skipped + 1;
  (* a lost record mid-stream can hide a Commit: incremental redo is no
     longer sound, cascades may be pending *)
  t.degraded <- true

let feed t chunk =
  t.cur_span <- Sink.span_start t.obs "follower.ingest";
  t.ingested <- t.ingested + String.length chunk;
  let retracted = ref false in
  let take_tail () =
    Buffer.add_string t.tail chunk;
    let s = Buffer.contents t.tail in
    Buffer.clear t.tail;
    s
  in
  let s, pos =
    match t.provisional with
    | Some _ when chunk = "" -> ("", 0)
    | Some _ when chunk.[0] = '\n' ->
        (* the newline arrived: the provisional record stands *)
        t.provisional <- None;
        Buffer.clear t.tail;
        (chunk, 1)
    | Some an ->
        (* the line goes on past the record, so one-shot recovery of
           these bytes does not read it: take it back, and rebuild the
           store from the analysis from now on *)
        t.an <- an;
        t.provisional <- None;
        t.records <- t.records - 1;
        t.degraded <- true;
        retracted := true;
        (take_tail (), 0)
    (* a chunk that starts a line is scanned in place, not copied *)
    | None -> ((if Buffer.length t.tail = 0 then chunk else take_tail ()), 0)
  in
  let before = t.records in
  let n = String.length s in
  let rest =
    Wal.scan s ~pos ~on_record:(fun _lsn r -> apply t r) ~on_skip:(skip t)
  in
  if rest < n then begin
    (* the unterminated fragment waits for the rest of its line; if it
       already decodes it is a record missing only its newline, read now
       as one-shot recovery of these bytes reads it, but provisionally *)
    Buffer.add_substring t.tail s rest (n - rest);
    match Wal.decode_prefix s ~pos:rest with
    | Some (_, r, stop) when stop = n ->
        t.provisional <- Some (Recovery.copy t.an);
        apply t r
    | _ -> ()
  end;
  if t.degraded && (t.records > before || !retracted) then refresh t;
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

let shrank len t =
  if len < t.ingested then
    invalid_arg "Follower.catch_up: the log shrank below what was ingested"

let catch_up t log =
  let len = String.length log in
  shrank len t;
  feed t (String.sub log t.ingested (len - t.ingested))

(* one poll reads only the bytes past what was ingested, so tailing a
   growing log costs its growth, not its size *)
let catch_up_file t path =
  In_channel.with_open_bin path (fun ic ->
      shrank (in_channel_length ic) t;
      seek_in ic t.ingested;
      feed t (In_channel.input_all ic))

let read_view t =
  List.map
    (fun e -> (e, (Store.read_at t.store e t.ts).Store.value))
    (Store.entities t.store)

let read t e =
  Option.map (fun v -> v.Store.value) (Store.find_at t.store e t.ts)

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
          else Wal.From_txn t.writer_of_wts.(v.Store.wts)
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
