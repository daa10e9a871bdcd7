module Sink = Mvcc_obs.Sink
module J = Mvcc_obs.Json
module Shard = Mvcc_exec.Shard

type buffered =
  | Ev of Event.t
  | Install of { txn : int; entity : string; record : Store.version; wts : int }

type batch = Fixed of int | Auto

type t = {
  store : Store.t;
  runner : Shard.t;
  writer_of : int -> int option;
  wal : (Event.t -> unit) option;
  obs : Sink.t;
  mode : batch;
  cores : int;
  mutable batch_target : int;
      (* flush threshold; constant under [Fixed], steered by the
         controller in [flush] under [Auto] *)
  values : int array option array;
      (* per client: the committed attempt's write values, set by its
         execution task; read by later waves/batches via [From_writer]
         placements (published across domains by the runner's barrier) *)
  mutable pending : (int * Plan.t) list; (* newest first *)
  mutable n_pending : int;
  mutable buffered : buffered list; (* newest first *)
}

let create ~cores ~store ~n_clients ~writer_of ?wal ~obs
    ?(batch = Fixed (8 * cores)) () =
  let t =
    {
      store;
      runner = Shard.create ~workers:cores;
      writer_of;
      wal;
      obs;
      mode = batch;
      cores;
      batch_target = (match batch with Fixed n -> max 1 n | Auto -> 8 * cores);
      values = Array.make (max 1 n_clients) None;
      pending = [];
      n_pending = 0;
      buffered = [];
    }
  in
  Sink.set_gauge obs "engine.stage.batch-target" t.batch_target;
  t

(* The adaptive controller, fed by the same signals the
   [engine.stage.queue-depth]/[waves] metrics expose: how full the batch
   was and how deep the leveler had to stack it. Wide, shallow batches
   mean the workers were saturated and the barrier cost is amortized —
   grow, so fewer flushes serve the same commit stream. Narrow waves
   mean intra-batch dependencies serialized the batch (fixed 8 x cores
   batches went *deeper*, not wider, as cores grew) — shrink,
   so dependent transactions land in separate flushes where their
   predecessors are already filled. Counts only, never wall-clock, so
   the trajectory is deterministic for a given commit stream. *)
let steer t ~n ~depth =
  match t.mode with
  | Fixed _ -> ()
  | Auto ->
      let width = n / depth in
      let before = t.batch_target in
      if n >= t.batch_target && depth <= 2 && width >= 2 * t.cores then
        t.batch_target <- min (t.batch_target * 2) (64 * t.cores)
      else if width < t.cores && t.batch_target > 4 then
        t.batch_target <- max 4 (t.batch_target / 2);
      if t.batch_target <> before then
        Sink.set_gauge t.obs "engine.stage.batch-target" t.batch_target

let buffer t ev = if t.wal <> None then t.buffered <- Ev ev :: t.buffered

let buffer_install t ~txn ~entity ~record ~wts =
  if t.wal <> None then
    t.buffered <- Install { txn; entity; record; wts } :: t.buffered

let submit t id plan =
  t.pending <- (id, plan) :: t.pending;
  t.n_pending <- t.n_pending + 1;
  Sink.set_gauge t.obs "engine.stage.queue-depth" t.n_pending

let due t = t.n_pending >= t.batch_target

(* Replay one committed plan: resolve each read's placement to a value,
   evaluate the write expressions, fill the placed versions. Values a
   plan consumes were produced by transactions that committed earlier,
   so they sit in an earlier wave (same batch) or an earlier flush. *)
let exec_txn t id plan =
  let vals = Array.make (max 1 (Plan.n_writes plan)) 0 in
  let regs : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun step ->
      match step with
      | Plan.Read (e, place) ->
          let v =
            match place with
            | Plan.From_version r -> r.Store.value
            | Plan.From_self token -> vals.(token)
            | Plan.From_writer (w, token) -> (
                match t.values.(w) with
                | Some produced -> produced.(token)
                | None -> assert false)
          in
          Hashtbl.replace regs e v
      | Plan.Write (_, expr, token) ->
          vals.(token) <- Program.eval (Hashtbl.find regs) expr)
    (Plan.steps plan);
  List.iter (fun (r, token) -> Store.fill r vals.(token)) (Plan.installs plan);
  t.values.(id) <- Some vals

let flush t =
  let batch = List.rev t.pending in
  t.pending <- [];
  t.n_pending <- 0;
  Sink.set_gauge t.obs "engine.stage.queue-depth" 0;
  (match batch with
  | [] -> ()
  | _ ->
      let n = List.length batch in
      (* Wave levels: a transaction runs one wave after the latest
         same-batch transaction it reads from (committed-version
         placements resolve to their writer via the wts map; dirty-read
         placements carry the writer directly). Writers always committed
         before their readers, so walking the batch in commit order sees
         every dependency's level before it is needed. *)
      let level : (int, int) Hashtbl.t = Hashtbl.create n in
      let max_level = ref 0 in
      List.iter
        (fun (id, plan) ->
          let lvl = ref 0 in
          let dep w =
            if w <> id then
              match Hashtbl.find_opt level w with
              | Some l -> if l + 1 > !lvl then lvl := l + 1
              | None -> () (* committed in an earlier batch: already run *)
          in
          List.iter
            (function
              | Plan.Read (_, Plan.From_version r) when r.Store.wts > 0 -> (
                  match t.writer_of r.Store.wts with
                  | Some w -> dep w
                  | None -> ())
              | Plan.Read (_, Plan.From_writer (w, _)) -> dep w
              | _ -> ())
            (Plan.steps plan);
          Hashtbl.replace level id !lvl;
          if !lvl > !max_level then max_level := !lvl)
        batch;
      let waves = Array.make (!max_level + 1) [] in
      List.iter
        (fun ((id, _) as item) ->
          let l = Hashtbl.find level id in
          waves.(l) <- item :: waves.(l))
        (List.rev batch);
      let sp =
        Sink.span_start t.obs "exec.flush" ~attrs:(fun () ->
            [ ("txns", J.Int n); ("waves", J.Int (!max_level + 1)) ])
      in
      Sink.observe t.obs "engine.stage.batch-txns" (float_of_int n);
      Sink.observe t.obs "engine.stage.waves" (float_of_int (!max_level + 1));
      Sink.time t.obs "engine.stage.exec_s" (fun () ->
          Array.iter
            (fun wave ->
              Shard.run t.runner
                (List.map
                   (fun (id, plan) -> (id, fun () -> exec_txn t id plan))
                   wave))
            waves);
      Sink.span_finish t.obs sp;
      steer t ~n ~depth:(!max_level + 1));
  (* with values in place, release the buffered durability events in
     arrival order — byte-identical to inline emission, because the WAL
     frames carry no wall-clock and its force boundaries are count-
     driven *)
  match t.wal with
  | None -> t.buffered <- []
  | Some emit ->
      let evs = List.rev t.buffered in
      t.buffered <- [];
      List.iter
        (function
          | Ev e -> emit e
          | Install { txn; entity; record; wts } ->
              emit
                (Event.Wal_install
                   { txn; entity; value = record.Store.value; wts }))
        evs

(* The sharded GC sweep: one prune task per store partition, keyed by
   shard id. Safe at any point between flushes — pruning reads only
   chain structure, and records a pending plan still references stay
   alive (and fillable) through the plan itself. *)
let prune t ~watermark =
  let shards = Store.shard_count t.store in
  if shards = 1 then Store.prune_shard t.store 0 ~watermark
  else begin
    let dropped = Array.make shards 0 in
    Shard.run t.runner
      (List.init shards (fun s ->
           (s, fun () -> dropped.(s) <- Store.prune_shard t.store s ~watermark)));
    Array.fold_left ( + ) 0 dropped
  end

let shutdown t = Shard.shutdown t.runner
