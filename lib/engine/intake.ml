module Sink = Mvcc_obs.Sink
module J = Mvcc_obs.Json

type status = Ready | Waiting of string | Backoff of int | Committed

type client = {
  id : int;
  program : Program.t;
  ops : Program.op array; (* the program, dense — O(1) pc dispatch *)
  mutable pc : int;
  mutable regs : (string * int) list;
  mutable buffer : (string * int) list; (* newest binding first *)
  mutable ts : int;
  mutable snapshot : int; (* commit clock at attempt start, for SI *)
  mutable status : status;
  mutable sp_txn : int;
      (* open pipeline spans ([-1] when the sink has no span ring):
         sp_txn covers submit -> commit, sp_attempt one attempt *)
  mutable sp_attempt : int;
  mutable plan : Plan.t;
      (* deferred-execution plan of the current attempt (cores > 1);
         reset on abort, handed to the execution stage on commit *)
}

(* Phase 1 of partitioned admission: build one client record, without a
   begin timestamp (drawn at merge time — the clock is serial) and
   without side effects. This is the per-connection work (program
   parsing, machine-state setup) a queue can do independently of every
   other queue. *)
let prepare id program =
  {
    id;
    program;
    ops = Array.of_list program.Program.ops;
    pc = 0;
    regs = [];
    buffer = [];
    ts = 0;
    snapshot = 0;
    status = Ready;
    sp_txn = -1;
    sp_attempt = -1;
    plan = Plan.create ();
  }

(* Phase 2: the deterministic merge. Clients were dealt into the queues
   by submission index, so merging by id restores the submission order
   exactly; everything order-sensitive (timestamp draws, begin events,
   span opens, WAL begins) happens on the merged stream. *)
let merge queues =
  let clients = Array.of_list (List.concat (Array.to_list queues)) in
  Array.sort (fun a b -> compare a.id b.id) clients;
  clients

let admit ~policy_name ~programs ?(queues = 1) ~obs ~fresh_ts ~wal_begin () =
  let n_queues = max 1 queues in
  (* deal round-robin by submission index: queue q models the q-th
     client connection *)
  let qs = Array.make n_queues [] in
  List.iteri
    (fun id program -> qs.(id mod n_queues) <- prepare id program :: qs.(id mod n_queues))
    programs;
  let clients = merge qs in
  Sink.set_gauge obs "engine.clients" (Array.length clients);
  Sink.set_gauge obs "engine.intake.queues" n_queues;
  Array.iter
    (fun c ->
      c.ts <- fresh_ts ();
      wal_begin ~txn:c.id ~ts:c.ts;
      c.sp_txn <-
        Sink.span_start obs "txn" ~attrs:(fun () ->
            [ ("txn", J.Int c.id); ("policy", J.Str policy_name) ]);
      c.sp_attempt <-
        Sink.span_start obs ~parent:c.sp_txn "attempt" ~attrs:(fun () ->
            [ ("txn", J.Int c.id); ("ts", J.Int c.ts) ]))
    clients;
  clients
