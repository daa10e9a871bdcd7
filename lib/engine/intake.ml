module Sink = Mvcc_obs.Sink
module J = Mvcc_obs.Json

type status = Ready | Waiting of string | Backoff of int | Committed

type binding = { entity : string; eid : int; value : int }

type client = {
  id : int;
  program : Program.t;
  ops : Program.op array; (* the program, dense — O(1) pc dispatch *)
  ids : int array; (* the store id of each op's entity *)
  mutable pc : int;
  mutable regs : binding list;
  mutable buffer : binding list; (* newest binding first *)
  mutable ts : int;
  mutable snapshot : int; (* commit clock at attempt start, for SI *)
  mutable status : status;
  mutable sp_txn : int;
      (* open pipeline spans ([-1] when the sink has no span ring):
         sp_txn covers submit -> commit, sp_attempt one attempt *)
  mutable sp_attempt : int;
}

let admit ~policy_name ~programs ~intern ~obs ~fresh_ts ~wal_begin () =
  let clients =
    Array.of_list
      (List.mapi
         (fun id program ->
           let ops = Array.of_list program.Program.ops in
           {
             id;
             program;
             ops;
             ids =
               Array.map
                 (function Program.Read e | Write (e, _) -> intern e)
                 ops;
             pc = 0;
             regs = [];
             buffer = [];
             ts = 0;
             snapshot = 0;
             status = Ready;
             sp_txn = -1;
             sp_attempt = -1;
           })
         programs)
  in
  Sink.set_gauge obs "engine.clients" (Array.length clients);
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
