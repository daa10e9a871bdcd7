module Sink = Mvcc_obs.Sink
module J = Mvcc_obs.Json

type status = Ready | Waiting of string | Backoff of int | Committed

type binding = { entity : string; eid : int; value : int }

type write = {
  w_entity : string;
  w_eid : int;
  expr : Program.expr;
  regs_at : binding list; (* the attempt's registers at the write *)
  mutable forced : bool;
  mutable w_value : int; (* meaningful once [forced] *)
}

(* the one evaluation of transaction logic: a [Reg] names an entity, and
   its value is the newest read of it before the write *)
let force w =
  if not w.forced then begin
    let reg r =
      (List.find (fun b -> String.equal b.entity r) w.regs_at).value
    in
    w.w_value <- Program.eval reg w.expr;
    w.forced <- true
  end;
  w.w_value

type client = {
  id : int;
  program : Program.t;
  ops : Program.op array; (* the program, dense — O(1) pc dispatch *)
  ids : int array; (* the store id of each op's entity *)
  mutable pc : int;
  mutable regs : binding list;
  mutable buffer : write list; (* newest write first *)
  mutable ts : int;
  mutable snapshot : int; (* commit clock at attempt start, for SI *)
  mutable status : status;
  mutable sp_txn : int;
      (* open pipeline spans ([-1] when the sink has no span ring):
         sp_txn covers submit -> commit, sp_attempt one attempt *)
  mutable sp_attempt : int;
}

(* every register a write names was read earlier in its program, so
   [force] always finds it *)
let check_registers (p : Program.t) =
  let rec check read e = function
    | Program.Const _ -> ()
    | Reg r ->
        if not (List.mem r read) then
          invalid_arg
            (Printf.sprintf
               "Intake.admit: program %S writes %s from register %s before \
                reading it"
               p.label e r)
    | Add (a, b) | Sub (a, b) ->
        check read e a;
        check read e b
    | Mix (_, x) -> check read e x
  in
  ignore
    (List.fold_left
       (fun read -> function
         | Program.Read e -> e :: read
         | Write (e, x) ->
             check read e x;
             read)
       [] p.ops)

let admit ~policy_name ~programs ~intern ~obs ~fresh_ts ~wal_begin () =
  List.iter check_registers programs;
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
