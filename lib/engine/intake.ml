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
               "Engine.run: program %S writes %s from register %s before \
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
