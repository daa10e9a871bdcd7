module Schedule = Mvcc_core.Schedule
module Step = Mvcc_core.Step
module W = Mvcc_provenance.Witness

type op = {
  txn : int;
  att : int;
  entity : string;
  write : bool;
  src : Event.read_src option;
}

(* Per transaction, indexed by id and grown on demand (the engine feeds
   every operation of a run through here): attempts begun (0 before the
   first Begin, -1 = unseen), the latest attempt's timestamp, and the
   committed attempt (-1 = none). *)
type t = {
  mutable attempt : int array;
  mutable ts : int array;
  mutable committed : int array;
  mutable ops_rev : op list;
  mutable commits_rev : int list;
  mutable n_txns : int;
}

let create () =
  {
    attempt = [||];
    ts = [||];
    committed = [||];
    ops_rev = [];
    commits_rev = [];
    n_txns = 0;
  }

let copy t =
  {
    t with
    attempt = Array.copy t.attempt;
    ts = Array.copy t.ts;
    committed = Array.copy t.committed;
  }

(* the transaction's current attempt, marking it seen *)
let saw t txn =
  if txn >= Array.length t.attempt then begin
    let grow a fill =
      Array.init (2 * txn + 2) (fun i ->
          if i < Array.length a then a.(i) else fill)
    in
    t.attempt <- grow t.attempt (-1);
    t.ts <- grow t.ts 0;
    t.committed <- grow t.committed (-1)
  end;
  t.n_txns <- max t.n_txns (txn + 1);
  if t.attempt.(txn) < 0 then t.attempt.(txn) <- 0;
  t.attempt.(txn)

let observe t (ev : Event.t) =
  match ev with
  | Wal_begin { txn; ts } ->
      t.attempt.(txn) <- saw t txn + 1;
      t.ts.(txn) <- ts
  | Wal_op { txn; entity; write; src } ->
      t.ops_rev <- { txn; att = saw t txn; entity; write; src } :: t.ops_rev
  | Wal_install { txn; _ } -> ignore (saw t txn)
  | Wal_commit { txn } ->
      t.committed.(txn) <- saw t txn;
      t.commits_rev <- txn :: t.commits_rev
  | Wal_state _ | Wal_abort _ | Wal_checkpoint _ -> ()

let seen t txn = txn < t.n_txns && t.attempt.(txn) >= 0
let attempt t txn = if seen t txn then t.attempt.(txn) else 0
let is_final t txn att = txn < t.n_txns && t.committed.(txn) = att
let commits t = List.rev t.commits_rev

let in_flight t =
  List.init t.n_txns Fun.id
  |> List.filter (fun txn -> seen t txn && t.committed.(txn) < 0)

let committed_reads_from t =
  List.fold_left
    (fun acc o ->
      match o.src with
      | Some (From_txn w) when is_final t o.txn o.att && seen t w ->
          (o.txn, w) :: acc
      | _ -> acc)
    [] t.ops_rev

type history = {
  history : Schedule.t;
  read_srcs : (int * Event.read_src) list;
  commit_order : int list;
  ts_order : int list;
}

let append_missing n order =
  let seen = Array.make n false in
  List.iter (fun i -> seen.(i) <- true) order;
  order @ List.filter (fun i -> not seen.(i)) (List.init n Fun.id)

let assemble ?(survives = fun _ -> true) t =
  let final_ops =
    List.rev t.ops_rev
    |> List.filter (fun o -> is_final t o.txn o.att && survives o.txn)
  in
  let step o =
    if o.write then Step.write o.txn o.entity else Step.read o.txn o.entity
  in
  let read_src pos o =
    match o.src with Some s when not o.write -> Some (pos, s) | _ -> None
  in
  let commit_order = List.filter survives (commits t) in
  (* a transaction whose Begin precedes the observed range (a snapshot
     tail) has timestamp 0: it began before every one in it *)
  let by_ts x y = compare t.ts.(x) t.ts.(y) in
  {
    history = Schedule.of_steps ~n_txns:t.n_txns (List.map step final_ops);
    read_srcs = List.filter_map Fun.id (List.mapi read_src final_ops);
    commit_order;
    ts_order = append_missing t.n_txns (List.stable_sort by_ts commit_order);
  }

let witness ~(policy : Policy_intf.policy) h =
  let n = Schedule.n_txns h.history in
  let csr order = { W.claim = Member Csr; evidence = Accept_topo order } in
  let version_fn () = Event.version_fn h.history h.read_srcs in
  match policy with
  | S2pl -> csr (append_missing n h.commit_order)
  | To -> csr h.ts_order
  | Sgt -> (
      (* the commit order is not a serialization order for SGT (rw
         anti-dependencies may point against it): the history's own
         conflict graph orders it *)
      match Mvcc_graph.Topo.sort (Mvcc_core.Conflict.graph h.history) with
      | Some order -> csr order
      | None -> csr (append_missing n h.commit_order))
  | Mvto ->
      {
        W.claim = Member Mvsr;
        evidence = Accept_version_fn (h.ts_order, version_fn ());
      }
  | Si ->
      {
        W.claim = Read_consistent;
        evidence = Accept_version_fn ([], version_fn ());
      }
