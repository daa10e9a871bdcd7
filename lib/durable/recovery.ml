module Store = Mvcc_engine.Store
module Engine = Mvcc_engine.Engine
module Schedule = Mvcc_core.Schedule
module Step = Mvcc_core.Step
module W = Mvcc_provenance.Witness

type t = {
  n_txns : int;
  commit_order : int list;
  undone : int list;
  cascaded : int list;
  store : Store.t;
  state : (string * int) list;
  history : Schedule.t;
  read_srcs : (int * Wal.src) list;
  writers : (int * int) list;
  witness : W.t option;
  stats : Mvcc_obs.Jsonl.stats;
}

(* The analysis pass, one record at a time. Keeping it incremental is
   what lets the log-shipping follower be recovery-in-a-loop: it feeds
   each streamed record to [observe] as it arrives and calls [assemble]
   (a pure function of the accumulated analysis) whenever it needs the
   full recovered view. One-shot [recover] is the same two calls. *)
type analysis = {
  attempt : (int, int) Hashtbl.t;
  ts_of : (int, int) Hashtbl.t;
  begun : (int, unit) Hashtbl.t;
  committed_at : (int, int) Hashtbl.t;
  mutable ops_rev : (int * int * bool * string * Wal.src option) list;
  mutable installs_rev : (int * int * string * int * int) list;
  mutable commit_seq_rev : int list;
  mutable initial_rev : (string * int) list;
  mutable an_txns : int;
}

let analysis () =
  {
    attempt = Hashtbl.create 16;
    ts_of = Hashtbl.create 16;
    begun = Hashtbl.create 16;
    committed_at = Hashtbl.create 16;
    ops_rev = [];
    installs_rev = [];
    commit_seq_rev = [];
    initial_rev = [];
    an_txns = 0;
  }

let observe a (r : Wal.record) =
  let att_of txn = try Hashtbl.find a.attempt txn with Not_found -> 0 in
  let saw txn =
    a.an_txns <- max a.an_txns (txn + 1);
    Hashtbl.replace a.begun txn ()
  in
  match r with
  | State { entity; value } -> a.initial_rev <- (entity, value) :: a.initial_rev
  | Begin { txn; ts } ->
      saw txn;
      Hashtbl.replace a.attempt txn (att_of txn + 1);
      Hashtbl.replace a.ts_of txn ts
  | Op { txn; entity; write; src } ->
      saw txn;
      a.ops_rev <- (txn, att_of txn, write, entity, src) :: a.ops_rev
  | Install { txn; entity; value; wts } ->
      saw txn;
      a.installs_rev <- (txn, att_of txn, entity, value, wts) :: a.installs_rev
  | Commit { txn } ->
      saw txn;
      Hashtbl.replace a.committed_at txn (att_of txn);
      a.commit_seq_rev <- txn :: a.commit_seq_rev
  | Abort _ | Checkpoint _ -> ()

let assemble ~policy ?snapshot ~stats a =
  let n = a.an_txns in
  let ops = List.rev a.ops_rev in
  let installs = List.rev a.installs_rev in
  let commit_seq = List.rev a.commit_seq_rev in
  (* Cascade fixpoint: a committed transaction whose final attempt read
     from a transaction that did not survive is itself undone. A source
     never seen in the replayed range predates the snapshot and is
     therefore committed. *)
  let valid = Hashtbl.copy a.committed_at in
  let is_final_of_valid txn att =
    match Hashtbl.find_opt valid txn with
    | Some fa -> fa = att
    | None -> false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (txn, att, write, _entity, src) ->
        if (not write) && is_final_of_valid txn att then
          match src with
          | Some (Wal.From_txn w)
            when Hashtbl.mem a.begun w && not (Hashtbl.mem valid w) ->
              Hashtbl.remove valid txn;
              changed := true
          | _ -> ())
      ops
  done;
  let commit_order = List.filter (Hashtbl.mem valid) commit_seq in
  let cascaded =
    List.filter (fun t -> not (Hashtbl.mem valid t)) commit_seq
  in
  let undone =
    Hashtbl.fold
      (fun t () acc ->
        if Hashtbl.mem a.committed_at t then acc else t :: acc)
      a.begun []
    |> List.sort compare
  in
  (* Redo: re-install surviving committed versions, in log order, onto
     the base image. Undo is the absence of redo — no-steal means the
     store never held uncommitted data. *)
  let store =
    match snapshot with
    | Some s -> Snapshot.store s
    | None -> Store.create ~initial:(List.rev a.initial_rev)
  in
  let writers = ref [] in
  List.iter
    (fun (txn, att, entity, value, wts) ->
      if is_final_of_valid txn att then begin
        Store.install store entity ~value ~wts;
        writers := (wts, txn) :: !writers
      end)
    installs;
  let writers = List.rev !writers in
  (* The committed history: surviving final attempts, operation order. *)
  let final_ops =
    List.filter (fun (txn, att, _, _, _) -> is_final_of_valid txn att) ops
  in
  let history =
    Schedule.of_steps ~n_txns:n
      (List.map
         (fun (txn, _, write, entity, _) ->
           if write then Step.write txn entity else Step.read txn entity)
         final_ops)
  in
  let read_srcs =
    List.mapi
      (fun pos (_, _, write, _, src) ->
        match src with Some s when not write -> Some (pos, s) | _ -> None)
      final_ops
    |> List.filter_map Fun.id
  in
  let witness =
    match snapshot with
    | Some _ -> None (* the tail cannot carry the full history *)
    | None ->
        let append_missing = Mvcc_engine.Event.append_missing n in
        let ts_order =
          List.filter (Hashtbl.mem valid) commit_seq
          |> List.sort (fun x y ->
                 compare (Hashtbl.find a.ts_of x) (Hashtbl.find a.ts_of y))
          |> append_missing
        in
        Some
          (match (policy : Engine.policy) with
          | S2pl ->
              {
                W.claim = Member Csr;
                evidence = Accept_topo (append_missing commit_order);
              }
          | To -> { W.claim = Member Csr; evidence = Accept_topo ts_order }
          | Sgt ->
              (* the commit order is not a serialization order for SGT
                 (rw anti-dependencies may point against it); recompute
                 a topological order of the recovered history's own
                 conflict graph *)
              let order =
                match
                  Mvcc_graph.Topo.sort (Mvcc_core.Conflict.graph history)
                with
                | Some o -> o
                | None -> append_missing commit_order
              in
              { W.claim = Member Csr; evidence = Accept_topo order }
          | Mvto ->
              {
                W.claim = Member Mvsr;
                evidence =
                  Accept_version_fn
                    (ts_order, Mvcc_engine.Event.version_fn history read_srcs);
              }
          | Si ->
              {
                W.claim = Read_consistent;
                evidence =
                  Accept_version_fn
                    ([], Mvcc_engine.Event.version_fn history read_srcs);
              })
  in
  {
    n_txns = n;
    commit_order;
    undone;
    cascaded;
    store;
    state = Store.value_map store;
    history;
    read_srcs;
    writers;
    witness;
    stats;
  }

let recover ~policy ?snapshot (read : Wal.read) =
  let start_lsn =
    match snapshot with Some s -> s.Snapshot.lsn | None -> 0
  in
  let a = analysis () in
  List.iter
    (fun (lsn, r) -> if lsn >= start_lsn then observe a r)
    read.Wal.records;
  assemble ~policy ?snapshot ~stats:read.Wal.stats a

let dump_string store =
  Store.dump store
  |> List.map (fun (e, versions) ->
         Printf.sprintf "%s: %s" e
           (String.concat " "
              (List.map
                 (fun (wts, value) -> Printf.sprintf "%d=%d" wts value)
                 versions)))
  |> String.concat "\n"
