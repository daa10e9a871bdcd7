module Store = Mvcc_engine.Store
module Certificate = Mvcc_engine.Certificate

type t = {
  commit_order : int list;
  undone : int list;
  cascaded : int list;
  store : Store.t;
  state : (string * int) list;
  history : Mvcc_core.Schedule.t;
  read_srcs : (int * Wal.src) list;
  writers : (int * int) list;
  witness : Mvcc_provenance.Witness.t option;
  stats : Mvcc_obs.Jsonl.stats;
}

(* The analysis pass, one record at a time. Keeping it incremental is
   what lets the log-shipping follower be recovery-in-a-loop: it feeds
   each streamed record to [observe] as it arrives and calls [assemble]
   (a pure function of the accumulated analysis) whenever it needs the
   full recovered view. One-shot [recover] is the same two calls. *)
type analysis = {
  cert : Certificate.t;
  mutable installs_rev : (int * int * string * int * int) list;
  mutable initial_rev : (string * int) list;
}

let analysis () =
  { cert = Certificate.create (); installs_rev = []; initial_rev = [] }

let copy a = { a with cert = Certificate.copy a.cert }

let observe a (r : Wal.record) =
  let feed ev = Certificate.observe a.cert ev in
  match r with
  | State { entity; value } -> a.initial_rev <- (entity, value) :: a.initial_rev
  | Begin { txn; ts } -> feed (Wal_begin { txn; ts })
  | Op { txn; entity; write; src } -> feed (Wal_op { txn; entity; write; src })
  | Install { txn; entity; value; wts } ->
      feed (Wal_install { txn; entity; value; wts });
      a.installs_rev <-
        (txn, Certificate.attempt a.cert txn, entity, value, wts)
        :: a.installs_rev
  | Commit { txn } -> feed (Wal_commit { txn })
  | Abort _ | Checkpoint _ -> ()

let assemble ~policy ?snapshot ~stats a =
  let cert = a.cert in
  let commit_seq = Certificate.commits cert in
  (* Cascade fixpoint: a committed transaction whose final attempt read
     from a transaction that did not survive is itself undone. A source
     never seen in the replayed range predates the snapshot and is
     therefore committed. *)
  let valid = Hashtbl.create 16 in
  List.iter (fun txn -> Hashtbl.replace valid txn ()) commit_seq;
  let reads_from = Certificate.committed_reads_from cert in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (txn, w) ->
        if Hashtbl.mem valid txn && not (Hashtbl.mem valid w) then begin
          Hashtbl.remove valid txn;
          changed := true
        end)
      reads_from
  done;
  let survives = Hashtbl.mem valid in
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
      if survives txn && Certificate.is_final cert txn att then begin
        Store.install store entity ~value ~wts;
        writers := (wts, txn) :: !writers
      end)
    (List.rev a.installs_rev);
  (* The committed history and its witness: the engine's certificate
     over the surviving set. *)
  let h = Certificate.assemble ~survives cert in
  {
    commit_order = h.commit_order;
    undone = Certificate.in_flight cert;
    cascaded = List.filter (fun t -> not (survives t)) commit_seq;
    store;
    state = Store.value_map store;
    history = h.history;
    read_srcs = h.read_srcs;
    writers = List.rev !writers;
    witness =
      (match snapshot with
      | Some _ -> None (* the tail cannot carry the full history *)
      | None -> Some (Certificate.witness ~policy h));
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
