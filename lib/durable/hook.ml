module Engine = Mvcc_engine.Engine

type t = {
  writer : Wal.writer;
  snapshot_path : string option;
  mutable snapshots : (int * Snapshot.t) list; (* newest first *)
}

let create ?snapshot_path writer = { writer; snapshot_path; snapshots = [] }

let listener t (ev : Engine.wal_event) =
  let record =
    match ev with
    | Wal_state { entity; value } -> Wal.State { entity; value }
    | Wal_begin { txn; ts } -> Wal.Begin { txn; ts }
    | Wal_op { txn; entity; write; src } ->
        Wal.Op { txn; entity; write; src }
    | Wal_install { txn; entity; value; wts } ->
        Wal.Install { txn; entity; value; wts }
    | Wal_commit { txn } -> Wal.Commit { txn }
    | Wal_abort { txn; reason } ->
        Wal.Abort { txn; reason = Mvcc_engine.Event.reason_name reason }
    | Wal_checkpoint { store; commits } ->
        (* capture before appending: the checkpoint record's own LSN is
           where tail replay resumes, and it must not be part of the
           image. Force first — a snapshot must never outrun the durable
           log, or recovery could start from state the log cannot
           re-derive. Under flush-per-record this is a no-op. *)
        Wal.force t.writer;
        let lsn = Wal.next_lsn t.writer in
        let snap = Snapshot.capture ~lsn ~commits store in
        let name =
          match t.snapshot_path with
          | Some path ->
              Snapshot.write_file path snap;
              path
          | None -> Printf.sprintf "mem:%d" lsn
        in
        t.snapshots <- (lsn, snap) :: t.snapshots;
        Wal.Checkpoint { snapshot = name; commits }
  in
  ignore (Wal.append t.writer record)

let snapshots t = List.rev t.snapshots

let last_snapshot t =
  match t.snapshots with [] -> None | (_, s) :: _ -> Some s
