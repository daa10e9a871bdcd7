module Schedule = Mvcc_core.Schedule
module Vf = Mvcc_core.Version_fn

type read_src = From_init | From_self | From_txn of int

type reason =
  | Deadlock
  | Wait_die
  | Wound
  | Ts_order
  | Write_invalidated
  | First_committer
  | Certification
  | Cascade
  | Crash

let reason_name = function
  | Deadlock -> "deadlock"
  | Wait_die -> "wait-die"
  | Wound -> "wound"
  | Ts_order -> "ts-order"
  | Write_invalidated -> "write-invalidated"
  | First_committer -> "first-committer"
  | Certification -> "certification"
  | Cascade -> "cascade"
  | Crash -> "crash"

(* literal constants, so counting an abort allocates nothing *)
let reason_counter = function
  | Deadlock -> "engine.abort.deadlock"
  | Wait_die -> "engine.abort.wait-die"
  | Wound -> "engine.abort.wound"
  | Ts_order -> "engine.abort.ts-order"
  | Write_invalidated -> "engine.abort.write-invalidated"
  | First_committer -> "engine.abort.first-committer"
  | Certification -> "engine.abort.certification"
  | Cascade -> "engine.abort.cascade"
  | Crash -> "engine.abort.crash"

let all_reasons =
  [
    Deadlock; Wait_die; Wound; Ts_order; Write_invalidated; First_committer;
    Certification; Cascade; Crash;
  ]

type t =
  | Wal_state of { entity : string; value : int }
  | Wal_begin of { txn : int; ts : int }
  | Wal_op of {
      txn : int;
      entity : string;
      write : bool;
      src : read_src option;
    }
  | Wal_install of { txn : int; entity : string; value : int; wts : int }
  | Wal_commit of { txn : int }
  | Wal_abort of { txn : int; reason : reason }
  | Wal_checkpoint of { store : Store.t; commits : int }

(* One pass with a last-write table keyed by (transaction, entity id):
   a [From_self] read resolves against the table as of its position,
   a [From_txn] read against the table once the pass is complete. *)
let version_fn history srcs =
  let steps = Schedule.steps history in
  let src_at = Array.make (Array.length steps) None in
  List.iter (fun (pos, src) -> src_at.(pos) <- Some src) srcs;
  let n_entities = Schedule.n_entities history in
  let key txn pos = (txn * n_entities) + Schedule.entity_at history pos in
  let last = Hashtbl.create 16 in
  let vf = ref Vf.empty and from_txn = ref [] in
  Array.iteri
    (fun pos (st : Mvcc_core.Step.t) ->
      if Mvcc_core.Step.is_write st then
        Hashtbl.replace last (key st.txn pos) pos
      else
        match src_at.(pos) with
        | None -> ()
        | Some From_init -> vf := Vf.add pos Initial !vf
        | Some From_self ->
            let q =
              Option.value ~default:(-1)
                (Hashtbl.find_opt last (key st.txn pos))
            in
            vf := Vf.add pos (From q) !vf
        | Some (From_txn j) -> from_txn := (pos, key j pos) :: !from_txn)
    steps;
  List.iter
    (fun (pos, k) ->
      match Hashtbl.find_opt last k with
      | Some q -> vf := Vf.add pos (From q) !vf
      | None -> ())
    !from_txn;
  !vf
