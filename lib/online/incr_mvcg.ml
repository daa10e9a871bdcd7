open Mvcc_core

(* Reader histories are keyed by dense interned ids: the stream's own
   symbol table maps each entity name to an id once per step. *)

type t = {
  graph : Incr_digraph.t;
  intern : (string, int) Hashtbl.t;
  mutable readers : (int, unit) Hashtbl.t array; (* entity id -> txns *)
  mutable n_entities : int;
  mutable steps : int;
}

let create () =
  {
    graph = Incr_digraph.create ();
    intern = Hashtbl.create 16;
    readers = Array.make 16 (Hashtbl.create 0);
    n_entities = 0;
    steps = 0;
  }

let grow t needed =
  let len = Array.length t.readers in
  if needed > len then begin
    let len' = max needed (2 * len) in
    t.readers <-
      Array.init len' (fun i ->
          if i < len then t.readers.(i) else Hashtbl.create 0)
  end

let entity_id t e =
  match Hashtbl.find_opt t.intern e with
  | Some id -> id
  | None ->
      let id = t.n_entities in
      t.n_entities <- id + 1;
      Hashtbl.replace t.intern e id;
      grow t t.n_entities;
      t.readers.(id) <- Hashtbl.create 4;
      id

(* MVCG arcs run from an earlier read to a later write of the same
   entity (Theorem 1), so a read introduces no arcs at all and a write
   by T_j adds [T_i -> T_j] for every distinct prior reader T_i. *)
let new_arcs t (st : Step.t) =
  if Step.is_read st then []
  else
    Hashtbl.fold
      (fun i () acc -> if i <> st.txn then (i, st.txn) :: acc else acc)
      t.readers.(entity_id t st.entity)
      []

let feed t (st : Step.t) =
  if Incr_digraph.add_edges t.graph (new_arcs t st) then begin
    Incr_digraph.ensure_node t.graph st.txn;
    if Step.is_read st then
      Hashtbl.replace t.readers.(entity_id t st.entity) st.txn ();
    t.steps <- t.steps + 1;
    true
  end
  else false

let n_steps t = t.steps
let graph t = t.graph

let forget_txn t i =
  for e = 0 to t.n_entities - 1 do
    Hashtbl.remove t.readers.(e) i
  done;
  if i >= 0 && i < Incr_digraph.n_nodes t.graph then
    Incr_digraph.remove_incident t.graph i
