open Mvcc_core

(* Entity histories are keyed by dense interned ids: the stream's own
   symbol table maps each entity name to an id once per step, and the
   per-entity reader/writer sets live in flat arrays. *)

type t = {
  graph : Incr_digraph.t;
  intern : (string, int) Hashtbl.t;
  mutable readers : (int, unit) Hashtbl.t array; (* entity id -> txns *)
  mutable writers : (int, unit) Hashtbl.t array;
  mutable n_entities : int;
  mutable steps : int;
}

let create () =
  {
    graph = Incr_digraph.create ();
    intern = Hashtbl.create 16;
    readers = Array.make 16 (Hashtbl.create 0);
    writers = Array.make 16 (Hashtbl.create 0);
    n_entities = 0;
    steps = 0;
  }

let grow t needed =
  let len = Array.length t.readers in
  if needed > len then begin
    let len' = max needed (2 * len) in
    let extend a =
      Array.init len' (fun i -> if i < len then a.(i) else Hashtbl.create 0)
    in
    t.readers <- extend t.readers;
    t.writers <- extend t.writers
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
      t.writers.(id) <- Hashtbl.create 4;
      id

(* Arcs the step introduces: every earlier conflicting accessor of the
   entity points at the new step's transaction. A write conflicts with
   prior readers and writers; a read only with prior writers. *)
let new_arcs t (st : Step.t) =
  let e = entity_id t st.entity in
  let arcs = ref [] in
  let from_set s =
    Hashtbl.iter
      (fun j () -> if j <> st.txn then arcs := (j, st.txn) :: !arcs)
      s
  in
  from_set t.writers.(e);
  if Step.is_write st then from_set t.readers.(e);
  !arcs

let record t (st : Step.t) =
  let e = entity_id t st.entity in
  let sets = if Step.is_read st then t.readers else t.writers in
  Hashtbl.replace sets.(e) st.txn ()

let feed t (st : Step.t) =
  if Incr_digraph.add_edges t.graph (new_arcs t st) then begin
    Incr_digraph.ensure_node t.graph st.txn;
    record t st;
    t.steps <- t.steps + 1;
    true
  end
  else false

let n_steps t = t.steps
let graph t = t.graph

let forget_txn t i =
  for e = 0 to t.n_entities - 1 do
    Hashtbl.remove t.readers.(e) i;
    Hashtbl.remove t.writers.(e) i
  done;
  if i >= 0 && i < Incr_digraph.n_nodes t.graph then
    Incr_digraph.remove_incident t.graph i
