open Mvcc_core
module Sink = Mvcc_obs.Sink
module J = Mvcc_obs.Json

type mode = Conflict | Mv_conflict
type verdict = Accepted | Rejected

(* Every certifier accounts under one prefix: the engine's SGT policy is
   the only caller that attaches a sink, and perfbench reads these names. *)
let prefix = "engine.cert"
let feed_s_metric = prefix ^ ".feed_s"
let moves_metric = prefix ^ ".reorder-moves"
let arcs_metric = prefix ^ ".arcs"
let rollbacks_metric = prefix ^ ".rollbacks"
let rollback_arcs_metric = prefix ^ ".rollback-arcs"

(* Entity histories are keyed by the entity id the caller supplies: the
   engine's interned ids, or [intern]'s ids for the [Step.t] entry. *)
type t = {
  mode : mode;
  graph : Incr_digraph.t;
  mutable readers : Bitset.t array; (* entity id -> txns *)
  mutable writers : Bitset.t array; (* [Conflict] only *)
  unseen : Bitset.t;
      (* the set in every slot no access has reached yet, never added
         to: sets are allocated only for the entities fed *)
  mutable last_write : int array; (* entity id -> position, or -1 *)
  intern : (string, int) Hashtbl.t;
  mutable accepted : int;
  obs : Sink.t;
  log : Mvcc_provenance.Log.t option;
}

let create ?(obs = Sink.noop) ?log mode =
  let unseen = Bitset.create () in
  {
    mode;
    graph = Incr_digraph.create ();
    readers = Array.make 16 unseen;
    writers = Array.make 16 unseen;
    unseen;
    last_write = Array.make 16 (-1);
    intern = Hashtbl.create 16;
    accepted = 0;
    obs;
    log;
  }

let grow t e =
  let len = Array.length t.readers in
  if e >= len then begin
    let len' = max (e + 1) (2 * len) in
    let extend a x =
      Array.init len' (fun i -> if i < len then a.(i) else x)
    in
    t.readers <- extend t.readers t.unseen;
    t.writers <- extend t.writers t.unseen;
    t.last_write <- extend t.last_write (-1)
  end

let add t sets e txn =
  if sets.(e) == t.unseen then sets.(e) <- Bitset.create ();
  Bitset.add sets.(e) txn

(* Arcs the access introduces: every earlier conflicting accessor of the
   entity points at [txn]. In the conflict graph a write conflicts with
   prior readers and writers, a read only with prior writers; MVCG arcs
   run only from an earlier read to a later write (Theorem 1), so there a
   read draws none. *)
let new_arcs t ~txn ~write e =
  let arcs = ref [] in
  let from_set s =
    Bitset.iter (fun j -> if j <> txn then arcs := (j, txn) :: !arcs) s
  in
  (match t.mode with Conflict -> from_set t.writers.(e) | Mv_conflict -> ());
  if write then from_set t.readers.(e);
  !arcs

let insert t ~txn ~write e =
  grow t e;
  Incr_digraph.add_edges t.graph (new_arcs t ~txn ~write e)
  && begin
       Incr_digraph.ensure_node t.graph txn;
       (match (write, t.mode) with
       | false, _ -> add t t.readers e txn
       | true, Conflict -> add t t.writers e txn
       | true, Mv_conflict -> ());
       true
     end

let feed_id ?(parent = -1) t ~txn ~write e =
  if Sink.enabled t.obs then begin
    (* the dynamic digraph keeps cumulative cost counters; the deltas
       around this feed are what this access cost *)
    let g = t.graph in
    let arcs0 = Incr_digraph.n_edges g
    and moves0 = Incr_digraph.reorder_moves g
    and rolled0 = Incr_digraph.rolled_back_arcs g in
    let ok =
      Sink.time t.obs feed_s_metric (fun () -> insert t ~txn ~write e)
    in
    let arcs = Incr_digraph.n_edges g - arcs0
    and moves = Incr_digraph.reorder_moves g - moves0
    and rolled = Incr_digraph.rolled_back_arcs g - rolled0 in
    Sink.incr ~by:moves t.obs moves_metric;
    if ok then Sink.incr ~by:arcs t.obs arcs_metric
    else begin
      Sink.incr t.obs rollbacks_metric;
      Sink.incr ~by:rolled t.obs rollback_arcs_metric
    end;
    Sink.span_event t.obs ~parent "cert" ~attrs:(fun () ->
        ("txn", J.Int txn)
        ::
        (if ok then [ ("arcs", J.Int arcs); ("moves", J.Int moves) ]
         else [ ("arcs", J.Int rolled); ("rolled_back", J.Bool true) ]));
    ok
  end
  else insert t ~txn ~write e

let forget_txn t txn ~footprint =
  footprint (fun e ->
      if e < Array.length t.readers then begin
        Bitset.remove t.readers.(e) txn;
        Bitset.remove t.writers.(e) txn
      end);
  if txn < Incr_digraph.n_nodes t.graph then
    Incr_digraph.remove_incident t.graph txn

let entity_id t e =
  match Hashtbl.find_opt t.intern e with
  | Some id -> id
  | None ->
      let id = Hashtbl.length t.intern in
      Hashtbl.replace t.intern e id;
      id

let feed t (st : Step.t) =
  let e = entity_id t st.entity and write = Step.is_write st in
  if feed_id t ~txn:st.txn ~write e then begin
    if write then t.last_write.(e) <- t.accepted;
    t.accepted <- t.accepted + 1;
    Accepted
  end
  else Rejected

let n_accepted t = t.accepted

let last_write t e =
  match Hashtbl.find_opt t.intern e with
  | Some id when t.last_write.(id) >= 0 -> Some t.last_write.(id)
  | _ -> None

let standard_source t (st : Step.t) =
  match last_write t st.entity with
  | Some p -> Version_fn.From p
  | None -> Version_fn.Initial

let accepts_all mode s =
  let t = create mode in
  Array.for_all (fun st -> feed t st = Accepted) (Schedule.steps s)

module Scheduler = Mvcc_sched.Scheduler

let scheduler mode =
  {
    Scheduler.name =
      (match mode with Conflict -> "sgt-inc" | Mv_conflict -> "mvcg-inc");
    fresh =
      (fun () ->
        let cert = create mode in
        {
          Scheduler.offer =
            (fun ~prefix:_ ~last_of_txn:_ (st : Step.t) ->
              match feed cert st with
              | Rejected -> Scheduler.Rejected
              | Accepted ->
                  Scheduler.Accepted
                    (if Step.is_read st then
                       (* the read's own feed records no write, so this
                          is still the prefix's last write *)
                       Some (standard_source cert st)
                     else None));
        });
  }

module Witness = Mvcc_provenance.Witness

type explained = { verdict : verdict; witness : Witness.t }

let feed_explained t (st : Step.t) =
  let verdict = feed t st in
  let klass =
    match t.mode with Conflict -> Witness.Csr | Mv_conflict -> Witness.Mvcsr
  in
  let witness =
    match verdict with
    | Accepted ->
        (* the maintained order covers every transaction fed so far, so
           it serializes the whole accepted prefix *)
        { Witness.claim = Member klass;
          evidence = Accept_topo (Incr_digraph.topological_order t.graph);
        }
    | Rejected ->
        { Witness.claim = Non_member klass;
          evidence =
            Reject_cycle
              (Option.value ~default:[]
                 (Incr_digraph.rejection_cycle t.graph));
        }
  in
  (match t.log with
  | None -> ()
  | Some log ->
      let id = Mvcc_provenance.Log.register log witness in
      Sink.span_event t.obs "decision" ~attrs:(fun () ->
          [
            ("site", J.Str prefix); ("id", J.Int id);
            ("ok", J.Bool (verdict = Accepted));
          ]));
  { verdict; witness }
