open Mvcc_core
module Sink = Mvcc_obs.Sink
module J = Mvcc_obs.Json

type mode = Conflict | Mv_conflict
type verdict = Accepted | Rejected
type state = Sv of Incr_conflict.t | Mv of Incr_mvcg.t

type t = {
  state : state;
  last_write : (string, int) Hashtbl.t; (* entity -> last write position *)
  mutable accepted : int;
  obs : Sink.t;
  pfx : string; (* metric-name prefix, e.g. "cert.conflict" *)
  log : Mvcc_provenance.Log.t option;
}

let create ?(obs = Sink.noop) ?log mode =
  {
    state =
      (match mode with
      | Conflict -> Sv (Incr_conflict.create ())
      | Mv_conflict -> Mv (Incr_mvcg.create ()));
    last_write = Hashtbl.create 16;
    accepted = 0;
    obs;
    pfx =
      (match mode with
      | Conflict -> "cert.conflict"
      | Mv_conflict -> "cert.mvcg");
    log;
  }

let mode t = match t.state with Sv _ -> Conflict | Mv _ -> Mv_conflict

let graph t =
  match t.state with
  | Sv c -> Incr_conflict.graph c
  | Mv c -> Incr_mvcg.graph c

let feed_state t st =
  match t.state with
  | Sv c -> Incr_conflict.feed c st
  | Mv c -> Incr_mvcg.feed c st

let feed t (st : Step.t) =
  let ok =
    if Sink.enabled t.obs then begin
      (* the dynamic digraph keeps cumulative cost counters; the deltas
         around this feed are what this step cost *)
      let g = graph t in
      let arcs0 = Incr_digraph.n_edges g
      and moves0 = Incr_digraph.reorder_moves g
      and rolled0 = Incr_digraph.rolled_back_arcs g in
      let ok = Sink.time t.obs (t.pfx ^ ".feed_s") (fun () -> feed_state t st) in
      let arcs = Incr_digraph.n_edges g - arcs0
      and moves = Incr_digraph.reorder_moves g - moves0
      and rolled = Incr_digraph.rolled_back_arcs g - rolled0 in
      Sink.incr ~by:moves t.obs (t.pfx ^ ".reorder-moves");
      if ok then begin
        Sink.incr t.obs (t.pfx ^ ".accepted");
        Sink.incr ~by:arcs t.obs (t.pfx ^ ".arcs")
      end
      else begin
        Sink.incr t.obs (t.pfx ^ ".rejected");
        Sink.incr t.obs (t.pfx ^ ".rollbacks");
        Sink.incr ~by:rolled t.obs (t.pfx ^ ".rollback-arcs")
      end;
      Sink.span_event t.obs "cert" ~attrs:(fun () ->
          ("txn", J.Int st.txn)
          ::
          (if ok then [ ("arcs", J.Int arcs); ("moves", J.Int moves) ]
           else [ ("arcs", J.Int rolled); ("rolled_back", J.Bool true) ]));
      ok
    end
    else feed_state t st
  in
  if ok then begin
    if Step.is_write st then Hashtbl.replace t.last_write st.entity t.accepted;
    t.accepted <- t.accepted + 1;
    Accepted
  end
  else Rejected

let n_accepted t = t.accepted
let last_write t e = Hashtbl.find_opt t.last_write e

let standard_source t (st : Step.t) =
  match last_write t st.entity with
  | Some p -> Version_fn.From p
  | None -> Version_fn.Initial

let accepts_all mode s =
  let t = create mode in
  Array.for_all (fun st -> feed t st = Accepted) (Schedule.steps s)

module Witness = Mvcc_provenance.Witness

type explained = { verdict : verdict; witness : Witness.t }

let feed_explained t (st : Step.t) =
  let verdict = feed t st in
  let klass =
    match mode t with Conflict -> Witness.Csr | Mv_conflict -> Witness.Mvcsr
  in
  let witness =
    match verdict with
    | Accepted ->
        (* the maintained order covers every transaction fed so far, so
           it serializes the whole accepted prefix *)
        { Witness.claim = Member klass;
          evidence = Accept_topo (Incr_digraph.topological_order (graph t));
        }
    | Rejected ->
        { Witness.claim = Non_member klass;
          evidence =
            Reject_cycle
              (Option.value (Incr_digraph.rejection_cycle (graph t)) ~default:[]);
        }
  in
  (match t.log with
  | None -> ()
  | Some log ->
      let id = Mvcc_provenance.Log.register log witness in
      Sink.span_event t.obs "decision" ~attrs:(fun () ->
          [
            ("site", J.Str t.pfx); ("id", J.Int id);
            ("ok", J.Bool (verdict = Accepted));
          ]));
  { verdict; witness }
