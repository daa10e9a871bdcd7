open Mvcc_core
module Sink = Mvcc_obs.Sink
module J = Mvcc_obs.Json

type verdict = Accepted of Version_fn.source option | Rejected

type instance = {
  offer :
    prefix:Schedule.t -> last_of_txn:bool -> Step.t -> verdict;
}

type t = { name : string; fresh : unit -> instance }

let extend = Schedule.append

(* Wrap a scheduler so every offer is counted, timed, and traced under
   its policy name. The wrapped instance forwards the verdict
   untouched, so instrumentation can never change a decision — the
   invariance property tests run each policy both ways and compare. *)
let instrument sink (sched : t) =
  if not (Sink.enabled sink) then sched
  else
    let pfx = "sched." ^ sched.name in
    let offered = pfx ^ ".offered"
    and accepted = pfx ^ ".accepted"
    and rejected = pfx ^ ".rejected"
    and offer_s = pfx ^ ".offer_s" in
    {
      sched with
      fresh =
        (fun () ->
          let inst = sched.fresh () in
          {
            offer =
              (fun ~prefix ~last_of_txn (st : Step.t) ->
                Sink.incr sink offered;
                let verdict =
                  Sink.time sink offer_s (fun () ->
                      inst.offer ~prefix ~last_of_txn st)
                in
                let ok =
                  match verdict with Accepted _ -> true | Rejected -> false
                in
                Sink.incr sink (if ok then accepted else rejected);
                Sink.span_event sink "offer" ~attrs:(fun () ->
                    [
                      ("txn", J.Int st.txn);
                      ("entity", J.Str st.entity);
                      ("write", J.Bool (Step.is_write st));
                      ("accepted", J.Bool ok);
                    ]);
                verdict);
          });
    }

let standard_source prefix (st : Step.t) =
  let src = ref Version_fn.Initial in
  Array.iteri
    (fun pos (w : Step.t) ->
      if Step.is_write w && w.entity = st.entity then
        src := Version_fn.From pos)
    (Schedule.steps prefix);
  !src
