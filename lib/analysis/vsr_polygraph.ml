(* The polygraph construction of [6] (moved here from lib/classes/vsr.ml
   so the per-schedule analysis context can compute it once and share it
   between the test, witness and certificate paths). *)

open Mvcc_core
module Polygraph = Mvcc_polygraph.Polygraph

let compare_choice (c1 : Polygraph.choice) (c2 : Polygraph.choice) =
  let c = Int.compare c1.j c2.j in
  if c <> 0 then c
  else
    let c = Int.compare c1.k c2.k in
    if c <> 0 then c else Int.compare c1.i c2.i

(* The padding's T0 and Tf stay virtual: T0 is node 0, transaction [t]
   node [t + 1], Tf node [n + 1]. [writers.(e)] holds every writer of
   entity id [e], T0 included. One sweep then serves each read from
   [last.(e)], the latest writer so far, as the padded schedule's
   standard version function does; Tf finally reads every [last.(e)]. *)
let of_schedule s =
  let n = Schedule.n_txns s + 2 in
  let k = Schedule.n_entities s in
  let tf = n - 1 in
  let writers = Array.make k [ 0 ] in
  for pos = 0 to Schedule.length s - 1 do
    let st = Schedule.step s pos and e = Schedule.entity_at s pos in
    if Step.is_write st && not (List.mem (st.txn + 1) writers.(e)) then
      writers.(e) <- (st.txn + 1) :: writers.(e)
  done;
  let arcs = ref [] in
  let choices = ref [] in
  (* Anchor the padding: T0 precedes everything, Tf follows everything —
     a serialization of the original system always pads this way, and a
     compatible dag violating it would have no unpadded counterpart. *)
  for t = 1 to n - 1 do
    arcs := (0, t) :: !arcs
  done;
  for t = 0 to n - 2 do
    arcs := (t, tf) :: !arcs
  done;
  let add_read_from reader e writer =
    if reader <> writer then begin
      arcs := (writer, reader) :: !arcs;
      List.iter
        (fun k ->
          if k <> writer && k <> reader then
            choices := { Polygraph.j = reader; k; i = writer } :: !choices)
        writers.(e)
    end
  in
  (* A read served an external writer in s, while its own transaction
     wrote the entity earlier in program order, can never be realized
     serially: in a serial schedule the own write interposes. Such a
     schedule is not VSR at all (in the one-access-per-entity model). *)
  let last = Array.make k 0 in
  let own_write_before = Array.make (n * k) false in
  let unrealizable = ref false in
  for pos = 0 to Schedule.length s - 1 do
    let st = Schedule.step s pos in
    let e = Schedule.entity_at s pos in
    let t = st.txn + 1 in
    match st.action with
    | Step.Write ->
        own_write_before.((t * k) + e) <- true;
        last.(e) <- t
    | Step.Read ->
        let writer = last.(e) in
        if writer <> t && own_write_before.((t * k) + e) then
          unrealizable := true;
        add_read_from t e writer
  done;
  for e = 0 to k - 1 do
    add_read_from tf e last.(e)
  done;
  if !unrealizable then
    (* trivially cyclic polygraph: there are always >= 2 nodes (T0 and
       Tf) *)
    Polygraph.make ~n ~arcs:[ (0, 1); (1, 0) ] ~choices:[]
  else
    Polygraph.make ~n ~arcs:!arcs
      ~choices:(List.sort_uniq compare_choice !choices)
