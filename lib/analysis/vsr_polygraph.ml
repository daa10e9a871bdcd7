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

(* Writers of each entity as padded transaction indices, indexed by the
   padded schedule's own entity ids, in reverse first-write order; the
   choices built from them are sorted before use. *)
let writers_arr p =
  let writers = Array.make (Schedule.n_entities p) [] in
  for pos = 0 to Schedule.length p - 1 do
    let st = Schedule.step p pos in
    if Step.is_write st then begin
      let e = Schedule.entity_at p pos in
      if not (List.mem st.txn writers.(e)) then
        writers.(e) <- st.txn :: writers.(e)
    end
  done;
  writers

(* One pass over the padded schedule by entity id: each read's writer
   comes straight from [std], and its choices from the writers of the
   read's entity id. *)
let of_padded ~padded:p ~std =
  let n = Schedule.n_txns p in
  let k = Schedule.n_entities p in
  let writers = writers_arr p in
  let arcs = ref [] in
  let choices = ref [] in
  (* Anchor the padding: T0 precedes everything, Tf follows everything —
     a serialization of the original system always pads this way, and a
     compatible dag violating it would have no unpadded counterpart. *)
  for t = 1 to n - 1 do
    arcs := (0, t) :: !arcs
  done;
  for t = 0 to n - 2 do
    arcs := (t, n - 1) :: !arcs
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
  let own_write_before = Array.make (n * k) false in
  let unrealizable = ref false in
  for pos = 0 to Schedule.length p - 1 do
    let st = Schedule.step p pos in
    let e = Schedule.entity_at p pos in
    match st.action with
    | Step.Write -> own_write_before.((st.txn * k) + e) <- true
    | Step.Read -> (
        match Version_fn.get std pos with
        | Some (Version_fn.From q) ->
            let writer = (Schedule.step p q).txn in
            if writer <> st.txn && own_write_before.((st.txn * k) + e) then
              unrealizable := true;
            add_read_from st.txn e writer
        | Some Version_fn.Initial -> add_read_from st.txn e 0
        | None ->
            invalid_arg "Vsr_polygraph.of_padded: version function not total")
  done;
  if !unrealizable then
    (* trivially cyclic polygraph: the padded schedule always has >= 2
       transactions (T0 and Tf) *)
    Polygraph.make ~n ~arcs:[ (0, 1); (1, 0) ] ~choices:[]
  else
    Polygraph.make ~n ~arcs:!arcs
      ~choices:(List.sort_uniq compare_choice !choices)
