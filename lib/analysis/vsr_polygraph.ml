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

(* Writers of each entity as padded transaction indices, keyed by the
   padded schedule's own entity ids, in reverse first-write order; the
   choices built from them are sorted before use. *)
let writers_arr p =
  let writers = Array.make (max 1 (Schedule.n_entities p)) [] in
  Array.iteri
    (fun pos (st : Step.t) ->
      if Step.is_write st then begin
        let e = Schedule.entity_at p pos in
        if not (List.mem st.txn writers.(e)) then
          writers.(e) <- st.txn :: writers.(e)
      end)
    (Schedule.steps p);
  fun entity ->
    match Schedule.entity_index p entity with
    | Some e -> writers.(e)
    | None -> []

let of_padded ~padded:p ~std =
  let n = Schedule.n_txns p in
  let writers_of = writers_arr p in
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
  let add_read_from reader entity writer =
    if reader <> writer then begin
      arcs := (writer, reader) :: !arcs;
      let others =
        List.filter (fun k -> k <> writer && k <> reader) (writers_of entity)
      in
      List.iter
        (fun k ->
          choices := { Polygraph.j = reader; k; i = writer } :: !choices)
        others
    end
  in
  (* A read served an external writer in s, while its own transaction
     wrote the entity earlier in program order, can never be realized
     serially: in a serial schedule the own write interposes. Such a
     schedule is not VSR at all (in the one-access-per-entity model). *)
  let own_write_before =
    Array.make (max 1 (n * max 1 (Schedule.n_entities p))) false
  in
  let slot txn e = (txn * Schedule.n_entities p) + e in
  let unrealizable = ref false in
  Array.iteri
    (fun pos (st : Step.t) ->
      let e = Schedule.entity_at p pos in
      match st.action with
      | Step.Write -> own_write_before.(slot st.txn e) <- true
      | Step.Read -> (
          match Version_fn.get std pos with
          | Some (Version_fn.From q)
            when (Schedule.step p q).txn <> st.txn
                 && own_write_before.(slot st.txn e) ->
              unrealizable := true
          | _ -> ()))
    (Schedule.steps p);
  if !unrealizable then
    (* trivially cyclic polygraph: the padded schedule always has >= 2
       transactions (T0 and Tf) *)
    Polygraph.make ~n ~arcs:[ (0, 1); (1, 0) ] ~choices:[]
  else begin
    List.iter
      (fun (pos, w) ->
        let st = Schedule.step p pos in
        let writer = match w with Read_from.T0 -> 0 | Read_from.T j -> j in
        add_read_from st.txn st.entity writer)
      (Read_from.per_step p std);
    Polygraph.make ~n ~arcs:!arcs
      ~choices:(List.sort_uniq compare_choice !choices)
  end
