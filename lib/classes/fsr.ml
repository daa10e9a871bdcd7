open Mvcc_core
module Ctx = Mvcc_analysis.Ctx
module Witness = Mvcc_provenance.Witness

let signature s = (Liveness.live_read_froms s, Read_from.final_writers s)

let equal_signature (lrf1, fw1) (lrf2, fw2) =
  Read_from.equal_relation lrf1 lrf2 && Read_from.equal_finals fw1 fw2

let equivalent s1 s2 =
  if not (Schedule.same_system s1 s2) then
    invalid_arg "Fsr.equivalent: schedules of different transaction systems";
  equal_signature (signature s1) (signature s2)

(* All permutations of [0 .. n-1]; the order all_serializations uses. *)
let rec perms = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
        l

(* One factorial search per context: the first serialization order whose
   final-state signature matches, plus the number of orders tried. *)
let search_key : (int list option * int) Ctx.key = Ctx.key "fsr_search"

(* The serialization's final writers depend only on the order: entity
   [e]'s final writer is the last transaction in the order that writes
   [e]. Computing that from the interned index filters almost every
   order with int-vector work, so a schedule is only materialized for the
   rare orders that pass on to the liveness comparison. *)
let search c =
  Ctx.memo c search_key (fun c ->
      let s = Ctx.schedule c in
      let lrf_s = Ctx.live_read_froms c and fw_s = Ctx.final_writers c in
      let n_ents = Schedule.n_entities s in
      let n_txns = Schedule.n_txns s in
      let written = Array.make (max 1 (n_txns * n_ents)) false in
      let writes_of_txn = Array.make n_txns [] in
      Array.iteri
        (fun p (st : Step.t) ->
          if Step.is_write st then begin
            let e = Schedule.entity_at s p in
            let slot = (st.txn * n_ents) + e in
            if not written.(slot) then begin
              written.(slot) <- true;
              writes_of_txn.(st.txn) <- e :: writes_of_txn.(st.txn)
            end
          end)
        (Schedule.steps s);
      let fw_vec = Array.make (max 1 n_ents) (-1) in
      List.iter
        (fun (name, w) ->
          let e = Option.get (Schedule.entity_index s name) in
          fw_vec.(e) <-
            (match w with Read_from.T0 -> -1 | Read_from.T i -> i))
        fw_s;
      let cur = Array.make (max 1 n_ents) (-1) in
      let finals_match order =
        Array.fill cur 0 n_ents (-1);
        List.iter
          (fun i -> List.iter (fun e -> cur.(e) <- i) writes_of_txn.(i))
          order;
        let rec eq e = e >= n_ents || (cur.(e) = fw_vec.(e) && eq (e + 1)) in
        eq 0
      in
      let tried = ref 0 in
      let hit =
        List.find_opt
          (fun order ->
            incr tried;
            finals_match order
            && Read_from.equal_relation
                 (Liveness.live_read_froms (Schedule.serialization s order))
                 lrf_s)
          (perms (List.init n_txns Fun.id))
      in
      (hit, !tried))

module Decider = struct
  let name = "FSR"
  let test c = fst (search c) <> None

  let witness c =
    Option.map (Schedule.serialization (Ctx.schedule c)) (fst (search c))

  let violation _ = None

  let decide c =
    match search c with
    | Some order, _ ->
        (true, { Witness.claim = Member Fsr; evidence = Accept_topo order })
    | None, tried ->
        ( false,
          { Witness.claim = Non_member Fsr;
            evidence = Reject_exhausted { branches = tried; propagated = 0 };
          } )
end

let test s = Decider.test (Ctx.make s)
let witness s = Decider.witness (Ctx.make s)
let decide s = Decider.decide (Ctx.make s)
