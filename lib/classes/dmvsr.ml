open Mvcc_core

(* [blind.(p)] marks the writes that get a read inserted before them:
   the first write of an entity its transaction has not read earlier.
   [seen] is the transaction x entity matrix of accesses that cover
   later writes (a read, or an inserted one). *)
let blind_writes s =
  let k = Schedule.n_entities s in
  let seen = Array.make (Schedule.n_txns s * k) false in
  let count = ref 0 in
  let blind =
    Array.init (Schedule.length s) (fun p ->
        let st = Schedule.step s p in
        let slot = (st.txn * k) + Schedule.entity_at s p in
        let is_blind = Step.is_write st && not seen.(slot) in
        seen.(slot) <- true;
        if is_blind then incr count;
        is_blind)
  in
  (blind, !count)

let has_blind_writes s = snd (blind_writes s) > 0

let transform s =
  let blind, count = blind_writes s in
  if count = 0 then s
  else begin
    let len = Schedule.length s in
    let steps = Array.make (len + count) (Schedule.step s 0) in
    let old_ids = Array.make (len + count) 0 in
    let q = ref 0 in
    for p = 0 to len - 1 do
      let st = Schedule.step s p in
      let e = Schedule.entity_at s p in
      if blind.(p) then begin
        steps.(!q) <- Step.read st.txn st.entity;
        old_ids.(!q) <- e;
        incr q
      end;
      steps.(!q) <- st;
      old_ids.(!q) <- e;
      incr q
    done;
    Schedule.derive s ~n_txns:(Schedule.n_txns s) steps old_ids
  end

module Ctx = Mvcc_analysis.Ctx
module Witness = Mvcc_provenance.Witness

(* The context of the blind-write-padded schedule. When there are no
   blind writes the transform returns its argument, so the sub-context
   IS the context itself and the MVSR search is shared with the MVSR
   decider. *)
let sub_key : Ctx.t Ctx.key = Ctx.key "dmvsr_transform"

let sub_ctx c =
  Ctx.memo c sub_key (fun c ->
      let s = Ctx.schedule c in
      let t = transform s in
      if t == s then c else Ctx.make t)

module Decider = struct
  let name = "DMVSR"

  (* The Rw arcs of [transform s] are exactly the Ww and Rw arcs of [s],
     so MVCSR of the transform is the {Ww,Rw} test, and by Theorem 3 it
     implies DMVSR; DMVSR ⊆ MVSR rejects the rest of the easy cases. The
     search over the transform runs directly: its MVCG is the {Ww,Rw}
     graph that was just found cyclic. *)
  let test c =
    Family.topo_ctx ~kinds:[ Family.Ww; Family.Rw ] c <> None
    || (Mvsr.Decider.test c && Mvsr.certificate_ctx (sub_ctx c) <> None)

  let witness _ = None
  let violation _ = None

  let decide c =
    let ok, (w : Witness.t) = Mvsr.Decider.decide (sub_ctx c) in
    let claim =
      if ok then Witness.Member Witness.Dmvsr
      else Witness.Non_member Witness.Dmvsr
    in
    (ok, { w with claim })
end

let test s = Mvsr.certificate (transform s) <> None
let decide s = Decider.decide (Ctx.make s)
