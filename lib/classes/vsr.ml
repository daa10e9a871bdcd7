open Mvcc_core
module Acyclicity = Mvcc_polygraph.Acyclicity
module Ctx = Mvcc_analysis.Ctx
module Witness = Mvcc_provenance.Witness
module Topo = Mvcc_graph.Topo

let polygraph_of s = Ctx.polygraph (Ctx.make s)

(* Drop the padding transactions T0 (index 0) and Tf (index n+1) and
   shift back to original indices. *)
let unpad_order s order =
  let n = Schedule.n_txns s in
  List.filter_map
    (fun i -> if i = 0 || i = n + 1 then None else Some (i - 1))
    order

let solved c = fst (Ctx.polygraph_solution c) <> None

module Decider = struct
  let name = "VSR"

  (* CSR ⊆ VSR ⊆ MVSR: the polygraph is solved only for a schedule
     that is MVSR but not CSR. *)
  let test c =
    Ctx.conflict_topo c <> None || (Mvsr.Decider.test c && solved c)

  let witness c =
    match fst (Ctx.polygraph_solution c) with
    | None -> None
    | Some g ->
        let s = Ctx.schedule c in
        let order = Option.get (Topo.sort g) in
        Some (Schedule.serialization s (unpad_order s order))

  let violation _ = None

  let decide c =
    let s = Ctx.schedule c in
    match Ctx.polygraph_solution c with
    | Some g, _ ->
        let order = Option.get (Topo.sort g) in
        ( true,
          { Witness.claim = Member Vsr;
            evidence = Accept_topo (unpad_order s order);
          } )
    | None, { Acyclicity.branches; propagated } ->
        ( false,
          { Witness.claim = Non_member Vsr;
            evidence = Reject_exhausted { branches; propagated };
          } )
end

let test s = solved (Ctx.make s)
let witness s = Decider.witness (Ctx.make s)
let decide s = Decider.decide (Ctx.make s)

let test_exact s =
  List.exists
    (fun r -> Equiv.view_equivalent s r)
    (Schedule.all_serializations s)

let decide_sat_ctx c =
  let s = Ctx.schedule c in
  let p = Ctx.polygraph c in
  let cnf = Mvcc_polygraph.Sat_encoding.encode p in
  match Mvcc_sat.Dpll.solve_stats cnf with
  | Some a, _ ->
      let order = Mvcc_polygraph.Sat_encoding.order_of_assignment p a in
      ( true,
        { Witness.claim = Member Vsr;
          evidence = Accept_assignment (unpad_order s order);
        } )
  | None, { Mvcc_sat.Dpll.decisions; propagations } ->
      ( false,
        { Witness.claim = Non_member Vsr;
          evidence =
            Reject_exhausted { branches = decisions; propagated = propagations };
        } )

let decide_sat s = decide_sat_ctx (Ctx.make s)
