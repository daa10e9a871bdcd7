(* All-pairs reference enumeration, kept as the oracle the bucketed
   sweeps are qcheck-pinned against: O(n²) with the relation — string
   equality included — in the innermost loop. *)
let pairs_satisfying rel s =
  let steps = Schedule.steps s in
  let n = Array.length steps in
  let acc = ref [] in
  for p = 0 to n - 1 do
    for q = p + 1 to n - 1 do
      if rel steps.(p) steps.(q) then acc := (p, q) :: !acc
    done
  done;
  List.rev !acc

(* The bucketed sweep: for each position [p] in schedule order, only the
   later positions in [p]'s own entity bucket can satisfy a same-entity
   relation, and the bucket lists them in ascending order — so emitting
   bucket tails position by position reproduces exactly the (p, q)
   lexicographic order of the all-pairs scan, without ever comparing an
   entity name. [keep] sees two same-entity steps. *)
let sweep_pairs keep s =
  let n = Schedule.length s in
  let acc = ref [] in
  for p = 0 to n - 1 do
    let b = Schedule.entity_bucket s (Schedule.entity_at s p) in
    for i = Schedule.entity_rank s p + 1 to Array.length b - 1 do
      let q = b.(i) in
      if keep (Schedule.step s p) (Schedule.step s q) then
        acc := (p, q) :: !acc
    done
  done;
  List.rev !acc

(* Same-entity specializations of Step.conflicts / Step.mv_conflicts:
   the bucket already guarantees entity equality. *)
let conflicts_same_entity (a : Step.t) (b : Step.t) =
  a.txn <> b.txn && (a.action = Step.Write || b.action = Step.Write)

let mv_conflicts_same_entity (a : Step.t) (b : Step.t) =
  a.txn <> b.txn && a.action = Step.Read && b.action = Step.Write

let conflicting_pairs s = sweep_pairs conflicts_same_entity s
let mv_conflicting_pairs s = sweep_pairs mv_conflicts_same_entity s

(* The graph constructors add edges during the sweep itself instead of
   materializing the pair list; insertion order is the pair order. *)
let sweep_graph keep s =
  let g = Mvcc_graph.Digraph.create (Schedule.n_txns s) in
  let n = Schedule.length s in
  for p = 0 to n - 1 do
    let b = Schedule.entity_bucket s (Schedule.entity_at s p) in
    for i = Schedule.entity_rank s p + 1 to Array.length b - 1 do
      let q = b.(i) in
      if keep (Schedule.step s p) (Schedule.step s q) then
        Mvcc_graph.Digraph.add_edge g (Schedule.step s p).txn
          (Schedule.step s q).txn
    done
  done;
  g

let graph s = sweep_graph conflicts_same_entity s
let mv_graph s = sweep_graph mv_conflicts_same_entity s

let compare_arc (u1, v1, e1) (u2, v2, e2) =
  let c = Int.compare u1 u2 in
  if c <> 0 then c
  else
    let c = Int.compare v1 v2 in
    if c <> 0 then c else String.compare e1 e2

let mv_arcs s =
  mv_conflicting_pairs s
  |> List.map (fun (p, q) ->
         let a = Schedule.step s p and b = Schedule.step s q in
         (a.txn, b.txn, a.entity))
  |> List.sort_uniq compare_arc

let compare_edge (u1, v1) (u2, v2) =
  let c = Int.compare u1 u2 in
  if c <> 0 then c else Int.compare v1 v2

let pp_graph ppf g =
  let es = List.sort compare_edge (Mvcc_graph.Digraph.edges g) in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (u, v) -> Format.fprintf ppf "T%d->T%d" (u + 1) (v + 1)))
    es
