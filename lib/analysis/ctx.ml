open Mvcc_core
module Digraph = Mvcc_graph.Digraph
module Cycle = Mvcc_graph.Cycle
module Topo = Mvcc_graph.Topo
module Acyclicity = Mvcc_polygraph.Acyclicity

(* Universal values: each key injects into / projects out of [exn], the
   classic extensible-variant trick, so one table can hold caches of any
   type. Key identity is an integer drawn from an atomic counter (keys
   are usually created at module-initialization time, but drawing them
   atomically keeps creation safe from any domain). *)
type univ = exn

type 'a key = {
  uid : int;
  name : string;
  inj : 'a -> univ;
  proj : univ -> 'a option;
}

let next_uid = Atomic.make 0

let key (type a) name : a key =
  let module M = struct
    exception E of a
  end in
  {
    uid = Atomic.fetch_and_add next_uid 1;
    name;
    inj = (fun x -> M.E x);
    proj = (function M.E x -> Some x | _ -> None);
  }

type t = {
  schedule : Schedule.t;
  table : (int, univ) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
}

let make schedule =
  { schedule; table = Hashtbl.create 32; counts = Hashtbl.create 32 }

let schedule t = t.schedule
let builds t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0

let build_counts t =
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) t.counts []
  |> List.sort compare

let memo t k f =
  match Hashtbl.find_opt t.table k.uid with
  | Some u -> (
      match k.proj u with Some v -> v | None -> assert false)
  | None ->
      let v = f t in
      Hashtbl.replace t.table k.uid (k.inj v);
      Hashtbl.replace t.counts k.name (1 + builds t k.name);
      v

(* -- the built-in caches -- *)

let is_serial_key : bool key = key "is_serial"
let is_serial t = memo t is_serial_key (fun t -> Schedule.is_serial t.schedule)

let conflict_graph_key : Digraph.t key = key "conflict_graph"

let conflict_graph t =
  memo t conflict_graph_key (fun t -> Conflict.graph t.schedule)

let mv_graph_key : Digraph.t key = key "mv_graph"
let mv_graph t = memo t mv_graph_key (fun t -> Conflict.mv_graph t.schedule)

(* The eight kind-restricted conflict graphs of the Ibaraki-Kameda
   lattice, keyed by the (ww, wr, rw) bitmask. The full subset is the
   conflict graph and {rw} is MVCG; both alias the dedicated caches so
   every consumer shares one construction. *)
let mask ~ww ~wr ~rw =
  (if ww then 1 else 0) lor (if wr then 2 else 0) lor (if rw then 4 else 0)

let kind_graph_keys : Digraph.t key array =
  Array.init 8 (fun m -> key (Printf.sprintf "kind_graph:%d" m))

(* Entity equality is implied inside a bucket, so the sweep only
   inspects the action pair. *)
let kind_selected_same_entity ~ww ~wr ~rw (a : Step.t) (b : Step.t) =
  a.txn <> b.txn
  &&
  match (a.action, b.action) with
  | Step.Write, Step.Write -> ww
  | Step.Write, Step.Read -> wr
  | Step.Read, Step.Write -> rw
  | Step.Read, Step.Read -> false

let kind_graph t ~ww ~wr ~rw =
  if ww && wr && rw then conflict_graph t
  else if rw && (not ww) && not wr then mv_graph t
  else
    memo t kind_graph_keys.(mask ~ww ~wr ~rw) (fun t ->
        let s = t.schedule in
        let steps = Schedule.steps s in
        let n = Array.length steps in
        let g = Digraph.create (Schedule.n_txns s) in
        (* per-entity bucket sweep, edges in (p, q) order *)
        for p = 0 to n - 1 do
          let b = Schedule.entity_bucket s (Schedule.entity_at s p) in
          for i = Schedule.entity_rank s p + 1 to Array.length b - 1 do
            let q = b.(i) in
            if kind_selected_same_entity ~ww ~wr ~rw steps.(p) steps.(q) then
              Digraph.add_edge g steps.(p).txn steps.(q).txn
          done
        done;
        g)

let conflict_topo_key : int list option key = key "conflict_topo"

let conflict_topo t =
  memo t conflict_topo_key (fun t -> Topo.sort (conflict_graph t))

let mv_topo_key : int list option key = key "mv_topo"
let mv_topo t = memo t mv_topo_key (fun t -> Topo.sort (mv_graph t))

let conflict_cycle_key : int list option key = key "conflict_cycle"

let conflict_cycle t =
  memo t conflict_cycle_key (fun t -> Cycle.find_cycle (conflict_graph t))

let mv_cycle_key : int list option key = key "mv_cycle"
let mv_cycle t = memo t mv_cycle_key (fun t -> Cycle.find_cycle (mv_graph t))

let conflict_shortest_cycle_key : (int * int) list option key =
  key "conflict_shortest_cycle"

let conflict_shortest_cycle t =
  memo t conflict_shortest_cycle_key (fun t ->
      Cycle.shortest_cycle (conflict_graph t))

let mv_shortest_cycle_key : (int * int) list option key =
  key "mv_shortest_cycle"

let mv_shortest_cycle t =
  memo t mv_shortest_cycle_key (fun t -> Cycle.shortest_cycle (mv_graph t))

let final_writers_key : (string * Read_from.writer) list key =
  key "final_writers"

let final_writers t =
  memo t final_writers_key (fun t -> Read_from.final_writers t.schedule)

let live_read_froms_key : Read_from.triple list key = key "live_read_froms"

let live_read_froms t =
  memo t live_read_froms_key (fun t -> Liveness.live_read_froms t.schedule)

let polygraph_key : Mvcc_polygraph.Polygraph.t key = key "polygraph"

let polygraph t =
  memo t polygraph_key (fun t -> Vsr_polygraph.of_schedule t.schedule)

let polygraph_solution_key : (Digraph.t option * Acyclicity.stats) key =
  key "polygraph_solution"

let polygraph_solution t =
  memo t polygraph_solution_key (fun t ->
      Acyclicity.solve_stats (polygraph t))

(* -- context caching across schedules -- *)

module Table = Hashtbl.Make (struct
  type t = Schedule.t

  let equal = Schedule.equal
  let hash = Schedule.hash
end)

let cache () =
  let table = Table.create 64 in
  fun s ->
    match Table.find_opt table s with
    | Some t -> t
    | None ->
        let t = make s in
        Table.add table s t;
        t
