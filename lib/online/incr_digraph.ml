(* A growable digraph that is acyclic by construction: every edge
   insertion is certified against a dynamic topological order before it
   lands (Pearce & Kelly, "A dynamic topological sort algorithm for
   directed acyclic graphs", JEA 2006).

   The order is [ord] : node -> index, a permutation of [0 .. n-1] with
   [ord u < ord v] for every edge [u -> v]. Inserting [u -> v]:

   - [ord u < ord v]: the order already witnesses acyclicity; insert.
   - [ord v < ord u]: the "affected region" is the order interval
     [ord v .. ord u]. A forward DFS from [v] bounded above by [ord u]
     collects delta_f (nodes that must move after [u]); meeting [u]
     itself proves [v] reaches [u], i.e. the edge closes a cycle — we
     raise before any mutation, so a rejected insertion leaves the
     structure untouched. A backward DFS from [u] bounded below by
     [ord v] collects delta_b. Reassigning the union's order slots —
     delta_b first, then delta_f, each in relative order — restores the
     invariant while touching only the affected region: amortized far
     below the full-graph DFS the batch path pays.

   Edge deletion never invalidates a topological order, so [remove_edge]
   is O(1) and a caller can roll back a batch of insertions by removing
   exactly the edges that were new — the basis of the streaming
   maintainers' step rollback.

   Adjacency rows are bitsets over node ids, so a row is iterated in
   ascending node order. The two DFS mark their visits with a fresh
   generation in [mark] instead of allocating a visited set. *)

type t = {
  mutable n : int; (* nodes are 0 .. n-1 *)
  mutable succ : Bitset.t array; (* length = capacity >= n *)
  mutable pred : Bitset.t array;
  mutable ord : int array; (* node -> index in the topological order *)
  mutable mark : int array; (* node -> generation of its last DFS visit *)
  mutable gen : int;
  mutable m : int;
  (* cumulative cost/rollback accounting, read by the observability
     layer as deltas around each operation *)
  mutable moves : int; (* order slots reassigned by reorders *)
  mutable rollbacks : int; (* rejected add_edges batches *)
  mutable rolled_back : int; (* arcs removed by those rollbacks *)
  mutable last_rejection : (int * int) list option;
      (* the cycle the most recently rejected insertion would have
         closed, captured before any rollback removes batch arcs *)
}

let create ?(capacity = 8) () =
  let capacity = max capacity 1 in
  {
    n = 0;
    succ = Array.init capacity (fun _ -> Bitset.create ());
    pred = Array.init capacity (fun _ -> Bitset.create ());
    ord = Array.make capacity 0;
    mark = Array.make capacity 0;
    gen = 0;
    m = 0;
    moves = 0;
    rollbacks = 0;
    rolled_back = 0;
    last_rejection = None;
  }

let n_nodes g = g.n
let n_edges g = g.m
let reorder_moves g = g.moves
let rollbacks g = g.rollbacks
let rolled_back_arcs g = g.rolled_back

let ensure_node g u =
  if u < 0 then invalid_arg "Incr_digraph: negative node";
  let cap = Array.length g.ord in
  if u >= cap then begin
    let cap' = max (u + 1) (2 * cap) in
    let extend a fresh =
      Array.init cap' (fun i -> if i < cap then a.(i) else fresh ())
    in
    g.succ <- extend g.succ Bitset.create;
    g.pred <- extend g.pred Bitset.create;
    g.ord <- extend g.ord (fun () -> 0);
    g.mark <- extend g.mark (fun () -> 0)
  end;
  (* new nodes are edgeless, so appending them at the end of the order
     preserves the invariant *)
  while g.n <= u do
    g.ord.(g.n) <- g.n;
    g.n <- g.n + 1
  done

let check g u =
  if u < 0 || u >= g.n then invalid_arg "Incr_digraph: node out of range"

let mem_edge g u v =
  check g u;
  check g v;
  Bitset.mem g.succ.(u) v

let order g u =
  check g u;
  g.ord.(u)

exception Cycle_found

(* The nodes a DFS from [start] along [adj] visits, entering a neighbour
   only when [enter] admits its order index; each call marks its visits
   with a fresh generation. [enter] may raise to abandon the search. *)
let dfs g adj start enter =
  g.gen <- g.gen + 1;
  let gen = g.gen in
  let seen = ref [] in
  let rec visit w =
    g.mark.(w) <- gen;
    seen := w :: !seen;
    Bitset.iter
      (fun x -> if enter g.ord.(x) && g.mark.(x) <> gen then visit x)
      adj.(w)
  in
  visit start;
  !seen

(* Nodes reachable from [start] via successors with order index < [ub];
   touching the node at index [ub] itself (the new edge's source) proves
   the cycle. Raises before any mutation. *)
let forward g start ub =
  dfs g g.succ start (fun o ->
      if o = ub then raise Cycle_found;
      o < ub)

(* Nodes reaching [start] via predecessors with order index > [lb]. *)
let backward g start lb = dfs g g.pred start (fun o -> o > lb)

(* Reassign the affected nodes' order slots: delta_b (they keep preceding
   the new edge's source) first, then delta_f, each in current relative
   order, into the sorted pool of slots they jointly occupied. *)
let reorder g delta_b delta_f =
  let by_ord = List.sort (fun a b -> Int.compare g.ord.(a) g.ord.(b)) in
  let l = by_ord delta_b @ by_ord delta_f in
  let slots = List.sort Int.compare (List.map (fun w -> g.ord.(w)) l) in
  g.moves <- g.moves + List.length l;
  List.iter2 (fun w slot -> g.ord.(w) <- slot) l slots

(* Shortest path src -> dst through the current successor sets (BFS),
   as an arc list. Only called when the path is known to exist: on a
   rejected insertion u -> v, the forward DFS has just proved v reaches
   u, and the graph has not been mutated. *)
let path_arcs g src dst =
  let parent = Hashtbl.create 8 in
  let q = Queue.create () in
  Hashtbl.replace parent src src;
  Queue.add src q;
  (try
     while not (Queue.is_empty q) do
       let w = Queue.pop q in
       Bitset.iter
         (fun x ->
           if not (Hashtbl.mem parent x) then begin
             Hashtbl.replace parent x w;
             if x = dst then raise Exit;
             Queue.add x q
           end)
         g.succ.(w)
     done
   with Exit -> ());
  let rec back x acc =
    if x = src then acc
    else
      let p = Hashtbl.find parent x in
      back p ((p, x) :: acc)
  in
  back dst []

let rejection_cycle g = g.last_rejection

let add_edge g u v =
  ensure_node g u;
  ensure_node g v;
  if u = v then begin
    g.last_rejection <- Some [ (u, v) ];
    false
  end
  else if Bitset.mem g.succ.(u) v then true
  else begin
    let ok =
      g.ord.(u) < g.ord.(v)
      ||
      match forward g v g.ord.(u) with
      | delta_f ->
          reorder g (backward g u g.ord.(v)) delta_f;
          true
      | exception Cycle_found ->
          (* capture the witness while the graph still holds every arc
             the cycle runs through *)
          g.last_rejection <- Some ((u, v) :: path_arcs g v u);
          false
    in
    if ok then begin
      Bitset.add g.succ.(u) v;
      Bitset.add g.pred.(v) u;
      g.m <- g.m + 1
    end;
    ok
  end

let add_edges g arcs =
  let added = ref [] in
  let ok =
    List.for_all
      (fun (u, v) ->
        ensure_node g u;
        ensure_node g v;
        if Bitset.mem g.succ.(u) v then true
        else if add_edge g u v then begin
          added := (u, v) :: !added;
          true
        end
        else false)
      arcs
  in
  if not ok then begin
    (* deletion keeps the order valid, so removing exactly the edges
       that were new restores the pre-call structure *)
    g.rollbacks <- g.rollbacks + 1;
    g.rolled_back <- g.rolled_back + List.length !added;
    List.iter
      (fun (u, v) ->
        Bitset.remove g.succ.(u) v;
        Bitset.remove g.pred.(v) u;
        g.m <- g.m - 1)
      !added
  end;
  ok

let remove_edge g u v =
  check g u;
  check g v;
  if Bitset.mem g.succ.(u) v then begin
    Bitset.remove g.succ.(u) v;
    Bitset.remove g.pred.(v) u;
    g.m <- g.m - 1
  end

(* the graph has no self-loops, so no arc is counted twice *)
let remove_incident g u =
  check g u;
  Bitset.iter
    (fun v ->
      Bitset.remove g.pred.(v) u;
      g.m <- g.m - 1)
    g.succ.(u);
  Bitset.iter
    (fun w ->
      Bitset.remove g.succ.(w) u;
      g.m <- g.m - 1)
    g.pred.(u);
  Bitset.clear g.succ.(u);
  Bitset.clear g.pred.(u)

let iter_edges f g =
  for u = 0 to g.n - 1 do
    Bitset.iter (fun v -> f u v) g.succ.(u)
  done

let to_digraph g =
  let d = Mvcc_graph.Digraph.create g.n in
  iter_edges (Mvcc_graph.Digraph.add_edge d) g;
  d

let topological_order g =
  let nodes = List.init g.n Fun.id in
  List.sort (fun a b -> Int.compare g.ord.(a) g.ord.(b)) nodes
