module Digraph = Mvcc_graph.Digraph
module Cycle = Mvcc_graph.Cycle

type choice = { j : int; k : int; i : int }
type t = { n : int; arcs : (int * int) list; choices : choice list }

let compare_arc (u1, v1) (u2, v2) =
  let c = Int.compare u1 u2 in
  if c <> 0 then c else Int.compare v1 v2

let make ~n ~arcs ~choices =
  let check v =
    if v < 0 || v >= n then invalid_arg "Polygraph.make: node out of range"
  in
  let arcs = List.sort_uniq compare_arc arcs in
  List.iter
    (fun (u, v) ->
      check u;
      check v)
    arcs;
  (* every node is in range by now, so a negative [n] has no arcs *)
  let g = Digraph.of_edges (max n 0) arcs in
  List.iter
    (fun { j; k; i } ->
      check i;
      check j;
      check k;
      if not (Digraph.mem_edge g i j) then
        invalid_arg "Polygraph.make: choice (j,k,i) without arc (i,j)")
    choices;
  { n; arcs; choices }

let arc_graph t = Digraph.of_edges t.n t.arcs

let is_compatible t g =
  Digraph.n_nodes g >= t.n
  && List.for_all (fun (u, v) -> Digraph.mem_edge g u v) t.arcs
  && List.for_all
       (fun { j; k; i } -> Digraph.mem_edge g j k || Digraph.mem_edge g k i)
       t.choices

let assumption_a t =
  List.for_all
    (fun (i, j) -> List.exists (fun c -> c.j = j && c.i = i) t.choices)
    t.arcs

let assumption_b t =
  let g = Digraph.create t.n in
  List.iter (fun c -> Digraph.add_edge g c.j c.k) t.choices;
  Cycle.is_acyclic g

let assumption_c t = Cycle.is_acyclic (arc_graph t)

let choice_disjoint t =
  let seen = Hashtbl.create 16 in
  List.for_all
    (fun { j; k; i } ->
      List.for_all
        (fun v ->
          if Hashtbl.mem seen v then false
          else begin
            Hashtbl.replace seen v ();
            true
          end)
        [ i; j; k ])
    t.choices

let normalize t =
  let missing =
    List.filter
      (fun (i, j) -> not (List.exists (fun c -> c.j = j && c.i = i) t.choices))
      t.arcs
  in
  let fresh = ref t.n in
  let extra =
    List.map
      (fun (i, j) ->
        let k = !fresh in
        incr fresh;
        { j; k; i })
      missing
  in
  { n = !fresh; arcs = t.arcs; choices = t.choices @ extra }

let pp ppf t =
  Format.fprintf ppf "polygraph(n=%d;@ arcs=%a;@ choices=%a)" t.n
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       (fun ppf (u, v) -> Format.fprintf ppf "%d->%d" u v))
    t.arcs
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       (fun ppf { j; k; i } -> Format.fprintf ppf "(%d,%d,%d)" j k i))
    t.choices
