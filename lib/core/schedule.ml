(* The interned core. Every schedule carries, besides its step array, a
   compact index computed once at construction:

   - a per-schedule symbol table interning entity names to dense ids in
     first-appearance order (strings survive only in [Step.t] and at the
     parse/print edges);
   - per-entity step buckets: the positions touching each entity, in
     schedule order, plus each position's rank within its bucket — the
     substrate of the bucketed conflict/MV-conflict/read-from sweeps;
   - per-transaction position arrays.

   Construction is O(length + entities), the same order as the array
   copy every constructor already performs. *)

type index = {
  n_entities : int;
  entity_tbl : (string, int) Hashtbl.t; (* name -> id *)
  entity_names : string array; (* id -> name, first-appearance order *)
  ent : int array; (* position -> entity id *)
  bucket : int array array; (* entity id -> positions, ascending *)
  rank : int array; (* position -> index within its bucket *)
  txn_pos : int array array; (* txn -> positions, ascending *)
}

type t = { n_txns : int; steps : Step.t array; index : index }

(* The bucket, rank and transaction-position arrays, from the
   position -> entity id map both builders below produce. *)
let finish_index n_txns (steps : Step.t array) ent entity_names entity_tbl =
  let n = Array.length steps in
  let k = Array.length entity_names in
  let bucket_len = Array.make k 0 in
  for p = 0 to n - 1 do
    bucket_len.(ent.(p)) <- bucket_len.(ent.(p)) + 1
  done;
  let bucket = Array.init k (fun e -> Array.make bucket_len.(e) 0) in
  let rank = Array.make n 0 in
  let fill = Array.make k 0 in
  for p = 0 to n - 1 do
    let e = ent.(p) in
    bucket.(e).(fill.(e)) <- p;
    rank.(p) <- fill.(e);
    fill.(e) <- fill.(e) + 1
  done;
  let txn_len = Array.make n_txns 0 in
  for p = 0 to n - 1 do
    txn_len.(steps.(p).txn) <- txn_len.(steps.(p).txn) + 1
  done;
  let txn_pos = Array.init n_txns (fun i -> Array.make txn_len.(i) 0) in
  let tfill = Array.make n_txns 0 in
  for p = 0 to n - 1 do
    let i = steps.(p).txn in
    txn_pos.(i).(tfill.(i)) <- p;
    tfill.(i) <- tfill.(i) + 1
  done;
  { n_entities = k; entity_tbl; entity_names; ent; bucket; rank; txn_pos }

let index_of n_txns (steps : Step.t array) =
  let n = Array.length steps in
  let entity_tbl = Hashtbl.create (max 8 (n / 2)) in
  let rev_names = ref [] in
  let n_entities = ref 0 in
  let ent = Array.make n 0 in
  for p = 0 to n - 1 do
    let e = steps.(p).entity in
    let id =
      match Hashtbl.find_opt entity_tbl e with
      | Some id -> id
      | None ->
          let id = !n_entities in
          incr n_entities;
          Hashtbl.replace entity_tbl e id;
          rev_names := e :: !rev_names;
          id
    in
    ent.(p) <- id
  done;
  let k = !n_entities in
  let entity_names = Array.make k "" in
  List.iteri
    (fun i e -> entity_names.(k - 1 - i) <- e)
    !rev_names;
  finish_index n_txns steps ent entity_names entity_tbl

(* Every construction site funnels here so the index always exists. The
   array is owned by the new schedule (not copied). *)
let make n_txns steps = { n_txns; steps; index = index_of n_txns steps }

let of_steps ?n_txns steps =
  let max_txn =
    List.fold_left (fun acc (s : Step.t) -> max acc s.txn) (-1) steps
  in
  let n = Option.value n_txns ~default:(max_txn + 1) in
  List.iter
    (fun (s : Step.t) ->
      if s.txn < 0 || s.txn >= n then
        invalid_arg "Schedule.of_steps: transaction index out of range")
    steps;
  make n (Array.of_list steps)

(* A derived schedule's steps all carry entities of its parent, so its
   index renumbers the parent's ids (first appearance in the new order)
   with an int array and hashes only the names of the new table. *)
let derive parent ~n_txns steps old_ids =
  let n = Array.length steps in
  if Array.length old_ids <> n then
    invalid_arg "Schedule.derive: one parent id per step";
  Array.iter
    (fun (st : Step.t) ->
      if st.txn < 0 || st.txn >= n_txns then
        invalid_arg "Schedule.derive: transaction index out of range")
    steps;
  let remap = Array.make parent.index.n_entities (-1) in
  let k = ref 0 in
  let ent =
    Array.map
      (fun old_e ->
        if remap.(old_e) < 0 then begin
          remap.(old_e) <- !k;
          incr k
        end;
        remap.(old_e))
      old_ids
  in
  let entity_names = Array.make !k "" in
  let entity_tbl = Hashtbl.create (max 8 !k) in
  Array.iteri
    (fun old_e e ->
      if e >= 0 then begin
        entity_names.(e) <- parent.index.entity_names.(old_e);
        Hashtbl.replace entity_tbl entity_names.(e) e
      end)
    remap;
  let index = finish_index n_txns steps ent entity_names entity_tbl in
  { n_txns; steps; index }

let steps s = Array.copy s.steps
let step s p = s.steps.(p)
let length s = Array.length s.steps
let n_txns s = s.n_txns

(* -- the interned view -- *)

let n_entities s = s.index.n_entities
let entity_name s e = s.index.entity_names.(e)
let entity_index s name = Hashtbl.find_opt s.index.entity_tbl name
let entity_at s p = s.index.ent.(p)
let entity_bucket s e = s.index.bucket.(e)
let entity_rank s p = s.index.rank.(p)
let txn_positions_arr s i = s.index.txn_pos.(i)

let entities s =
  Array.to_list s.index.entity_names |> List.sort String.compare

let sorted_entity_ids s =
  let ids = Array.init s.index.n_entities Fun.id in
  Array.sort
    (fun a b ->
      String.compare s.index.entity_names.(a) s.index.entity_names.(b))
    ids;
  ids

let txn_program s i =
  Array.to_list (Array.map (fun p -> s.steps.(p)) s.index.txn_pos.(i))

let txn_positions s i = Array.to_list s.index.txn_pos.(i)

let same_system s1 s2 =
  s1.n_txns = s2.n_txns
  &&
  let rec loop i =
    i >= s1.n_txns
    || (List.equal Step.equal (txn_program s1 i) (txn_program s2 i)
       && loop (i + 1))
  in
  loop 0

let is_serial s =
  (* Each transaction's steps occupy a contiguous block. *)
  let seen_done = Hashtbl.create 8 in
  let current = ref (-1) in
  Array.for_all
    (fun (st : Step.t) ->
      if st.txn = !current then true
      else if Hashtbl.mem seen_done st.txn then false
      else begin
        if !current >= 0 then Hashtbl.replace seen_done !current ();
        current := st.txn;
        true
      end)
    s.steps

let serial_order s =
  if not (is_serial s) then None
  else begin
    let order = ref [] in
    Array.iter
      (fun (st : Step.t) ->
        match !order with
        | t :: _ when t = st.txn -> ()
        | _ -> order := st.txn :: !order)
      s.steps;
    Some (List.rev !order)
  end

let is_permutation n order =
  List.sort Int.compare order = List.init n Fun.id

(* A serialization is derived from its parent: no string hashing per
   step and no per-transaction lists, which matters because factorial
   searches (FSR, the naive oracles) construct one serialization per
   permutation. *)
let serialization s order =
  if not (is_permutation s.n_txns order) then
    invalid_arg "Schedule.serialization: not a permutation";
  let n = Array.length s.steps in
  if n = 0 then make s.n_txns [||]
  else begin
    let steps = Array.make n s.steps.(0) in
    let old_ids = Array.make n 0 in
    let p = ref 0 in
    List.iter
      (fun i ->
        Array.iter
          (fun q ->
            steps.(!p) <- s.steps.(q);
            old_ids.(!p) <- s.index.ent.(q);
            incr p)
          s.index.txn_pos.(i))
      order;
    derive s ~n_txns:s.n_txns steps old_ids
  end

let append s (st : Step.t) =
  if st.txn < 0 then
    invalid_arg "Schedule.append: negative transaction index";
  let n = Array.length s.steps in
  let steps = Array.make (n + 1) st in
  Array.blit s.steps 0 steps 0 n;
  make (max s.n_txns (st.txn + 1)) steps

let prefix s k =
  if k < 0 || k > length s then invalid_arg "Schedule.prefix";
  make s.n_txns (Array.sub s.steps 0 k)

let is_prefix p ~of_ =
  length p <= length of_
  && p.n_txns = of_.n_txns
  &&
  let rec loop i =
    i >= length p || (Step.equal p.steps.(i) of_.steps.(i) && loop (i + 1))
  in
  loop 0

let swap_adjacent s p =
  if p < 0 || p + 1 >= length s then invalid_arg "Schedule.swap_adjacent";
  if s.steps.(p).txn = s.steps.(p + 1).txn then
    invalid_arg "Schedule.swap_adjacent: steps of the same transaction";
  let a = Array.copy s.steps in
  let tmp = a.(p) in
  a.(p) <- a.(p + 1);
  a.(p + 1) <- tmp;
  make s.n_txns a

let interleavings programs =
  let progs = Array.of_list (List.map steps programs) in
  let n = Array.length progs in
  (* Re-tag transaction ids by list position so callers can pass programs
     built with any ids. *)
  let retag i (st : Step.t) = { st with txn = i } in
  let total = Array.fold_left (fun acc p -> acc + Array.length p) 0 progs in
  let rec gen idx acc len : t Seq.t =
    if len = total then
      Seq.return (make n (Array.of_list (List.rev acc)))
    else
      let branch i : t Seq.t =
        if idx.(i) >= Array.length progs.(i) then Seq.empty
        else
          fun () ->
            let idx' = Array.copy idx in
            idx'.(i) <- idx.(i) + 1;
            gen idx' (retag i progs.(i).(idx.(i)) :: acc) (len + 1) ()
      in
      Seq.concat (Seq.map branch (Seq.init n Fun.id))
  in
  gen (Array.make n 0) [] 0

let all_serializations s =
  let rec perms = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
          l
  in
  List.map (serialization s) (perms (List.init s.n_txns Fun.id))

let equal s1 s2 =
  s1.n_txns = s2.n_txns
  && Array.length s1.steps = Array.length s2.steps
  && Array.for_all2 Step.equal s1.steps s2.steps

(* Hashtbl.hash on the whole value would stop after its default
   meaningful-node budget and collapse long schedules onto a handful of
   buckets, so fold over every step explicitly. *)
let hash s =
  let combine h x = (h * 31) + x land max_int in
  Array.fold_left
    (fun h (st : Step.t) ->
      combine h (Hashtbl.hash (st.txn, st.action, st.entity)))
    (combine (Hashtbl.hash s.n_txns) (Array.length s.steps))
    s.steps
  land max_int

let pp ppf s =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
    Step.pp ppf
    (Array.to_list s.steps)

let to_string s = Format.asprintf "%a" pp s

let pp_grid ppf s =
  let width = 8 in
  for i = 0 to s.n_txns - 1 do
    Format.fprintf ppf "T%-3d:" (i + 1);
    Array.iter
      (fun (st : Step.t) ->
        let cell = if st.txn = i then Step.to_string st else "" in
        Format.fprintf ppf " %-*s" width cell)
      s.steps;
    if i < s.n_txns - 1 then Format.pp_print_newline ppf ()
  done

(* Parser for "R1(x) W2(y)" notation. *)
let of_string text =
  let n = String.length text in
  let steps = ref [] in
  let pos = ref 0 in
  let fail msg = invalid_arg (Printf.sprintf "Schedule.of_string: %s" msg) in
  let skip_seps () =
    while
      !pos < n
      && (match text.[!pos] with
         | ' ' | '\t' | '\n' | '\r' | ',' | ';' -> true
         | _ -> false)
    do
      incr pos
    done
  in
  let parse_int () =
    let start = !pos in
    while !pos < n && text.[!pos] >= '0' && text.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then fail "expected transaction number";
    int_of_string (String.sub text start (!pos - start))
  in
  let parse_entity () =
    if !pos >= n || text.[!pos] <> '(' then fail "expected '('";
    incr pos;
    let start = !pos in
    while !pos < n && text.[!pos] <> ')' do
      incr pos
    done;
    if !pos >= n then fail "expected ')'";
    let e = String.sub text start (!pos - start) in
    incr pos;
    if e = "" then fail "empty entity name";
    e
  in
  skip_seps ();
  while !pos < n do
    let action =
      match text.[!pos] with
      | 'R' | 'r' -> Step.Read
      | 'W' | 'w' -> Step.Write
      | c -> fail (Printf.sprintf "unexpected character %C" c)
    in
    incr pos;
    let txn = parse_int () in
    if txn < 1 then fail "transaction numbers are 1-based";
    let entity = parse_entity () in
    steps := { Step.txn = txn - 1; action; entity } :: !steps;
    skip_seps ()
  done;
  of_steps (List.rev !steps)
