type writer = T0 | T of int

let pp_writer ppf = function
  | T0 -> Format.pp_print_string ppf "T0"
  | T i -> Format.fprintf ppf "T%d" (i + 1)

(* Monomorphic writer order matching Stdlib.compare: the immediate [T0]
   sorts below every [T _] block. *)
let compare_writer w1 w2 =
  match (w1, w2) with
  | T0, T0 -> 0
  | T0, T _ -> -1
  | T _, T0 -> 1
  | T i, T j -> Int.compare i j

let equal_writer w1 w2 =
  match (w1, w2) with
  | T0, T0 -> true
  | T i, T j -> i = j
  | T0, T _ | T _, T0 -> false

type triple = { reader : int; entity : string; writer : writer }

let compare_triple t1 t2 =
  let c = Int.compare t1.reader t2.reader in
  if c <> 0 then c
  else
    let c = String.compare t1.entity t2.entity in
    if c <> 0 then c else compare_writer t1.writer t2.writer

let equal_triple t1 t2 =
  t1.reader = t2.reader
  && equal_writer t1.writer t2.writer
  && String.equal t1.entity t2.entity

let equal_relation = List.equal equal_triple

let writer_of_source s = function
  | Version_fn.Initial -> T0
  | Version_fn.From p -> T (Schedule.step s p).txn

let per_step s v =
  if not (Version_fn.legal s v && Version_fn.total s v) then
    invalid_arg "Read_from: version function not total and legal";
  List.map
    (fun (pos, src) -> (pos, writer_of_source s src))
    (Version_fn.to_list v)

let relation s v =
  per_step s v
  |> List.map (fun (pos, w) ->
         { reader = (Schedule.step s pos).txn;
           entity = (Schedule.step s pos).entity;
           writer = w;
         })
  |> List.sort_uniq compare_triple

let std_relation s = relation s (Version_fn.standard s)

let compare_final (e1, w1) (e2, w2) =
  let c = String.compare e1 e2 in
  if c <> 0 then c else compare_writer w1 w2

let equal_finals =
  List.equal (fun (e1, w1) (e2, w2) ->
      String.equal e1 e2 && equal_writer w1 w2)

(* Reference oracle: a string-keyed last-write table probed once per
   sorted entity. *)
let final_writers_ref s =
  let last = Hashtbl.create 8 in
  Array.iter
    (fun (st : Step.t) ->
      if Step.is_write st then Hashtbl.replace last st.entity (T st.txn))
    (Schedule.steps s);
  List.map
    (fun e ->
      match Hashtbl.find_opt last e with
      | Some w -> (e, w)
      | None -> (e, T0))
    (Schedule.entities s)

(* Per entity id, the last write is the last write position in its
   bucket; assemble in ascending name order to match the reference
   output exactly. *)
let final_writers s =
  Array.to_list (Schedule.sorted_entity_ids s)
  |> List.map (fun e ->
         let b = Schedule.entity_bucket s e in
         let w = ref T0 in
         (try
            for i = Array.length b - 1 downto 0 do
              let st = Schedule.step s b.(i) in
              if Step.is_write st then begin
                w := T st.txn;
                raise Exit
              end
            done
          with Exit -> ());
         (Schedule.entity_name s e, !w))

let view s v i =
  relation s v
  |> List.filter_map (fun t ->
         if t.reader = i then Some (t.entity, t.writer) else None)
  |> List.sort_uniq compare_final

let last_write_of s ~txn ~entity =
  match Schedule.entity_index s entity with
  | None -> None
  | Some e ->
      let result = ref None in
      Array.iter
        (fun pos ->
          let st = Schedule.step s pos in
          if st.txn = txn && Step.is_write st then result := Some pos)
        (Schedule.entity_bucket s e);
      !result
