module Int_map = Map.Make (Int)

type source = Initial | From of int
type t = source Int_map.t

let source_equal a b =
  match (a, b) with
  | Initial, Initial -> true
  | From p, From q -> p = q
  | Initial, From _ | From _, Initial -> false

let empty = Int_map.empty
let add pos src v = Int_map.add pos src v
let get v pos = Int_map.find_opt pos v
let domain v = Int_map.bindings v |> List.map fst
let of_list l = List.fold_left (fun v (p, s) -> add p s v) empty l
let to_list v = Int_map.bindings v

(* Reference oracle: a string-keyed last-write table. *)
let standard_ref s =
  let last_write = Hashtbl.create 8 in
  let v = ref empty in
  Array.iteri
    (fun pos (st : Step.t) ->
      match st.action with
      | Step.Write -> Hashtbl.replace last_write st.entity pos
      | Step.Read ->
          let src =
            match Hashtbl.find_opt last_write st.entity with
            | Some p -> From p
            | None -> Initial
          in
          v := add pos src !v)
    (Schedule.steps s);
  !v

(* One pass over the interned view: the last write per dense entity id
   lives in a flat array, no string ever hashed. *)
let standard s =
  let n = Schedule.length s in
  let last_write = Array.make (max 1 (Schedule.n_entities s)) (-1) in
  let v = ref empty in
  for pos = 0 to n - 1 do
    let e = Schedule.entity_at s pos in
    if Step.is_write (Schedule.step s pos) then last_write.(e) <- pos
    else
      let src =
        if last_write.(e) >= 0 then From last_write.(e) else Initial
      in
      v := add pos src !v
  done;
  !v

let legal s v =
  let n = Schedule.length s in
  Int_map.for_all
    (fun pos src ->
      pos >= 0 && pos < n
      && Step.is_read (Schedule.step s pos)
      &&
      match src with
      | Initial -> true
      | From p ->
          p >= 0 && p < pos
          && Step.is_write (Schedule.step s p)
          && Schedule.entity_at s p = Schedule.entity_at s pos)
    v

let total s v =
  let ok = ref true in
  Array.iteri
    (fun pos (st : Step.t) ->
      if Step.is_read st && not (Int_map.mem pos v) then ok := false)
    (Schedule.steps s);
  !ok

let choices s pos =
  let st = Schedule.step s pos in
  if not (Step.is_read st) then invalid_arg "Version_fn.choices: not a read";
  (* The earlier writes of the read's entity are exactly the write
     positions in its bucket prefix, already in ascending order. *)
  let b = Schedule.entity_bucket s (Schedule.entity_at s pos) in
  let writes = ref [] in
  for i = Schedule.entity_rank s pos - 1 downto 0 do
    if Step.is_write (Schedule.step s b.(i)) then
      writes := From b.(i) :: !writes
  done;
  Initial :: !writes

let enumerate ?(fixed = empty) s =
  let read_positions =
    Array.to_list (Schedule.steps s)
    |> List.mapi (fun pos st -> (pos, st))
    |> List.filter_map (fun (pos, st) ->
           if Step.is_read st then Some pos else None)
  in
  let rec gen acc = function
    | [] -> Seq.return acc
    | pos :: rest -> begin
        match Int_map.find_opt pos fixed with
        | Some src -> gen (add pos src acc) rest
        | None ->
            Seq.concat_map
              (fun src -> gen (add pos src acc) rest)
              (List.to_seq (choices s pos))
      end
  in
  gen empty read_positions

let extends v ~base =
  Int_map.for_all
    (fun pos src ->
      match get v pos with Some s -> source_equal s src | None -> false)
    base

let restrict v ~upto = Int_map.filter (fun pos _ -> pos < upto) v
let equal = Int_map.equal source_equal

let pp s ppf v =
  let pp_binding ppf (pos, src) =
    match src with
    | Initial -> Format.fprintf ppf "%a <- T0" Step.pp (Schedule.step s pos)
    | From p ->
        Format.fprintf ppf "%a <- %a@@%d" Step.pp (Schedule.step s pos)
          Step.pp (Schedule.step s p) p
  in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
    pp_binding ppf (to_list v)
