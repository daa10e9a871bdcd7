let t0 = 0
let tf s = Schedule.n_txns s - 1

let original_txn i =
  if i <= 0 then invalid_arg "Padding.original_txn: T0 has no original";
  i - 1

let padded_txn i = i + 1

(* Derived from [s]'s index: the head and tail walk the entity ids in
   name order, the body keeps each step's id. *)
let pad s =
  let n = Schedule.n_txns s in
  let len = Schedule.length s in
  let ids = Schedule.sorted_entity_ids s in
  let k = Array.length ids in
  let total = k + len + k in
  let steps = Array.make total (Step.write 0 "") in
  let old_ids = Array.make total 0 in
  Array.iteri
    (fun j e ->
      let name = Schedule.entity_name s e in
      steps.(j) <- Step.write 0 name;
      old_ids.(j) <- e;
      steps.(k + len + j) <- Step.read (n + 1) name;
      old_ids.(k + len + j) <- e)
    ids;
  for p = 0 to len - 1 do
    let st = Schedule.step s p in
    steps.(k + p) <- { st with txn = st.txn + 1 };
    old_ids.(k + p) <- Schedule.entity_at s p
  done;
  Schedule.derive s ~n_txns:(n + 2) steps old_ids

let unpad s =
  let n = Schedule.n_txns s in
  if n < 2 then invalid_arg "Padding.unpad: too few transactions";
  (* Validate shape: transaction 0 only writes, transaction n-1 only reads. *)
  Array.iter
    (fun (st : Step.t) ->
      if st.txn = 0 && not (Step.is_write st) then
        invalid_arg "Padding.unpad: T0 must only write";
      if st.txn = n - 1 && not (Step.is_read st) then
        invalid_arg "Padding.unpad: Tf must only read")
    (Schedule.steps s);
  let body =
    Array.to_list (Schedule.steps s)
    |> List.filter (fun (st : Step.t) -> st.txn <> 0 && st.txn <> n - 1)
    |> List.map (fun (st : Step.t) -> { st with txn = st.txn - 1 })
  in
  Schedule.of_steps ~n_txns:(n - 2) body
