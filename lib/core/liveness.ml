(* Liveness is a backward fixpoint over the dataflow:
   final writes are live; the source write of a live read is live; a read
   is live when a later write of the same transaction is live.

   Both implementations run the same descending sweep to the same least
   fixpoint; the reference oracle rescans the whole suffix of the
   schedule at every step, the interned one consults the per-transaction
   position arrays and a once-built readers-of-write index. *)

let live_positions_std_ref s std =
  let n = Schedule.length s in
  let steps = Schedule.steps s in
  let live = Array.make n false in
  (* final write of each entity *)
  let final = Hashtbl.create 8 in
  Array.iteri
    (fun pos (st : Step.t) ->
      if Step.is_write st then Hashtbl.replace final st.entity pos)
    steps;
  Hashtbl.iter (fun _ pos -> live.(pos) <- true) final;
  let changed = ref true in
  while !changed do
    changed := false;
    for pos = n - 1 downto 0 do
      let st = steps.(pos) in
      match st.action with
      | Step.Read ->
          (* live if a later write of the same transaction is live *)
          if not live.(pos) then begin
            let alive = ref false in
            for q = pos + 1 to n - 1 do
              if steps.(q).txn = st.txn && Step.is_write steps.(q)
                 && live.(q)
              then alive := true
            done;
            if !alive then begin
              live.(pos) <- true;
              changed := true
            end
          end
      | Step.Write ->
          (* live if some live read is served this write *)
          if not live.(pos) then begin
            let feeds = ref false in
            for q = pos + 1 to n - 1 do
              if Step.is_read steps.(q) && live.(q)
                 && Version_fn.get std q = Some (Version_fn.From pos)
              then feeds := true
            done;
            if !feeds then begin
              live.(pos) <- true;
              changed := true
            end
          end
    done
  done;
  live

let live_positions_std s std =
  let n = Schedule.length s in
  let steps = Schedule.steps s in
  let live = Array.make n false in
  (* the last write in each entity bucket is final *)
  for e = 0 to Schedule.n_entities s - 1 do
    let b = Schedule.entity_bucket s e in
    (try
       for i = Array.length b - 1 downto 0 do
         if Step.is_write steps.(b.(i)) then begin
           live.(b.(i)) <- true;
           raise Exit
         end
       done
     with Exit -> ())
  done;
  (* reads served each write, straight from the version function *)
  let readers_of = Array.make (max 1 n) [] in
  List.iter
    (fun (q, src) ->
      match src with
      | Version_fn.From p -> readers_of.(p) <- q :: readers_of.(p)
      | Version_fn.Initial -> ())
    (Version_fn.to_list std);
  let changed = ref true in
  while !changed do
    changed := false;
    for pos = n - 1 downto 0 do
      let st = steps.(pos) in
      if not live.(pos) then
        let alive =
          match st.action with
          | Step.Read ->
              (* live if a later write of the same transaction is live *)
              Array.exists
                (fun q -> q > pos && Step.is_write steps.(q) && live.(q))
                (Schedule.txn_positions_arr s st.txn)
          | Step.Write ->
              (* live if some live read is served this write *)
              List.exists (fun q -> live.(q)) readers_of.(pos)
        in
        if alive then begin
          live.(pos) <- true;
          changed := true
        end
    done
  done;
  live

let live_positions s = live_positions_std s (Version_fn.standard s)

let read_froms_of s std live =
  let steps = Schedule.steps s in
  Array.to_list steps
  |> List.mapi (fun pos st -> (pos, st))
  |> List.filter_map (fun (pos, (st : Step.t)) ->
         if Step.is_read st && live.(pos) then
           let writer =
             match Version_fn.get std pos with
             | Some (Version_fn.From p) -> Read_from.T steps.(p).txn
             | Some Version_fn.Initial | None -> Read_from.T0
           in
           Some { Read_from.reader = st.txn; entity = st.entity; writer }
         else None)
  |> List.sort_uniq Read_from.compare_triple

let live_read_froms s =
  let std = Version_fn.standard s in
  read_froms_of s std (live_positions_std s std)

let live_read_froms_ref s =
  let std = Version_fn.standard_ref s in
  read_froms_of s std (live_positions_std_ref s std)

let dead_steps s =
  let live = live_positions s in
  Array.to_list (Schedule.steps s)
  |> List.filteri (fun pos _ -> not live.(pos))
