type version = {
  mutable value : int;
  wts : int;
  mutable max_rts : int;
  mutable filled : bool;
      (* [place] leaves a hole; exactly one [fill] may write it. Initial
         and [install]ed/restored versions are born filled. *)
}

(* Entities are interned to dense ids on first touch; chains live in
   [shards.(id mod n_shards)], so the placement of an entity's versions
   is a pure function of its interned id and the shard count. The
   partitioning is physical only: every string-keyed operation below
   behaves identically at any shard count. *)
type t = {
  shards : (int, version list ref) Hashtbl.t array;
  ids : (string, int) Hashtbl.t;
  mutable names : string array; (* dense id -> entity name *)
  mutable n : int;
}

let make ~shards =
  let shards = max 1 shards in
  {
    shards = Array.init shards (fun _ -> Hashtbl.create 16);
    ids = Hashtbl.create 16;
    names = Array.make 16 "";
    n = 0;
  }

let intern t e =
  match Hashtbl.find_opt t.ids e with
  | Some id -> id
  | None ->
      let id = t.n in
      if id = Array.length t.names then begin
        let bigger = Array.make (2 * id) "" in
        Array.blit t.names 0 bigger 0 id;
        t.names <- bigger
      end;
      t.names.(id) <- e;
      t.n <- id + 1;
      Hashtbl.replace t.ids e id;
      id

let name t id = t.names.(id)
let shard_count t = Array.length t.shards
let shard_of t e = intern t e mod Array.length t.shards

let chain_of_id t id =
  let tbl = t.shards.(id mod Array.length t.shards) in
  match Hashtbl.find_opt tbl id with
  | Some c -> c
  | None ->
      let c = ref [ { value = 0; wts = 0; max_rts = 0; filled = true } ] in
      Hashtbl.replace tbl id c;
      c

let chain t e = chain_of_id t (intern t e)

let set_initial t e v =
  chain t e := [ { value = v; wts = 0; max_rts = 0; filled = true } ]

let create_sharded ~shards ~initial =
  let t = make ~shards in
  List.iter (fun (e, v) -> set_initial t e v) initial;
  t

let create ~initial = create_sharded ~shards:1 ~initial

(* the entities with a chain: interning alone (the engine interns on an
   operation's first touch) does not make an entity present *)
let entities t =
  Array.fold_left
    (fun acc tbl -> Hashtbl.fold (fun id _ acc -> t.names.(id) :: acc) tbl acc)
    [] t.shards
  |> List.sort compare

let latest t e =
  let c = !(chain t e) in
  List.fold_left
    (fun best v -> if v.wts > best.wts then v else best)
    (List.hd c) c

let read_at t e ts =
  let c = !(chain t e) in
  let best = ref None in
  List.iter
    (fun v ->
      if v.wts <= ts then
        match !best with
        | Some b when b.wts >= v.wts -> ()
        | _ -> best := Some v)
    c;
  (* the initial version (wts 0) always qualifies for ts >= 0 *)
  Option.get !best

let place t e ~wts =
  if wts <= 0 then invalid_arg "Store.install: timestamp must be positive";
  let c = chain t e in
  if List.exists (fun v -> v.wts = wts) !c then
    invalid_arg "Store.install: duplicate version timestamp";
  let v = { value = 0; wts; max_rts = wts; filled = false } in
  c := v :: !c;
  v

let fill v value =
  (* a second fill would silently corrupt the chain: the first value may
     already have been read by a later wave or dumped by a checkpoint *)
  if v.filled then invalid_arg "Store.fill: version already filled";
  v.filled <- true;
  v.value <- value
let install t e ~value ~wts = fill (place t e ~wts) value

let would_invalidate t e ~wts =
  let c = !(chain t e) in
  List.exists (fun v -> v.wts < wts && v.max_rts > wts) c

let version_count t e = List.length !(chain t e)

let prune_chain c ~watermark =
  (* newest version visible at the watermark: the snapshot base *)
  let base =
    List.fold_left
      (fun acc v ->
        if v.wts <= watermark then
          match acc with
          | Some b when b.wts >= v.wts -> acc
          | _ -> Some v
        else acc)
      None !c
  in
  match base with
  | None -> 0
  | Some base ->
      let keep, drop = List.partition (fun v -> v.wts >= base.wts) !c in
      c := keep;
      List.length drop

let prune t e ~watermark = prune_chain (chain t e) ~watermark

let prune_shard t s ~watermark =
  let dropped = ref 0 in
  Hashtbl.iter
    (fun _ c -> dropped := !dropped + prune_chain c ~watermark)
    t.shards.(s);
  !dropped

let value_map t =
  entities t |> List.map (fun e -> (e, (latest t e).value))

let dump t =
  entities t
  |> List.map (fun e ->
         ( e,
           List.map (fun v -> (v.wts, v.value)) !(chain t e)
           |> List.sort (fun (a, _) (b, _) -> compare a b) ))

let of_dump ?(shards = 1) chains =
  let t = make ~shards in
  List.iter
    (fun (e, versions) ->
      let c = chain t e in
      c :=
        List.rev_map
          (fun (wts, value) -> { value; wts; max_rts = wts; filled = true })
          versions)
    chains;
  t
