type version = { value : int; wts : int; mutable max_rts : int }

(* Entities are interned to dense ids on first touch; [chains] maps an
   id to its version chain. *)
type t = {
  chains : (int, version list ref) Hashtbl.t;
  ids : (string, int) Hashtbl.t;
  mutable names : string array; (* dense id -> entity name *)
  mutable n : int;
}

let make () =
  {
    chains = Hashtbl.create 16;
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

let chain_of_id t id =
  match Hashtbl.find_opt t.chains id with
  | Some c -> c
  | None ->
      let c = ref [ { value = 0; wts = 0; max_rts = 0 } ] in
      Hashtbl.replace t.chains id c;
      c

let chain t e = chain_of_id t (intern t e)
let set_initial t e v = chain t e := [ { value = v; wts = 0; max_rts = 0 } ]

let create ~initial =
  let t = make () in
  List.iter (fun (e, v) -> set_initial t e v) initial;
  t

(* the entities with a chain: interning alone (the engine interns on an
   operation's first touch) does not make an entity present *)
let entities t =
  Hashtbl.fold (fun id _ acc -> t.names.(id) :: acc) t.chains []
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

let install t e ~value ~wts =
  if wts <= 0 then invalid_arg "Store.install: timestamp must be positive";
  let c = chain t e in
  if List.exists (fun v -> v.wts = wts) !c then
    invalid_arg "Store.install: duplicate version timestamp";
  c := { value; wts; max_rts = wts } :: !c

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

let prune_all t ~watermark =
  Hashtbl.fold (fun _ c acc -> acc + prune_chain c ~watermark) t.chains 0

let value_map t =
  entities t |> List.map (fun e -> (e, (latest t e).value))

let dump t =
  entities t
  |> List.map (fun e ->
         ( e,
           List.map (fun v -> (v.wts, v.value)) !(chain t e)
           |> List.sort (fun (a, _) (b, _) -> compare a b) ))

let of_dump chains =
  let t = make () in
  List.iter
    (fun (e, versions) ->
      chain t e :=
        List.rev_map
          (fun (wts, value) -> { value; wts; max_rts = wts })
          versions)
    chains;
  t
