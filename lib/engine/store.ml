type version = { value : int; wts : int; mutable max_rts : int }

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* Entities are interned to dense ids on first touch; [names] and
   [chains] are indexed by that id. An empty chain means interned but
   not present: the engine interns on an operation's first touch, and
   only a chain access makes the entity present. *)
type t = {
  ids : int Names.t;
  mutable names : string array;
  mutable chains : version list array;
  mutable n : int;
}

let make size =
  let size = max 16 size in
  {
    ids = Names.create size;
    names = Array.make size "";
    chains = Array.make size [];
    n = 0;
  }

let intern t e =
  match Names.find t.ids e with
  | id -> id
  | exception Not_found ->
      let id = t.n in
      if id = Array.length t.names then begin
        let grow a fill =
          let bigger = Array.make (2 * id) fill in
          Array.blit a 0 bigger 0 id;
          bigger
        in
        t.names <- grow t.names "";
        t.chains <- grow t.chains []
      end;
      t.names.(id) <- e;
      t.n <- id + 1;
      Names.replace t.ids e id;
      id

let name t id = t.names.(id)

(* [id]'s chain, made present at initial value 0 on first access *)
let chain t id =
  match t.chains.(id) with
  | [] ->
      let c = [ { value = 0; wts = 0; max_rts = 0 } ] in
      t.chains.(id) <- c;
      c
  | c -> c

let set_initial t e v =
  t.chains.(intern t e) <- [ { value = v; wts = 0; max_rts = 0 } ]

let create ~initial =
  let t = make (List.length initial) in
  List.iter (fun (e, v) -> set_initial t e v) initial;
  t

(* the present ids, sorted by name *)
let present t =
  let ids = ref [] in
  for id = t.n - 1 downto 0 do
    match t.chains.(id) with [] -> () | _ -> ids := id :: !ids
  done;
  List.sort (fun a b -> String.compare t.names.(a) t.names.(b)) !ids

let entities t = List.map (name t) (present t)

let newest c =
  List.fold_left
    (fun best v -> if v.wts > best.wts then v else best)
    (List.hd c) c

let latest_id t id = newest (chain t id)
let latest t e = latest_id t (intern t e)

(* the version of chain [c] with the largest wts <= ts *)
let version_at c ts =
  let best = ref None in
  List.iter
    (fun v ->
      if v.wts <= ts then
        match !best with
        | Some b when b.wts >= v.wts -> ()
        | _ -> best := Some v)
    c;
  !best

(* the initial version (wts 0) always qualifies for ts >= 0 *)
let read_at_id t id ts = Option.get (version_at (chain t id) ts)
let read_at t e ts = read_at_id t (intern t e) ts

let find_at t e ts =
  match Names.find_opt t.ids e with
  | None -> None
  | Some id -> ( match t.chains.(id) with [] -> None | c -> version_at c ts)

let positive wts =
  if wts <= 0 then invalid_arg "Store.install: timestamp must be positive"

let install_id t id ~value ~wts =
  positive wts;
  let c = chain t id in
  if List.exists (fun v -> v.wts = wts) c then
    invalid_arg "Store.install: duplicate version timestamp";
  t.chains.(id) <- { value; wts; max_rts = wts } :: c

(* a refused timestamp interns nothing *)
let install t e ~value ~wts =
  positive wts;
  install_id t (intern t e) ~value ~wts

let would_invalidate_id t id ~wts =
  List.exists (fun v -> v.wts < wts && v.max_rts > wts) (chain t id)

let would_invalidate t e ~wts = would_invalidate_id t (intern t e) ~wts
let version_count t e = List.length (chain t (intern t e))

let longest_chain t =
  Array.fold_left (fun acc c -> max acc (List.length c)) 0 t.chains

(* prunes [c], the chain of [id]; returns the versions discarded *)
let prune_chain t id c ~watermark =
  (* newest version visible at the watermark: the snapshot base *)
  let base =
    List.fold_left
      (fun acc v ->
        if v.wts <= watermark then
          match acc with
          | Some b when b.wts >= v.wts -> acc
          | _ -> Some v
        else acc)
      None c
  in
  match base with
  | None -> 0
  | Some base ->
      let keep, drop = List.partition (fun v -> v.wts >= base.wts) c in
      t.chains.(id) <- keep;
      List.length drop

let prune t e ~watermark =
  let id = intern t e in
  prune_chain t id (chain t id) ~watermark

let prune_all t ~watermark =
  let pruned = ref 0 in
  for id = 0 to t.n - 1 do
    pruned := !pruned + prune_chain t id t.chains.(id) ~watermark
  done;
  !pruned

let value_map t =
  List.map
    (fun id -> (t.names.(id), (newest t.chains.(id)).value))
    (present t)

let dump t =
  List.map
    (fun id ->
      ( t.names.(id),
        List.map (fun v -> (v.wts, v.value)) t.chains.(id)
        |> List.sort (fun (a, _) (b, _) -> compare a b) ))
    (present t)

let of_dump chains =
  let t = make (List.length chains) in
  List.iter
    (fun (e, versions) ->
      t.chains.(intern t e) <-
        List.rev_map
          (fun (wts, value) -> { value; wts; max_rts = wts })
          versions)
    chains;
  t
