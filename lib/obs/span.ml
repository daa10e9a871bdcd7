(* Pipeline spans: open-span table + bounded ring of finished spans.

   The ring is the observability layer's one event stream: fixed
   memory, oldest dropped, JSON-lines round-trip through the shared
   Json/Jsonl modules. Span ticks are integer nanoseconds since
   the ring's creation: subtracting the epoch keeps the numbers small
   enough that serialization is exact, and integer ticks make the
   pipeline-ordering properties (commit <= durable <= replicated)
   decidable without float tolerance. [now] additionally clamps the
   clock monotonic, so span order always agrees with call order even
   if gettimeofday steps backwards. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  t0 : int;
  t1 : int;
  attrs : (string * Json.value) list;
}

type pending = {
  p_parent : int option;
  p_name : string;
  p_t0 : int;
  p_attrs : (string * Json.value) list;
}

type t = {
  capacity : int;
  buf : span option array;
  mutable seq : int; (* finished spans ever recorded *)
  mutable next_id : int;
  open_tbl : (int, pending) Hashtbl.t;
  clock : unit -> float;
  epoch : float;
  mutable last : int; (* monotonic clamp *)
}

let create ?(capacity = 4096) ?(clock = Unix.gettimeofday) () =
  if capacity <= 0 then invalid_arg "Span.create: capacity must be > 0";
  {
    capacity;
    buf = Array.make capacity None;
    seq = 0;
    next_id = 0;
    open_tbl = Hashtbl.create 16;
    clock;
    epoch = clock ();
    last = 0;
  }

let counter_clock () =
  let n = ref 0 in
  fun () ->
    incr n;
    float_of_int !n *. 1e-6

let now t =
  let tick = Float.to_int (Float.round ((t.clock () -. t.epoch) *. 1e9)) in
  if tick < t.last then t.last else (t.last <- tick; tick)

let record t s =
  t.buf.(t.seq mod t.capacity) <- Some s;
  t.seq <- t.seq + 1

let start t ?parent ?(attrs = []) name =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match parent with Some p when p >= 0 -> Some p | _ -> None in
  Hashtbl.replace t.open_tbl id
    { p_parent = parent; p_name = name; p_t0 = now t; p_attrs = attrs };
  id

let finish t ?(attrs = []) id =
  match Hashtbl.find_opt t.open_tbl id with
  | None -> ()
  | Some p ->
      Hashtbl.remove t.open_tbl id;
      record t
        {
          id;
          parent = p.p_parent;
          name = p.p_name;
          t0 = p.p_t0;
          t1 = now t;
          attrs = p.p_attrs @ attrs;
        }

let event t ?parent ?(attrs = []) name =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match parent with Some p when p >= 0 -> Some p | _ -> None in
  let tick = now t in
  record t { id; parent; name; t0 = tick; t1 = tick; attrs }

let capacity t = t.capacity
let emitted t = t.seq
let dropped t = max 0 (t.seq - t.capacity)
let open_spans t = Hashtbl.length t.open_tbl

let to_list t =
  let first = max 0 (t.seq - t.capacity) in
  List.filter_map
    (fun i -> t.buf.(i mod t.capacity))
    (List.init (t.seq - first) (fun k -> first + k))

let check spans =
  let by_id = Hashtbl.create 64 in
  let err = ref None in
  let fail fmt =
    Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt
  in
  List.iter
    (fun s ->
      if Hashtbl.mem by_id s.id then fail "duplicate span id %d" s.id;
      Hashtbl.replace by_id s.id s;
      if s.t1 < s.t0 then
        fail "span %d (%s) ends before it starts" s.id s.name)
    spans;
  List.iter
    (fun s ->
      match s.parent with
      | None -> ()
      | Some p -> (
          match Hashtbl.find_opt by_id p with
          | None -> () (* parent evicted by the ring: not checkable *)
          | Some parent ->
              if parent.id >= s.id then
                fail "span %d (%s) precedes its parent %d" s.id s.name p;
              if parent.t0 > s.t0 then
                fail "span %d (%s) starts before its parent %d" s.id
                  s.name p))
    spans;
  !err

let to_json s =
  let open Json in
  Json.obj
    ([ ("id", Int s.id) ]
    @ (match s.parent with Some p -> [ ("parent", Int p) ] | None -> [])
    @ [ ("name", Str s.name); ("t0", Int s.t0); ("t1", Int s.t1) ]
    @ List.map (fun (k, v) -> ("a." ^ k, v)) s.attrs)

let of_json line =
  match Json.parse_obj line with
  | None -> None
  | Some fields ->
      let int k =
        match List.assoc_opt k fields with
        | Some (Json.Int i) -> Some i
        | _ -> None
      in
      let str k =
        match List.assoc_opt k fields with
        | Some (Json.Str s) -> Some s
        | _ -> None
      in
      let ( let* ) = Option.bind in
      let* id = int "id" in
      let* name = str "name" in
      let* t0 = int "t0" in
      let* t1 = int "t1" in
      let attrs =
        List.filter_map
          (fun (k, v) ->
            if String.length k > 2 && String.sub k 0 2 = "a." then
              Some (String.sub k 2 (String.length k - 2), v)
            else None)
          fields
      in
      Some { id; parent = int "parent"; name; t0; t1; attrs }

let write_jsonl oc t =
  List.iter
    (fun s ->
      output_string oc (to_json s);
      output_char oc '\n')
    (to_list t)

let read_jsonl ic = Jsonl.read_channel of_json ic
