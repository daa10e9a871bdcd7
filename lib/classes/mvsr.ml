open Mvcc_core

(* Per-read data gathered once per search:
   - pos: position of the read in s
   - ent: dense entity id
   - own_prev: position of the transaction's own write of the entity
     immediately preceding the read in program order, or -1 (in a serial
     schedule the read is served that write)
   - pin: the source this read must be served, if constrained. *)
type read_info = {
  pos : int;
  ent : int;
  own_prev : int;
  pin : Version_fn.source option;
}

type txn_info = {
  reads : read_info array; (* in program order *)
  checks : read_info array;
      (* the reads that constrain placement: all but the unpinned own
         reads, which every order serves their own write *)
  writes : int array; (* entity ids written, deduplicated *)
}

type ctx = {
  s : Schedule.t;
  txns : txn_info array;
  n_ents : int;
  first_write : int array;
      (* txn * n_ents + ent -> position of the txn's first write of the
         entity, max_int if none *)
}

let analyse s pinned =
  (* dense entity ids come straight from the schedule's interned index;
     renaming ids only permutes the last-writer state vector, so the
     search explores the same tree either way *)
  let n = Schedule.n_txns s in
  let k = Schedule.n_entities s in
  let first_write = Array.make (n * k) max_int in
  let own_last = Array.make (n * k) (-1) in
  let reads = Array.make n [] in
  let writes = Array.make n [] in
  for pos = 0 to Schedule.length s - 1 do
    let st = Schedule.step s pos in
    let e = Schedule.entity_at s pos in
    let slot = (st.txn * k) + e in
    match st.action with
    | Step.Write ->
        if own_last.(slot) < 0 then begin
          writes.(st.txn) <- e :: writes.(st.txn);
          first_write.(slot) <- pos
        end;
        own_last.(slot) <- pos
    | Step.Read ->
        let pin = Version_fn.get pinned pos in
        let r = { pos; ent = e; own_prev = own_last.(slot); pin } in
        reads.(st.txn) <- r :: reads.(st.txn)
  done;
  let constrains r = r.pin <> None || r.own_prev < 0 in
  let txns =
    Array.init n (fun i ->
        let reads = List.rev reads.(i) in
        {
          reads = Array.of_list reads;
          checks = Array.of_list (List.filter constrains reads);
          writes = Array.of_list writes.(i);
        })
  in
  { s; txns; n_ents = k; first_write }

(* The last write of [j] on [e] before position [pos], from [e]'s
   bucket. *)
let latest_write_before ctx j e pos =
  Array.fold_left
    (fun acc p ->
      let st = Schedule.step ctx.s p in
      if p < pos && st.txn = j && Step.is_write st then p else acc)
    (-1)
    (Schedule.entity_bucket ctx.s e)

(* Can transaction [i] be appended, given the search state: slot
   [1 + e] is the last writer of entity [e] among the transactions placed
   so far (txn index, or -1 for T0)?

   Triple-set semantics (the paper's view equivalence): an external read of
   [x] must produce the triple (T_i, x, w) where w is the current last
   writer — possible iff some write of w on x precedes the read in s. *)
let can_place ctx state i =
  let checks = ctx.txns.(i).checks in
  let rec go c =
    c < 0
    ||
    let r = checks.(c) in
    let last = state.(1 + r.ent) in
    (match r.pin with
    | None ->
        (* an external read: the initial version, or a write of the last
           writer that precedes it *)
        last = -1 || ctx.first_write.((last * ctx.n_ents) + r.ent) < r.pos
    | Some Version_fn.Initial -> r.own_prev < 0 && last = -1
    | Some (Version_fn.From q) ->
        let j = (Schedule.step ctx.s q).txn in
        if j = i then r.own_prev >= 0 else r.own_prev < 0 && last = j)
    && go (c - 1)
  in
  go (Array.length checks - 1)

(* Failed search states, keyed by the state array itself: a full-fold
   hash and element-wise equality (all keys of one search have the
   same length). *)
module Memo = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b =
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash (a : t) =
    Array.fold_left (fun h x -> (h * 31) + x) 0 a land max_int
end)

(* The version function induced by a serialization order: pinned reads keep
   their pin; own reads are served the preceding own write; external reads
   the last preceding write (in s) of the entity's last writer before the
   reader in the order. *)
let induced_version_fn ctx order =
  let last_writer = Array.make ctx.n_ents (-1) in
  let v = ref Version_fn.empty in
  List.iter
    (fun i ->
      Array.iter
        (fun r ->
          let src =
            match r.pin with
            | Some p -> p
            | None when r.own_prev >= 0 -> Version_fn.From r.own_prev
            | None -> begin
                match last_writer.(r.ent) with
                | -1 -> Version_fn.Initial
                | j ->
                    (* can_place guaranteed one *)
                    Version_fn.From (latest_write_before ctx j r.ent r.pos)
              end
          in
          v := Version_fn.add r.pos src !v)
        ctx.txns.(i).reads;
      Array.iter (fun e -> last_writer.(e) <- i) ctx.txns.(i).writes)
    order;
  !v

(* The search, instrumented: [branches] counts transaction placements
   tried, [memo_hits] counts subtrees pruned by the memo table — the
   effort figures a rejection certificate carries.

   The state is one live int array: slot 0 is the placed-set mask, slot
   [1 + e] the last writer of entity [e] (-1 for T0). Placing a
   transaction updates it in place and backtracking restores it from
   [saved] (row [depth], one slot per entity the transaction writes), so
   a failed subtree leaves it as it found it; that state is then copied
   into the memo, which is probed with the live array itself. *)
let search_stats s pinned =
  if not (Version_fn.legal s pinned) then
    invalid_arg "Mvsr: pinned version function not legal";
  let ctx = analyse s pinned in
  let n = Array.length ctx.txns in
  let k = ctx.n_ents in
  let memo = Memo.create 64 in
  let state = Array.make (1 + k) (-1) in
  state.(0) <- 0;
  let saved = Array.make (n * k) 0 in
  let order = Array.make n 0 in
  let branches = ref 0 in
  let memo_hits = ref 0 in
  let rec go depth =
    depth = n
    ||
    if Memo.mem memo state then begin
      incr memo_hits;
      false
    end
    else begin
      let mask = state.(0) in
      let rec try_txn i =
        i < n
        &&
        if mask land (1 lsl i) = 0 && can_place ctx state i then begin
          incr branches;
          let writes = ctx.txns.(i).writes in
          Array.iteri
            (fun j e ->
              saved.((depth * k) + j) <- state.(1 + e);
              state.(1 + e) <- i)
            writes;
          state.(0) <- mask lor (1 lsl i);
          order.(depth) <- i;
          go (depth + 1)
          || begin
               state.(0) <- mask;
               Array.iteri
                 (fun j e -> state.(1 + e) <- saved.((depth * k) + j))
                 writes;
               try_txn (i + 1)
             end
        end
        else try_txn (i + 1)
      in
      let found = try_txn 0 in
      if not found then Memo.replace memo (Array.copy state) ();
      found
    end
  in
  let result =
    if go 0 then
      let order = Array.to_list order in
      Some (order, induced_version_fn ctx order)
    else None
  in
  (result, !branches, !memo_hits)

let search s pinned =
  let r, _, _ = search_stats s pinned in
  r

let certificate_pinned s ~pinned = search s pinned
let certificate s = search s Version_fn.empty

module Actx = Mvcc_analysis.Ctx
module Witness = Mvcc_provenance.Witness

(* One unpinned backtracking search per context, shared by the test,
   witness, certificate and certificate paths. *)
let search_key : ((int list * Version_fn.t) option * int * int) Actx.key =
  Actx.key "mvsr_search"

let search_ctx c =
  Actx.memo c search_key (fun c ->
      search_stats (Actx.schedule c) Version_fn.empty)

let certificate_ctx c =
  let r, _, _ = search_ctx c in
  r

module Decider = struct
  let name = "MVSR"

  (* Theorem 3 (MVCSR ⊆ MVSR): the search runs only when the MVCG is
     cyclic. *)
  let test c = Actx.mv_topo c <> None || certificate_ctx c <> None

  let witness c =
    Option.map
      (fun (order, _) -> Schedule.serialization (Actx.schedule c) order)
      (certificate_ctx c)

  let violation _ = None

  let decide c =
    match search_ctx c with
    | Some (order, v), _, _ ->
        ( true,
          { Witness.claim = Member Mvsr;
            evidence = Accept_version_fn (order, v);
          } )
    | None, branches, propagated ->
        ( false,
          { Witness.claim = Non_member Mvsr;
            evidence = Reject_exhausted { branches; propagated };
          } )
end

let decide s = Decider.decide (Actx.make s)
let test s = Option.is_some (certificate s)
let test_pinned s ~pinned = Option.is_some (certificate_pinned s ~pinned)

let serializable_with s v =
  if not (Version_fn.total s v) then
    invalid_arg "Mvsr.serializable_with: version function not total";
  test_pinned s ~pinned:v

let test_naive s =
  let serial_relations =
    List.map Read_from.std_relation (Schedule.all_serializations s)
  in
  Seq.exists
    (fun v ->
      let rel = Read_from.relation s v in
      List.exists (fun r -> r = rel) serial_relations)
    (Version_fn.enumerate s)
