module Certifier = Mvcc_online.Certifier
open Intake

include Policy_intf

(* The hooks most policies leave alone. *)
module Defaults = struct
  let on_begin _ _ = ()
  let read _ _ _ = Go
  let write _ _ _ = Go
  let wrote _ _ _ _ = ()
  let validate _ _ = Go
  let stamp _ _ = Fresh_each
  let finish _ _ ~committed:_ = ()
  let cascade _ _ = ()
  let ro_safe _ _ = true
  let ro_read _ _ _ _ = ()
  let gc_ts c = c.ts
end

let latest ctx id = Version (Store.latest_id ctx.store id)

(* Strict two-phase locking. Readers of an entity are kept newest first
   and wound-wait wounds blockers in that order, so the lists' order is
   part of the decision sequence. *)
module S2pl (D : sig
  val deadlock : deadlock
end) =
struct
  include Defaults

  type t = {
    ctx : ctx;
    readers : int list array;  (** per entity *)
    writer : int array;  (** per entity; -1 = unlocked *)
    visited : int array;  (** per client: the last query that reached it *)
    mutable query : int;
  }

  let create ctx =
    {
      ctx;
      readers = Array.make ctx.capacity [];
      writer = Array.make ctx.capacity (-1);
      visited = Array.make (Array.length ctx.clients) 0;
      query = 0;
    }

  let rec has_other (c : int) = function
    | [] -> false
    | r :: rs -> r <> c || has_other c rs

  (* Is client [c] blocked from accessing entity [id]? The uncontended
     path decides with this, allocating nothing. *)
  let blocked t c id ~write =
    let w = t.writer.(id) in
    (w >= 0 && w <> c) || (write && has_other c t.readers.(id))

  (* who currently blocks client [c] from accessing entity [id] *)
  let blockers t c id ~write =
    let w = t.writer.(id) in
    let from_writer = if w >= 0 && w <> c then [ w ] else [] in
    if write then from_writer @ List.filter (fun r -> r <> c) t.readers.(id)
    else from_writer

  (* Does some blocker in [bs] (transitively) wait on [target]? Each
     query visits a client at most once: one already searched either
     reached [target] or cannot. *)
  let waits_on t bs target =
    t.query <- t.query + 1;
    let rec reaches who =
      who = target
      || t.visited.(who) <> t.query
         &&
         let c' = t.ctx.clients.(who) in
         t.visited.(who) <- t.query;
         match c'.status with
         | Waiting _ when c'.pc < Array.length c'.ops ->
             let write =
               match c'.ops.(c'.pc) with Program.Write _ -> true | _ -> false
             in
             List.exists reaches (blockers t who c'.ids.(c'.pc) ~write)
         | _ -> false
    in
    List.exists reaches bs

  let resolve t c id ~write =
    let bs = blockers t c.id id ~write in
    let clients = t.ctx.clients in
    match D.deadlock with
    | Detect ->
        if waits_on t bs c.id then
          Abort Event.Deadlock
        else Wait
    | Wait_die ->
        (* the requester may wait only for younger holders *)
        if List.exists (fun b -> clients.(b).ts < c.ts) bs then
          Abort Event.Wait_die
        else Wait
    | Wound_wait ->
        (* wound younger holders; wait for older ones *)
        let wounded = ref false in
        List.iter
          (fun b ->
            let h = clients.(b) in
            if h.ts > c.ts && h.status <> Committed then begin
              t.ctx.abort ~reason:Event.Wound h;
              wounded := true
            end)
          bs;
        if !wounded then Retry else Wait

  let read t c id =
    if blocked t c.id id ~write:false then resolve t c id ~write:false
    else begin
      if not (List.mem c.id t.readers.(id)) then
        t.readers.(id) <- c.id :: t.readers.(id);
      Go
    end

  let write t c id =
    if blocked t c.id id ~write:true then resolve t c id ~write:true
    else begin
      t.writer.(id) <- c.id;
      Go
    end

  let serve t _ id = latest t.ctx id

  (* an attempt's footprint is its own read and write sets *)
  let finish t c ~committed:_ =
    List.iter
      (fun { eid; _ } ->
        t.readers.(eid) <- List.filter (( <> ) c.id) t.readers.(eid))
      c.regs;
    List.iter
      (fun w -> if t.writer.(w.w_eid) = c.id then t.writer.(w.w_eid) <- -1)
      c.buffer

  (* a snapshot read may not pass an executed (write-locked) write *)
  let ro_safe t = Array.for_all (fun id -> t.writer.(id) < 0)
  let ro_stamp t _ = t.ctx.clock ()
end

(* Single-version timestamp ordering. An uncommitted write reserves its
   entity at the writer's timestamp: a read older than the reservation
   is consistent, a younger one waits for the writer to finish, or it
   would see a stale value. *)
module To = struct
  include Defaults

  type t = {
    ctx : ctx;
    rts : int array;  (** per entity *)
    wts : int array;
    pending : int list array;  (** per entity: reserving timestamps *)
  }

  let create ctx =
    {
      ctx;
      rts = Array.make ctx.capacity 0;
      wts = Array.make ctx.capacity 0;
      pending = Array.make ctx.capacity [];
    }

  let read t c id =
    if c.ts < t.wts.(id) then Abort Event.Ts_order
    else if List.exists (fun ts -> ts < c.ts) t.pending.(id) then Wait
    else begin
      t.rts.(id) <- max c.ts t.rts.(id);
      Go
    end

  let write t c id =
    if c.ts < t.rts.(id) || c.ts < t.wts.(id) then Abort Event.Ts_order
    else begin
      t.wts.(id) <- c.ts;
      if not (List.mem c.ts t.pending.(id)) then
        t.pending.(id) <- c.ts :: t.pending.(id);
      Go
    end

  let serve t _ id = latest t.ctx id

  let finish t c ~committed:_ =
    List.iter
      (fun { w_eid; _ } ->
        t.pending.(w_eid) <- List.filter (( <> ) c.ts) t.pending.(w_eid))
      c.buffer

  (* the snapshot timestamp is fresher than every reservation, so this
     is TO's own older-pending-writer read rule *)
  let ro_safe t = Array.for_all (fun id -> t.pending.(id) = [])

  let ro_stamp t c =
    c.ts <- t.ctx.fresh_ts ();
    c.ts

  let ro_read t c id _ = t.rts.(id) <- max c.ts t.rts.(id)
end

(* Multiversion timestamp ordering: reads never block nor abort; a write
   (and its commit) aborts if it would invalidate a younger read. *)
module Mvto = struct
  include Defaults

  type t = ctx

  let create ctx = ctx

  let invalidates ctx c id = Store.would_invalidate_id ctx.store id ~wts:c.ts

  let write ctx c id =
    if invalidates ctx c id then Abort Event.Write_invalidated else Go

  let serve ctx c id =
    let v = Store.read_at_id ctx.store id c.ts in
    v.Store.max_rts <- max v.Store.max_rts c.ts;
    Version v

  let validate ctx c =
    if List.exists (fun w -> invalidates ctx c w.w_eid) c.buffer then
      Abort Event.Write_invalidated
    else Go

  let stamp _ c = At c.ts

  let ro_stamp ctx c =
    c.ts <- ctx.fresh_ts ();
    c.ts

  let ro_read _ c _ v = v.Store.max_rts <- max v.Store.max_rts c.ts
end

(* Snapshot isolation: reads at the attempt's start snapshot,
   first-committer-wins on writes. Not serializable in general. *)
module Si = struct
  include Defaults

  type t = ctx

  let create ctx = ctx
  let on_begin ctx c = c.snapshot <- ctx.clock ()
  let serve ctx c id = Version (Store.read_at_id ctx.store id c.snapshot)

  (* a version of a written entity committed after our snapshot means a
     concurrent writer beat us *)
  let validate ctx c =
    let beaten w = (Store.latest_id ctx.store w.w_eid).Store.wts > c.snapshot in
    if List.exists beaten c.buffer then Abort Event.First_committer
    else Go

  let stamp ctx _ = At (ctx.fresh_ts ())

  let ro_stamp ctx c =
    c.snapshot <- ctx.clock ();
    c.snapshot

  let gc_ts c = c.snapshot
end

(* Serialization-graph testing: every operation is certified against
   the incremental conflict graph over client ids. Reads see the newest
   write — the dirty head of the entity if an uncommitted write is
   outstanding, else the latest committed version — so arrival order is
   data-flow order and the certified graph is the real history's. *)
module Sgt = struct
  include Defaults

  type t = {
    ctx : ctx;
    cert : Certifier.t;
    dirty : (int * write) list array;
        (** per entity: uncommitted (writer, write) pairs, newest first *)
    deps : int list array;
        (** per client: uncommitted transactions whose dirty data it
            consumed or overwrote — their commit must precede its own,
            and their abort cascades to it *)
  }

  let create ctx =
    {
      ctx;
      cert = Certifier.create ~obs:ctx.obs Certifier.Conflict;
      dirty = Array.make ctx.capacity [];
      deps = Array.make (Array.length ctx.clients) [];
    }

  (* certify one operation; the certifier accounts its cost under
     [engine.cert] *)
  let feed t c id ~write =
    if Certifier.feed_id t.cert ~parent:c.sp_attempt ~txn:c.id ~write id then
      Go
    else Abort Event.Certification

  let others c = List.filter (fun (w, _) -> w <> c.id)

  let depend t c w =
    if w <> c.id && not (List.mem w t.deps.(c.id)) then
      t.deps.(c.id) <- w :: t.deps.(c.id)

  let read t c id = feed t c id ~write:false
  let write t c id = feed t c id ~write:true

  (* reading another transaction's dirty write makes us depend on it *)
  let serve t c id =
    match t.dirty.(id) with
    | (w, write) :: _ ->
        depend t c w;
        Dirty { writer = w; write }
    | [] -> latest t.ctx id

  (* overwriting an uncommitted write orders our commit after the
     earlier writer's (ww arc), via the same dependency set *)
  let wrote t c id write =
    List.iter (fun (w, _) -> depend t c w) t.dirty.(id);
    t.dirty.(id) <- (c.id, write) :: others c t.dirty.(id)

  (* commit-wait: every dirty predecessor must commit first, so installs
     land in serialization order and no committed transaction ever read
     data that later vanishes. The waits follow conflict-graph arcs,
     which the certifier keeps acyclic, so they cannot deadlock; an
     aborted predecessor cascades us instead of stranding us. *)
  let validate t c =
    let active w = t.ctx.clients.(w).status <> Committed in
    if List.exists active t.deps.(c.id) then Wait else Go

  let finish t c ~committed =
    List.iter
      (fun w -> t.dirty.(w.w_eid) <- others c t.dirty.(w.w_eid))
      c.buffer;
    if not committed then
      Certifier.forget_txn t.cert c.id ~footprint:(fun f ->
          List.iter (fun b -> f b.eid) c.regs;
          List.iter (fun w -> f w.w_eid) c.buffer);
    t.deps.(c.id) <- []

  (* terminates: each round clears a victim's dependencies *)
  let cascade t c =
    Array.iter
      (fun d ->
        if d.id <> c.id && d.status <> Committed && List.mem c.id t.deps.(d.id)
        then t.ctx.abort ~reason:Event.Cascade d)
      t.ctx.clients

  (* a snapshot read would serve the committed version where SGT's own
     read rule serves the dirty one *)
  let ro_safe t = Array.for_all (fun id -> t.dirty.(id) = [])
  let ro_stamp t _ = t.ctx.clock ()
end

let of_engine ?(deadlock = Detect) = function
  | S2pl ->
      (module S2pl (struct
        let deadlock = deadlock
      end) : S)
  | To -> (module To : S)
  | Mvto -> (module Mvto : S)
  | Si -> (module Si : S)
  | Sgt -> (module Sgt : S)
