(* The types and the signature of {!Policy}, written once: [policy.mli]
   includes them and [policy.ml] implements them. *)
type policy = S2pl | To | Mvto | Si | Sgt
type deadlock = Detect | Wait_die | Wound_wait

type ctx = {
  store : Store.t;
  clients : Intake.client array;
  capacity : int;  (** a bound on every interned entity id *)
  fresh_ts : unit -> int;  (** draw the next timestamp *)
  clock : unit -> int;  (** the last timestamp drawn *)
  obs : Mvcc_obs.Sink.t;
  abort : reason:Event.reason -> Intake.client -> unit;
      (** the driver's abort: reset the attempt and restart it *)
}

type verdict =
  | Go
  | Wait  (** block; the client retries when next picked *)
  | Abort of Event.reason
  | Retry  (** no progress: the policy acted itself (wound-wait) *)

type source =
  | Version of Store.version
  | Dirty of { writer : int; value : int }
      (** an uncommitted write (SGT): its writer and buffered value *)

type stamp = Fresh_each | At of int  (** timestamps of a commit's installs *)

module type S = sig
  type t

  val create : ctx -> t

  val on_begin : t -> Intake.client -> unit
  (** The attempt's first step, before its first operation. *)

  val read : t -> Intake.client -> int -> verdict
  (** Admit a read of the entity with this store id. *)

  val write : t -> Intake.client -> int -> verdict

  val serve : t -> Intake.client -> int -> source
  (** The version for an admitted read the own write buffer misses. *)

  val wrote : t -> Intake.client -> int -> int -> unit
  (** An admitted write was buffered with this value. *)

  val validate : t -> Intake.client -> verdict
  (** Commit validation; [Wait] is a commit-wait. *)

  val stamp : t -> Intake.client -> stamp

  val finish : t -> Intake.client -> committed:bool -> unit
  (** Drop the attempt's footprint: after its installs, or before an
      abort resets it. *)

  val cascade : t -> Intake.client -> unit
  (** After an abort, abort whoever depended on it. *)

  val ro_safe : t -> int list -> bool
  (** May an off-loop reader of the entities with these store ids launch
      now? Policies witnessed by a multiversion order (MVTO, SI) always
      say yes. The single-version ones (S2PL, TO, SGT) say no while an
      active transaction has executed a write of one of them (write
      lock, reservation, dirty write): that write precedes the snapshot
      read in the history, yet the read serves the older version. *)

  val ro_stamp : t -> Intake.client -> int
  (** An off-loop reader's snapshot timestamp; TO and MVTO re-begin the
      reader at a fresh one so the timestamp order places it there. *)

  val ro_read : t -> Intake.client -> int -> Store.version -> unit
  (** An off-loop read of entity id was served this version. *)

  val gc_ts : Intake.client -> int
  (** The oldest timestamp an active client may still read at. *)
end
