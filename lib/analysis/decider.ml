module type S = sig
  val name : string
  val test : Ctx.t -> bool
  val witness : Ctx.t -> Mvcc_core.Schedule.t option
  val violation : Ctx.t -> int list option
  val decide : Ctx.t -> bool * Mvcc_provenance.Witness.t
end

type t = (module S)

let name (module D : S) = D.name
let test (module D : S) ctx = D.test ctx
let witness (module D : S) ctx = D.witness ctx
let violation (module D : S) ctx = D.violation ctx
let decide (module D : S) ctx = D.decide ctx
let test_schedule d s = test d (Ctx.make s)
