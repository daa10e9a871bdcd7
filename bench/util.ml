(* Shared helpers for the experiment harness. *)

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let subsection title = Format.printf "@.-- %s --@." title

let row fmt = Format.printf fmt

(* Wall-clock one thunk, in milliseconds. *)
let time_ms f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, (Unix.gettimeofday () -. t0) *. 1000.)

let pct n total =
  if total = 0 then 0. else 100. *. float_of_int n /. float_of_int total

let rng seed = Random.State.make [| seed |]

(* The harness-wide worker pool. Defaults to sequential; main sets it
   from a [jobs=N] argument. Sweeps that go through [pmap]/[pcount] pick
   the parallelism up without further plumbing; results are independent
   of the job count (Pool's determinism contract). *)
let pool = ref Mvcc_exec.Pool.sequential

let set_jobs jobs = pool := Mvcc_exec.Pool.create ~jobs

let pmap f xs = Mvcc_exec.Pool.map !pool f xs

let pcount pred xs =
  List.length (List.filter Fun.id (pmap pred xs))
