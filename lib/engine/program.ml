type expr =
  | Const of int
  | Reg of string
  | Add of expr * expr
  | Sub of expr * expr
  | Mix of int * expr

type op = Read of string | Write of string * expr
type t = { label : string; ops : op list }

let rec eval regs = function
  | Const n -> n
  | Reg e -> regs e
  | Add (a, b) -> eval regs a + eval regs b
  | Sub (a, b) -> eval regs a - eval regs b
  | Mix (rounds, e) ->
      (* an xorshift-multiply permutation iterated [rounds] times: pure,
         deterministic, and deliberately expensive — the stand-in for
         transaction logic between a transaction's reads and its writes *)
      let x = ref (eval regs e) in
      for i = 1 to rounds do
        let z = !x lxor (!x lsr 29) in
        x := (z * 0x2545F4914F6CDD1D) + i
      done;
      !x

let transfer ~label ~from_ ~to_ amount =
  {
    label;
    ops =
      [
        Read from_;
        Read to_;
        Write (from_, Sub (Reg from_, Const amount));
        Write (to_, Add (Reg to_, Const amount));
      ];
  }

let read_all ~label entities = { label; ops = List.map (fun e -> Read e) entities }

let increment ~label entity amount =
  {
    label;
    ops = [ Read entity; Write (entity, Add (Reg entity, Const amount)) ];
  }

let blind_write ~label entity value =
  { label; ops = [ Write (entity, Const value) ] }

let read_only t =
  t.ops <> [] && List.for_all (function Read _ -> true | Write _ -> false) t.ops
