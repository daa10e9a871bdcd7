type t = { jobs : int }

let create ~jobs = { jobs = max 1 jobs }
let sequential = { jobs = 1 }

(* Work is split by stride: domain [d] of [j] handles indices [d, d + j,
   d + 2j, ...]. Each slot of [results] is written by exactly one domain,
   so the only synchronization needed is the joins. Exceptions are
   captured per item and re-raised after all domains are joined, smallest
   index first — the same exception a sequential run would surface. *)
let map_array t f xs =
  let n = Array.length xs in
  let j = min t.jobs n in
  if j <= 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    let worker d () =
      let i = ref d in
      while !i < n do
        results.(!i) <- Some (try Ok (f xs.(!i)) with e -> Error e);
        i := !i + j
      done
    in
    let domains =
      List.init (j - 1) (fun d -> Domain.spawn (worker (d + 1)))
    in
    worker 0 ();
    List.iter Domain.join domains;
    Array.map
      (function
        | Some (Ok y) -> y
        | Some (Error e) -> raise e
        | None -> assert false)
      results
  end

let map t f xs = Array.to_list (map_array t f (Array.of_list xs))
