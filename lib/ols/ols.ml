open Mvcc_core
module Mvsr = Mvcc_classes.Mvsr

type failure = { prefix : Schedule.t; members : Schedule.t list }

(* Depth-first over [p]'s reads in position order, sources in
   [Version_fn.choices] order: the first hit is the one a plain sweep of
   [Version_fn.enumerate p] would find. A partial assignment no member
   can extend is cut, since pinning more reads only adds constraints. *)
let compatible_prefix_fn members p =
  let extendable v =
    List.for_all (fun m -> Mvsr.test_pinned m ~pinned:v) members
  in
  let reads =
    List.filter
      (fun pos -> Step.is_read (Schedule.step p pos))
      (List.init (Schedule.length p) Fun.id)
  in
  let rec go v = function
    | [] -> Some v
    | pos :: rest ->
        List.find_map
          (fun src ->
            let v = Version_fn.add pos src v in
            if extendable v then go v rest else None)
          (Version_fn.choices p pos)
  in
  if extendable Version_fn.empty then go Version_fn.empty reads else None

(* Prefixes sharing the same member set only need their longest
   representative checked: a version function working for a longer prefix
   restricts to one working for a shorter prefix with the same members. *)
let check schedules =
  List.iter
    (fun s ->
      if not (Mvsr.test s) then
        invalid_arg "Ols.check: set contains a non-MVSR schedule")
    schedules;
  let key members =
    String.concat "|" (List.map Schedule.to_string members)
  in
  (* map: member-set key -> longest prefix achieving it *)
  let best = Hashtbl.create 32 in
  List.iter
    (fun s ->
      for len = 0 to Schedule.length s do
        let p = Schedule.prefix s len in
        let members =
          List.filter (fun m -> Schedule.is_prefix p ~of_:m) schedules
        in
        if List.length members >= 2 then begin
          let k = key members in
          match Hashtbl.find_opt best k with
          | Some (p', _) when Schedule.length p' >= len -> ()
          | _ -> Hashtbl.replace best k (p, members)
        end
      done)
    schedules;
  Hashtbl.fold
    (fun _ (p, members) acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if compatible_prefix_fn members p = None then
            Some { prefix = p; members }
          else None)
    best None

let is_ols schedules = check schedules = None
