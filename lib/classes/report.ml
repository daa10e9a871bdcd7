open Mvcc_core

type verdict = {
  in_class : bool;
  witness : Schedule.t option;
  note : string option;
}

type t = {
  schedule : Schedule.t;
  serial : bool;
  csr : verdict;
  vsr : verdict;
  fsr : verdict;
  mvcsr : verdict;
  mvsr : verdict;
  dmvsr : verdict;
  region : Topography.region;
  mvsr_certificate : (int list * Version_fn.t) option;
}

let cycle_note name = function
  | None -> None
  | Some nodes ->
      Some
        (Printf.sprintf "%s cycle: %s" name
           (String.concat " -> "
              (List.map (fun i -> "T" ^ string_of_int (i + 1)) nodes)))

module Ctx = Mvcc_analysis.Ctx

let of_ctx c =
  let s = Ctx.schedule c in
  let csr =
    {
      in_class = Csr.Decider.test c;
      witness = Csr.Decider.witness c;
      note = cycle_note "conflict-graph" (Csr.Decider.violation c);
    }
  in
  let mvcsr =
    {
      in_class = Mvcsr.Decider.test c;
      witness = Mvcsr.Decider.witness c;
      note = cycle_note "MVCG" (Mvcsr.Decider.violation c);
    }
  in
  let vsr =
    {
      in_class = Vsr.Decider.test c;
      witness = Vsr.Decider.witness c;
      note =
        (if Vsr.Decider.test c then None
         else Some "the padded polygraph has no compatible acyclic digraph");
    }
  in
  let fsr =
    {
      in_class = Fsr.Decider.test c;
      witness = Fsr.Decider.witness c;
      note =
        (if Fsr.Decider.test c then None
         else Some "no serialization matches the live read-froms and finals");
    }
  in
  let cert = Mvsr.certificate_ctx c in
  let mvsr =
    {
      in_class = cert <> None;
      witness =
        Option.map (fun (order, _) -> Schedule.serialization s order) cert;
      note =
        (if cert <> None then None
         else Some "no version function and serial order agree");
    }
  in
  let dmvsr =
    {
      in_class = Dmvsr.Decider.test c;
      witness = None;
      note =
        (if Dmvsr.has_blind_writes s then
           Some "schedule has blind writes (reads inserted before testing)"
         else None);
    }
  in
  let membership =
    {
      Topography.serial = Ctx.is_serial c;
      csr = csr.in_class;
      vsr = vsr.in_class;
      mvcsr = mvcsr.in_class;
      mvsr = mvsr.in_class;
      dmvsr = dmvsr.in_class;
    }
  in
  {
    schedule = s;
    serial = Ctx.is_serial c;
    csr;
    vsr;
    fsr;
    mvcsr;
    mvsr;
    dmvsr;
    region = Topography.region membership;
    mvsr_certificate = cert;
  }

let make s = of_ctx (Ctx.make s)

let pp_verdict name ppf v =
  Format.fprintf ppf "%-6s: %s" name (if v.in_class then "yes" else "no ");
  (match v.witness with
  | Some w when v.in_class ->
      Format.fprintf ppf "   serial witness: %a" Schedule.pp w
  | _ -> ());
  (match v.note with
  | Some n when not v.in_class -> Format.fprintf ppf "   (%s)" n
  | Some n -> Format.fprintf ppf "   [%s]" n
  | None -> ());
  Format.pp_print_newline ppf ()

let pp ppf t =
  Format.fprintf ppf "schedule: %a@." Schedule.pp t.schedule;
  Format.fprintf ppf "%a@." Schedule.pp_grid t.schedule;
  Format.fprintf ppf "serial: %b@." t.serial;
  pp_verdict "CSR" ppf t.csr;
  pp_verdict "VSR" ppf t.vsr;
  pp_verdict "FSR" ppf t.fsr;
  pp_verdict "MVCSR" ppf t.mvcsr;
  pp_verdict "MVSR" ppf t.mvsr;
  pp_verdict "DMVSR" ppf t.dmvsr;
  Format.fprintf ppf "region: %s@." (Topography.region_name t.region);
  match t.mvsr_certificate with
  | Some (order, v) ->
      Format.fprintf ppf "MVSR certificate: order %s, versions %a@."
        (String.concat " < "
           (List.map (fun i -> "T" ^ string_of_int (i + 1)) order))
        (Version_fn.pp t.schedule) v
  | None -> ()
