module Json = Mvcc_obs.Json
module Store = Mvcc_engine.Store

type t = {
  lsn : int;
  commits : int;
  dump : (string * (int * int) list) list;
}

let capture ~lsn ~commits store = { lsn; commits; dump = Store.dump store }
let store t = Store.of_dump t.dump

let encode t =
  let buf = Buffer.create 1024 in
  let n_versions =
    List.fold_left (fun n (_, vs) -> n + List.length vs) 0 t.dump
  in
  Buffer.add_string buf
    (Wal.frame
       [
         ("snapshot", Json.Int 1);
         ("lsn", Json.Int t.lsn);
         ("commits", Json.Int t.commits);
         ("versions", Json.Int n_versions);
       ]);
  Buffer.add_char buf '\n';
  List.iter
    (fun (entity, versions) ->
      List.iter
        (fun (wts, value) ->
          Buffer.add_string buf
            (Wal.frame
               [
                 ("entity", Json.Str entity);
                 ("wts", Json.Int wts);
                 ("value", Json.Int value);
               ]);
          Buffer.add_char buf '\n')
        versions)
    t.dump;
  Buffer.contents buf

(* Inverse of [Wal.frame]: parse, then recompute the CRC over the
   re-encoded fields without the crc one. *)
let unframe line =
  match Json.parse_obj line with
  | None -> None
  | Some parsed -> (
      match List.rev parsed with
      | ("crc", Json.Int crc) :: body_rev ->
          let body = List.rev body_rev in
          if Wal.crc32 (Json.obj body) = crc then Some body else None
      | _ -> None)

let decode s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let ( let* ) = Option.bind in
  match lines with
  | [] -> None
  | header :: rest -> (
      match unframe header with
      | Some
          [
            ("snapshot", Json.Int 1);
            ("lsn", Json.Int lsn);
            ("commits", Json.Int commits);
            ("versions", Json.Int n_versions);
          ] ->
          if List.length rest <> n_versions then None
          else
            let* versions =
              List.fold_left
                (fun acc line ->
                  let* acc = acc in
                  match unframe line with
                  | Some
                      [
                        ("entity", Json.Str entity);
                        ("wts", Json.Int wts);
                        ("value", Json.Int value);
                      ] ->
                      Some ((entity, wts, value) :: acc)
                  | _ -> None)
                (Some []) rest
            in
            (* regroup in first-appearance entity order = dump order *)
            let dump = ref [] in
            List.iter
              (fun (e, wts, value) ->
                match List.assoc_opt e !dump with
                | Some vs -> vs := (wts, value) :: !vs
                | None -> dump := (e, ref [ (wts, value) ]) :: !dump)
              (List.rev versions);
            Some
              {
                lsn;
                commits;
                dump =
                  List.rev_map (fun (e, vs) -> (e, List.rev !vs)) !dump;
              }
      | _ -> None)

let write_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode t))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> decode (In_channel.input_all ic))
