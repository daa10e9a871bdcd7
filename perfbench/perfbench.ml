(* The benchmark: one workload per process.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
     perfbench.exe --record-census FILE

   [--trace 0] measures the end-to-end metrics with tracing off;
   [--trace 1] runs half the time untraced and half traced, and reports
   the per-layer metrics and the tracing overhead. The last line of
   standard output is one JSON object; the exit code is 1 when any
   output check failed. See NOTES.md for the workloads and metrics. *)

open Meter
module E = Mvcc_engine.Engine

let hot_rw =
  {
    Engine_wl.k = 32;
    n_entities = 64;
    theta = 0.9;
    read_fraction = 0.2;
    reads_per_txn = 4;
    writes_per_txn = 2;
    mix_rounds = 64;
    cores = 1;
    trace_cores = 1;
    client_queues = 1;
    batch = None;
    ro_snapshot = false;
    durable = false;
    max_ticks = 200_000;
    warmup_rounds = 500;
  }

let read_mostly =
  {
    Engine_wl.k = 256;
    n_entities = 1024;
    theta = 0.6;
    read_fraction = 0.9;
    reads_per_txn = 8;
    writes_per_txn = 2;
    mix_rounds = 20_000;
    (* cores=2 is not steady enough on a shared 2-vCPU host for the
       end-to-end bounds (see NOTES.md), so only the traced run, whose
       per-layer figures carry no bound, takes the exec-stage path *)
    cores = 1;
    trace_cores = 2;
    client_queues = 2;
    batch = Some E.Auto;
    ro_snapshot = true;
    durable = false;
    max_ticks = 200_000;
    warmup_rounds = 30;
  }

let durable_rw =
  {
    Engine_wl.k = 32;
    n_entities = 256;
    theta = 0.7;
    read_fraction = 0.3;
    reads_per_txn = 4;
    writes_per_txn = 3;
    mix_rounds = 64;
    cores = 1;
    trace_cores = 1;
    client_queues = 1;
    batch = None;
    ro_snapshot = false;
    durable = true;
    max_ticks = 200_000;
    warmup_rounds = 20;
  }

let workloads =
  [
    ("hot-rw", Some hot_rw);
    ("read-mostly", Some read_mostly);
    ("durable-rw", Some durable_rw);
    ("census", None);
  ]

(* Every traced run prints this whole list; a layer a workload does not
   have reads 0. *)
let per_layer_metrics =
  Engine_wl.layer_units @ Census_wl.layer_units @ shared_layer_units

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       perfbench.exe --record-census FILE\n\
     workloads: hot-rw read-mostly durable-rw census";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  match get "record-census" with
  | Some path -> Census_wl.record path
  | None ->
      let int_arg k =
        match Option.bind (get k) int_of_string_opt with
        | Some v -> v
        | None -> usage ()
      in
      let name = Option.value (get "workload") ~default:"" in
      let shape =
        match List.assoc_opt name workloads with
        | Some s -> s
        | None -> usage ()
      in
      let seed = int_arg "seed" in
      let seconds = float_of_int (int_arg "seconds") in
      let trace = int_arg "trace" = 1 in
      Printf.printf "workload %s seed %d seconds %g trace %b\n" name seed
        seconds trace;
      let report =
        if not trace then
          match shape with
          | Some s -> Engine_wl.end_to_end s ~seed ~seconds
          | None -> Census_wl.end_to_end ~seed ~seconds
        else
          let own, (values, factor, r) =
            match shape with
            | Some s ->
                (Engine_wl.layer_units, Engine_wl.per_layer s ~seed ~seconds)
            | None ->
                (Census_wl.layer_units, Census_wl.per_layer ~seed ~seconds)
          in
          if List.map fst values <> List.map fst (own @ shared_layer_units)
          then failwith "per-layer values do not match their declared names";
          (* per-layer times too are given in reference-host time *)
          let value name unit_ =
            let v = Option.value ~default:0. (List.assoc_opt name values) in
            if List.mem unit_ [ "ms/kop"; "ms"; "us"; "ns" ] then v /. factor
            else v
          in
          {
            r with
            metrics =
              List.map
                (fun (name, unit_) -> { name; unit_; value = value name unit_ })
                per_layer_metrics;
          }
      in
      print_endline (host_line ());
      print_report report;
      exit (if report.correct then 0 else 1)
