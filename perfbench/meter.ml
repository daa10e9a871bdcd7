(* Clock, latency samples and the run report shared by every workload. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9
let per_kop ns ops = ms_of_ns ns *. 1000. /. float_of_int (max 1 ops)
let ratio a b = float_of_int a /. float_of_int (max 1 b)

(* Latency samples live in a Bigarray, outside the OCaml heap, so the
   number of ops a run completes does not move [heap_peak_mb]. *)
module Samples = struct
  open Bigarray

  type t = {
    mutable a : (float, float64_elt, c_layout) Array1.t;
    mutable n : int;
  }

  let create () = { a = Array1.create Float64 C_layout 4096; n = 0 }

  let add t v =
    if t.n = Array1.dim t.a then begin
      let b = Array1.create Float64 C_layout (2 * t.n) in
      Array1.blit t.a (Array1.sub b 0 t.n);
      t.a <- b
    end;
    Array1.unsafe_set t.a t.n v;
    t.n <- t.n + 1

  (* Nearest-rank quantiles, over a sorted copy. *)
  let quantiles t qs =
    let n = t.n in
    let s = Array.init n (fun i -> Array1.unsafe_get t.a i) in
    Array.sort Float.compare s;
    List.map
      (fun q ->
        if n = 0 then 0.
        else
          let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
          s.(max 0 (min (n - 1) (rank - 1))))
      qs

  (* Samples strictly beyond the nearest-rank [q]-quantile position. *)
  let beyond t q = t.n - int_of_float (Float.ceil (q *. float_of_int t.n))

  let p50_p99 t =
    match quantiles t [ 0.5; 0.99 ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
end

(* {1 Host speed}

   The shared VM this benchmark was tuned on runs the same code at
   speeds up to 1.8x apart, in phases of seconds to minutes, as its
   neighbours' load changes: ten runs of the same code spread 27-41% in
   raw ops/s. So every [probe_every_ns] the benchmark runs a fixed probe
   between rounds, off the clock. The probe is standard-library work
   only (a [Hashtbl] of short lists, about 100k words of allocation),
   started in an emptied minor heap so that no program data is in it.
   Its time over [probe_ref_ns] is the host factor, and each round's
   times are divided by the median factor of the last [host_window]
   probes. Every rate and time the benchmark reports is thus in
   reference-host time: a change to the program moves it, a change in
   the host's speed much less. The report prints the raw whole-run rate
   and the run's median factor as well. *)

let probe_ref_ns = 350_000.
let probe_every_ns = 100_000_000
let host_window = 10

let probe_ns () =
  Gc.minor ();
  let t0 = now_ns () in
  let h = Hashtbl.create 64 in
  for i = 1 to 4000 do
    let k = i land 255 in
    let l = Option.value ~default:[] (Hashtbl.find_opt h k) in
    Hashtbl.replace h k (List.filteri (fun j _ -> j < 4) (i :: l))
  done;
  let dt = now_ns () - t0 in
  if Hashtbl.length h <> 256 then failwith "host probe";
  dt

type host = {
  recent : float array;  (** the last [host_window] factors, a ring *)
  mutable probes : int;
  mutable last : int;
  factors : Samples.t;  (** every factor of the run *)
  mutable spent_ns : int;  (** wall spent probing *)
}

let host =
  {
    recent = Array.make host_window 1.;
    probes = 0;
    last = 0;
    factors = Samples.create ();
    spent_ns = 0;
  }

(* Probe if none has run for [probe_every_ns]; call between rounds. *)
let host_tick () =
  let t = now_ns () in
  if host.probes = 0 || t - host.last >= probe_every_ns then begin
    let f = float_of_int (probe_ns ()) /. probe_ref_ns in
    host.recent.(host.probes mod host_window) <- f;
    host.probes <- host.probes + 1;
    Samples.add host.factors f;
    host.last <- now_ns ();
    host.spent_ns <- host.spent_ns + (host.last - t)
  end

(* 1 for no samples: before the first probe, times are not rescaled. *)
let median_of a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 1.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The factor to divide the current round's times by. *)
let host_factor () =
  median_of (Array.sub host.recent 0 (min host.probes host_window))

let host_line () =
  Printf.sprintf "host_factor %.4f (median of %d probes; 1 = %.0f us)"
    (fst (Samples.p50_p99 host.factors))
    host.factors.Samples.n (probe_ref_ns /. 1e3)

let describe name s =
  let beyond = Samples.beyond s 0.99 in
  Printf.sprintf "%s: %d samples, %d beyond p99%s" name s.Samples.n beyond
    (if beyond < 10 then "  (WARNING: fewer than 10)" else "")

let median xs = median_of (Array.of_list xs)

(* Set-up runs this many times per run; [setup_s] is their median. *)
let setup_reps = 5

(* [f ()]'s wall in reference-host ns, less the time spent probing;
   [f] calls [host_tick] between its rounds. *)
let time_setup f =
  host_tick ();
  let s0 = host.spent_ns and t0 = now_ns () in
  let r = f () in
  let ns = now_ns () - t0 - (host.spent_ns - s0) in
  (float_of_int ns /. host_factor (), r)

let setup_s runs_ns = median (List.map (fun ns -> ns /. 1e9) runs_ns)

let setup_line runs_ns =
  "setup_s runs: "
  ^ String.concat " "
      (List.map (fun ns -> Printf.sprintf "%.4f" (ns /. 1e9)) runs_ns)

(* Per-layer metrics every traced run returns last, whatever its
   workload. *)
let shared_layer_units =
  [
    ("workload.gen_ms", "ms/kop");
    ("bench.harness_ms", "ms/kop");
    ("trace.coverage_pct", "%");
    ("trace.overhead_pct", "%");
    ("ops_per_s.untraced", "1/s");
    ("ops_per_s.traced", "1/s");
  ]

(* Per-layer self times must account for this share (%) of a traced
   run's timed wall, or the run fails. *)
let coverage_gate = 95.

let coverage_line c =
  Printf.sprintf
    "layer self times cover %.2f%% of the traced timed wall (gate: >= %g%%)"
    c coverage_gate

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* {1 Report} *)

type metric = { name : string; unit_ : string; value : float }

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_report r =
  List.iter print_endline r.notes;
  List.iter
    (fun m -> Printf.printf "%-32s %16.6f %s\n" m.name m.value m.unit_)
    r.metrics;
  Printf.printf "ops attempted %d failed %d correct %b\n" r.attempted
    r.failed r.correct;
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_float m.value) m.unit_)
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.correct r.attempted r.failed
    (String.concat ", " ms);
  flush stdout
