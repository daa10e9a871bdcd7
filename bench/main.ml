(* Experiment harness: regenerates every figure/table of the paper
   reproduction, E1-E18 (see DESIGN.md's experiment index and
   EXPERIMENTS.md for paper-vs-measured), and runs the bechamel timing
   suite. Engine throughput and per-layer cost are measured by
   perfbench/, and engine identity checks live in `dune test`.

     dune exec bench/main.exe            full run
     dune exec bench/main.exe -- quick   reduced sample counts
     dune exec bench/main.exe -- e9      a single experiment
     dune exec bench/main.exe -- jobs=4  parallel sweeps (4 domains) *)

let quick = Array.exists (( = ) "quick") Sys.argv

let () =
  Array.iter
    (fun a ->
      match String.index_opt a '=' with
      | Some i when String.sub a 0 i = "jobs" ->
          Util.set_jobs
            (int_of_string (String.sub a (i + 1) (String.length a - i - 1)))
      | _ -> ())
    Sys.argv

let selected name =
  let explicit =
    Array.to_list Sys.argv |> List.tl
    |> List.filter (fun a -> a <> "quick" && not (String.contains a '='))
  in
  explicit = [] || List.mem name explicit

let () =
  let results = ref [] in
  let record name ok = results := (name, ok) :: !results in
  if selected "e1" then
    record "E1 fig1-topography" (E_fig1.run ~samples:(if quick then 100 else 400));
  if selected "e2" then record "E2 sec4-ols-pair" (E_ols_pair.run ());
  if selected "e3" || selected "e4" || selected "e5" then
    record "E3-E5 theorems-1-3"
      (E_theorems.run ~samples:(if quick then 100 else 400));
  if selected "e6" || selected "e7" || selected "e8" || selected "e12" then
    record "E6-E8,E12 reductions"
      (E_reductions.run ~trials:(if quick then 8 else 25));
  if selected "e9" then
    record "E9 ladder" (E_ladder.run ~samples:(if quick then 60 else 200));
  if selected "e10" then
    record "E10 engine"
      (E_engine.run ~seeds:(if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ]));
  if selected "e11" then
    record "E11 scaling" (E_scaling.run ~per_size:(if quick then 4 else 10));
  if selected "e13" then
    record "E13 hierarchy"
      (E_hierarchy.run ~samples:(if quick then 80 else 300));
  if selected "e14" then
    record "E14 family-lattice"
      (E_family.run ~samples:(if quick then 100 else 400));
  if selected "e15" then
    record "E15 gc-ablation"
      (E_ablation.run_gc ~seeds:(if quick then [ 1 ] else [ 1; 2; 3 ]));
  if selected "e16" then
    record "E16 solver-ablation"
      (E_ablation.run_solver ~trials:(if quick then 5 else 15));
  if selected "e17" then
    record "E17 deadlock-ablation"
      (E_ablation.run_deadlock ~seeds:(if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ]));
  if selected "e18" then
    record "E18 online-cert"
      (E_online.run
         ~sizes:(if quick then [ 100; 300 ] else [ 100; 300; 1000; 3000 ]));
  if selected "timing" && not quick then Timing.run ();
  Util.section "Summary";
  List.iter
    (fun (name, ok) ->
      Util.row "%-24s %s@." name (if ok then "PASS" else "FAIL"))
    (List.rev !results);
  if List.exists (fun (_, ok) -> not ok) !results then exit 1
