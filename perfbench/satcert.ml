(* sat-certify: the CDCL core with DRUP proof logging, then independent
   certification of every verdict — DRUP replay for UNSAT, evaluation
   of every clause under the model for SAT. No adaptation or serving
   code runs here, so a change confined to lib/adapt or lib/serve must
   leave this workload unmoved.

   One pass solves PHP(9,8), the committed corpus/dimacs files and a
   seeded batch of random 3-SAT instances at the threshold ratio. *)

module Solver = Qca_sat.Solver
module Dimacs = Qca_sat.Dimacs
module Drup = Qca_check.Drup
module Trace = Qca_obs.Trace

(* At 120 variables one instance takes about 17 ms (solve plus
   certify) on a 2-core x86 box, so a pass averages the seed's draw
   over 1200 instances. At 200 variables one instance takes 25 ms to
   3.8 s (1.5 s on average): a pass would hold a dozen and its time
   would follow the draw, not the code. *)
let random_instances = 1200
let random_vars = 120
let corpus_dir = "corpus/dimacs"

type instance = { name : string; text : string; known_sat : bool option }

let inputs ~seed =
  ({ name = "php_9_8"; text = Gen.php ~pigeons:9 ~holes:8; known_sat = Some false }
  :: List.map
       (fun (file, sat) ->
         {
           name = file;
           text = In_channel.with_open_text (Filename.concat corpus_dir file) In_channel.input_all;
           known_sat = Some sat;
         })
       Gen.corpus)
  @ List.init random_instances (fun index ->
        {
          name = Printf.sprintf "rand3_v%d_%d" random_vars index;
          text = Gen.random_3sat ~seed ~index ~vars:random_vars;
          known_sat = None;
        })

type op = {
  label : string;
  random : bool;
  latency_ms : float;  (** parse, load, solve and certify; raw *)
  solve_ms : float;  (** raw *)
  certify_ms : float;  (** raw *)
  at : float;  (** the middle of the operation, where Calib scales it *)
  unsat : bool;
  definite : bool;  (** answered Sat or Unsat, not Unknown *)
  failure : string option;
  conflicts : int;
  propagations : int;
  proof_lines : int;
  replay_propagations : int;
}

let ms_since t0 = (Measure.now () -. t0) *. 1000.0

let solve_and_certify inst =
  let problem = Dimacs.parse_exn inst.text in
  let solver = Trace.span "bench.load" (fun () -> Dimacs.load ~proof:true problem) in
  let t1 = Measure.now () in
  let result = Trace.span "bench.solve" (fun () -> Solver.solve solver) in
  let solve_ms = ms_since t1 in
  let t2 = Measure.now () in
  let outcome =
    Trace.span
      (if result = Solver.Unsat then "bench.replay" else "bench.model")
      (fun () ->
        Drup.certify ~num_vars:problem.Dimacs.num_vars problem.Dimacs.clauses ~solver result)
  in
  (solver, result, outcome, solve_ms, ms_since t2)

let run_instance ~calib inst =
  let (solver, result, outcome, solve_ms, certify_ms), latency_ms, at =
    Calib.timed (fun () -> solve_and_certify inst)
  in
  Calib.tick calib;
  let answer = match result with Solver.Sat -> Some true | Solver.Unsat -> Some false | _ -> None in
  let failure =
    match (outcome.Drup.verdict, answer, inst.known_sat) with
    | _, None, _ -> Some "no verdict"
    | Drup.Refuted why, _, _ -> Some ("certificate refuted: " ^ why)
    | Drup.Unchecked why, _, _ -> Some ("certificate unchecked: " ^ why)
    | Drup.Certified, Some got, Some known when got <> known ->
      Some (Printf.sprintf "verdict %s, known %s"
              (if got then "SAT" else "UNSAT") (if known then "SAT" else "UNSAT"))
    | Drup.Certified, Some _, _ -> None
  in
  let stats = Solver.stats solver in
  {
    label =
      inst.name
      ^ (match answer with Some true -> " SAT" | Some false -> " UNSAT" | None -> " UNKNOWN");
    random = inst.known_sat = None;
    latency_ms;
    solve_ms;
    certify_ms;
    at;
    unsat = result = Solver.Unsat;
    definite = answer <> None;
    failure = Option.map (fun f -> inst.name ^ ": " ^ f) failure;
    conflicts = stats.Solver.conflicts;
    propagations = stats.Solver.propagations;
    proof_lines = outcome.Drup.additions + outcome.Drup.deletions;
    replay_propagations = outcome.Drup.propagations;
  }

type pass = { ops : op list; wall_s : float }

let run_pass ~calib instances =
  let ops, wall_s = Measure.time (fun () -> List.map (run_instance ~calib) instances) in
  { ops; wall_s }

let sum f ops = List.fold_left (fun a o -> a +. f o) 0.0 ops
let isum f ops = List.fold_left (fun a o -> a + f o) 0 ops

(* Latency is sampled per fixed instance and per batch of [batch]
   consecutive random instances. One random instance is either SAT
   (about 6 ms) or UNSAT with a proof to replay (about 22 ms); their
   median falls in the gap between the two and moved 20 % with the
   draw. A batch's time is unimodal; at 8 instances a batch, its median
   and 90th percentile still moved 13 % with the draw. 12 a batch leaves
   the 100 samples the 90th percentile needs. *)
let batch = 12

let latency_samples latency ops =
  let fixed, random = List.partition (fun o -> not o.random) ops in
  let rec batches acc = function
    | [] -> acc
    | l ->
      let b = List.filteri (fun i _ -> i < batch) l in
      batches (sum latency b :: acc) (List.filteri (fun i _ -> i >= batch) l)
  in
  Array.of_list (List.map latency fixed @ List.rev (batches [] random))

(* A pass's time is the sum of its operations' scaled latencies. *)
let pass_metrics scale p =
  let n = List.length p.ops in
  let scaled f o = f o *. scale o.at in
  let latency = scaled (fun o -> o.latency_ms) in
  let open Measure in
  metric "ops_per_s" "1/s" (float_of_int n /. (sum latency p.ops /. 1000.0))
  :: latency_metrics (latency_samples latency p.ops)
  @ [
      metric "solve_s" "s" (sum (scaled (fun o -> o.solve_ms)) p.ops /. 1000.0);
      metric "certify_s" "s" (sum (scaled (fun o -> o.certify_ms)) p.ops /. 1000.0);
      metric ~samples:n "full_share" "share"
        (float_of_int (List.length (List.filter (fun o -> o.definite) p.ops))
        /. float_of_int n);
    ]

let end_to_end ~scale ~setup passes =
  let open Measure in
  (metric ~samples:(Array.length setup) "setup_s" "s" (Stats.median setup)
  :: median_of_passes (List.map (pass_metrics scale) passes))
  @ [ metric "peak_rss_mb" "MB" (self_peak_rss_mb ()) ]

let per_layer ~reference ~traced =
  let t = Spans.self_times (Spans.of_trace ()) in
  let ops = traced.ops in
  let n = List.length ops in
  let unsat = List.filter (fun o -> o.unsat) ops in
  let solve_s = sum (fun o -> o.solve_ms) ops /. 1000.0 in
  let props = float_of_int (isum (fun o -> o.propagations) ops) in
  let replay_ms = sum (fun o -> o.certify_ms) unsat in
  let unsat_solve_ms = sum (fun o -> o.solve_ms) unsat in
  let count f = (float_of_int (isum f ops), n) in
  Measure.simplify_layers t
  @ [
      ("sat.conflicts", count (fun o -> o.conflicts));
      ("sat.propagations", count (fun o -> o.propagations));
      ("sat.props_per_s", ((if solve_s > 0.0 then props /. solve_s else 0.0), n));
      ("check.replay_ms", (replay_ms, List.length unsat));
      ( "check.replay_ratio",
        ((if unsat_solve_ms > 0.0 then replay_ms /. unsat_solve_ms else 0.0), List.length unsat) );
      ("check.proof_lines", count (fun o -> o.proof_lines));
      ("check.replay_propagations", count (fun o -> o.replay_propagations));
    ]
  @ Measure.trace_layers ~reference_s:reference.wall_s ~traced_s:traced.wall_s
      ~accounted:(Measure.accounted t)

let run ~seed ~seconds ~trace =
  let calib = if trace then Calib.off () else Calib.create () in
  let setup =
    (* generating 1200 CNFs takes about 0.5 s, so fewer samples do *)
    List.init 5 (fun _ ->
        let (), ms, at = Calib.timed (fun () -> ignore (inputs ~seed)) in
        Calib.tick calib;
        (ms, at))
  in
  let instances = inputs ~seed in
  let report passes metrics =
    let ops = List.concat_map (fun p -> p.ops) passes in
    {
      Measure.attempted = List.length ops;
      failures = List.filter_map (fun o -> o.failure) ops;
      metrics;
      notes =
        [
          ("passes", string_of_int (List.length passes));
          ("instances_per_pass", string_of_int (List.length instances));
        ]
        @ Calib.notes calib;
      ops = List.map (fun o -> (o.label, o.latency_ms)) ops;
    }
  in
  if trace then
    let reference, traced =
      Measure.traced_pair (fun ~traced:_ -> run_pass ~calib instances)
    in
    report [ reference; traced ] (Measure.per_layer_metrics (per_layer ~reference ~traced))
  else
    let passes = Measure.timed_passes ~calib ~seconds (fun _ -> run_pass ~calib instances) in
    let scale = Calib.scale calib in
    report passes (end_to_end ~scale ~setup:(Measure.scaled_s scale setup) passes)
