(* paper-suite: the paper's own batch traffic, sequential at jobs 1.

   One pass adapts the 13 evaluation circuits with direct translation
   and the seven methods of Figs. 5/6 on D0, then the 11 simulation
   circuits with the same eight methods plus noisy density-matrix
   simulation (Fig. 7). Each operation is one certified adaptation:
   adapt, then Lint.certify_adaptation — the path `qca-adapt --certify`
   serves. The loop mirrors Experiments.evaluate_case and
   Experiments.fig7 call for call, so on the default seed its values
   must equal the committed table those functions produced.

   One operation is left out of the timed passes: SAT F on the depth-160
   random circuit. It takes 25-35 s, three quarters of a pass, almost
   all of it in one inprocessing call (sat.simplify.subsume); as one
   sample per run it moved ops_per_s and solve_s by more than their
   bounds between runs of the same code. The traced run keeps it, so
   its cost shows in adapt.sat_f_s and sat.simplify.subsume_ms. *)

module Pipeline = Qca_adapt.Pipeline
module Hardware = Qca_adapt.Hardware
module Lint = Qca_adapt.Lint
module AMetrics = Qca_adapt.Metrics
module Density = Qca_sim.Density
module Hellinger = Qca_sim.Hellinger
module Trace = Qca_obs.Trace
module Obs = Qca_obs.Metrics
module W = Qca_workloads.Workloads
module E = Qca_experiments.Experiments
module Solver = Qca_sat.Solver
module Model = Qca_adapt.Model

let hw = Hardware.d0

let noise =
  {
    Density.gate_fidelity = Hardware.fidelity hw;
    duration = Hardware.duration hw;
    t1 = hw.Hardware.t1;
    t2 = hw.Hardware.t2;
  }

let methods = Pipeline.Direct :: E.methods

type op = {
  fig : string;
  case : string;
  meth : string;
  latency_ms : float;  (** raw *)
  certify_ms : float;  (** raw *)
  at : float;  (** the middle of the operation, where Calib scales it *)
  full : bool;
  errors : string list;
  values : string;  (** the expected-table cells, "" when not tabled *)
  subs : int;
}

let is_smt = function Pipeline.Sat _ | Pipeline.Greedy _ -> true | _ -> false

let adapt ?template m c =
  let group =
    match m with
    | Pipeline.Direct -> "direct"
    | m when is_smt m -> "sat"
    | _ -> "heuristic"
  in
  Trace.span ("bench.adapt." ^ group) (fun () ->
      Pipeline.adapt_governed ~budget:(Solver.budget ()) ?template hw m c)

let certify ~original (o : Pipeline.outcome) =
  let issues, ms, _ =
    Calib.timed (fun () ->
        Trace.span "bench.certify" (fun () ->
            Lint.certify_adaptation hw ~original ~adapted:o.Pipeline.circuit
              ?claimed_makespan:o.Pipeline.claimed_makespan ()))
  in
  (List.map (Format.asprintf "%a" Lint.pp_issue) (Lint.errors issues), ms)

(* The certification an operation made, timed [reps - 1] more times
   outside the operation's timer, as the median of all [reps]: a pass's
   certifications add up to 0.4 s, and at that length their sum moved
   14 % between runs of the same work. *)
let recertified ~reps first again =
  Stats.median (Array.of_list (first :: List.init (reps - 1) (fun _ -> again ())))

(* One operation, then the reference kernel when it is due. *)
let timed calib f =
  let r = Calib.timed (fun () -> Trace.span "bench.op" f) in
  Calib.tick calib;
  r

let fig56_values (s : AMetrics.summary) =
  Printf.sprintf "%d\t%.12g\t%d\t%d" s.AMetrics.duration s.AMetrics.fidelity
    s.AMetrics.idle_total s.AMetrics.two_qubit_gates

let fig7_values ~hellinger ~idle ~idle_direct =
  let decrease =
    if idle_direct = 0 then 0.0
    else float_of_int (idle_direct - idle) /. float_of_int idle_direct *. 100.0
  in
  Printf.sprintf "%.12g\t%.12g" hellinger decrease

let make_op ~fig ~case m (o : Pipeline.outcome) ~errors ~certify_ms ~latency_ms ~at
    values =
  {
    fig;
    case;
    meth = Pipeline.method_name m;
    latency_ms;
    certify_ms;
    at;
    full = o.Pipeline.tier = Pipeline.Full && o.Pipeline.reason = None;
    errors;
    values = (if m = Pipeline.Direct then "" else values);
    subs = o.Pipeline.info.Pipeline.substitutions_considered;
  }

let long_op (k : W.case) m =
  k.W.label = "rand n=4 depth=160" && m = Pipeline.Sat Model.Sat_f

(* Figs. 5/6: the SMT methods of a case share one prepared template,
   as in Experiments.evaluate_case; preparing it is charged to the first
   SMT adaptation that needs it. [~long:false] leaves out [long_op]. *)
let fig56_case ~calib ~reps ~long (k : W.case) =
  let c = k.W.circuit in
  let template = ref None in
  let get_template () =
    match !template with
    | Some t -> t
    | None ->
      let t = Trace.span "bench.prepare" (fun () -> Pipeline.prepare hw c) in
      template := Some t;
      t
  in
  List.map
    (fun m ->
      let (o, errors, certify_ms), latency_ms, at =
        timed calib (fun () ->
            let template = if is_smt m then Some (get_template ()) else None in
            let o = adapt ?template m c in
            let errors, certify_ms = certify ~original:c o in
            (o, errors, certify_ms))
      in
      let certify_ms = recertified ~reps certify_ms (fun () -> snd (certify ~original:c o)) in
      make_op ~fig:"fig5/6" ~case:k.W.label m o ~errors ~certify_ms ~latency_ms ~at
        (fig56_values (AMetrics.summarize hw o.Pipeline.circuit)))
    (List.filter (fun m -> long || not (long_op k m)) methods)

(* Fig. 7: every method builds its own model (no template), as in
   Experiments.fig7; the ideal distribution is charged to the case's
   direct-translation operation. *)
let fig7_case ~calib ~reps (k : W.case) =
  let c = k.W.circuit in
  let ideal = ref [||] in
  let idle_direct = ref 0 in
  List.map
    (fun m ->
      let (o, errors, certify_ms, hellinger), latency_ms, at =
        timed calib (fun () ->
            if m = Pipeline.Direct then
              ideal :=
                Trace.span "bench.sim.ideal" (fun () ->
                    Density.probabilities (Density.run_ideal c));
            let o = adapt m c in
            let errors, certify_ms = certify ~original:c o in
            let noisy =
              Trace.span "bench.sim" (fun () ->
                  Density.probabilities (Density.run_noisy noise o.Pipeline.circuit))
            in
            (o, errors, certify_ms, Hellinger.fidelity !ideal noisy))
      in
      let idle = (AMetrics.summarize hw o.Pipeline.circuit).AMetrics.idle_total in
      if m = Pipeline.Direct then idle_direct := idle;
      let certify_ms = recertified ~reps certify_ms (fun () -> snd (certify ~original:c o)) in
      make_op ~fig:"fig7" ~case:k.W.label m o ~errors ~certify_ms ~latency_ms ~at
        (fig7_values ~hellinger ~idle ~idle_direct:!idle_direct))
    methods

type pass = {
  ops : op list;
  collections : (float * float) list;  (** raw ms and time of each case's collection *)
  wall_s : float;
}

(* Each case starts from a collected heap, so the garbage an earlier
   case left behind neither lands in its operations' latencies nor sets
   the peak memory; the seeded case order then moves neither. The
   collections count in the pass's time, as collecting garbage is part
   of what the program costs. *)
let run_pass ~calib ~reps ~long (eval, sim) =
  let collections = ref [] in
  let settled f k =
    let (), ms, at = Calib.timed Gc.full_major in
    collections := (ms, at) :: !collections;
    f k
  in
  let ops, wall_s =
    Measure.time (fun () ->
        List.concat_map (settled (fig56_case ~calib ~reps ~long)) eval
        @ List.concat_map (settled (fig7_case ~calib ~reps)) sim)
  in
  { ops; collections = !collections; wall_s }

(* {1 Expected table} *)

let table_key ~fig ~case ~meth = String.concat "\t" [ fig; case; meth ]

(* The table for the default seed, produced by the library's own batch
   evaluators rather than by this file's loop. *)
let expected_table () =
  let rows = E.fig5_fig6 hw (W.evaluation_suite ()) in
  let sim_rows = E.fig7 hw (W.simulation_suite ()) in
  List.map
    (fun r ->
      table_key ~fig:"fig5/6" ~case:r.E.case ~meth:r.E.method_
      ^ Printf.sprintf "\t%d\t%.12g\t%d\t%d" r.E.duration r.E.fidelity r.E.idle
          r.E.two_qubit_gates)
    rows
  @ List.map
      (fun r ->
        table_key ~fig:"fig7" ~case:r.E.sim_case ~meth:r.E.sim_method
        ^ Printf.sprintf "\t%.12g\t%.12g" r.E.hellinger r.E.sim_idle_decrease)
      sim_rows

let load_table file =
  let tbl = Hashtbl.create 200 in
  In_channel.with_open_text file In_channel.input_lines
  |> List.iter (fun line ->
         match String.split_on_char '\t' line with
         | fig :: case :: meth :: values when values <> [] ->
           Hashtbl.replace tbl (table_key ~fig ~case ~meth) (String.concat "\t" values)
         | _ -> ());
  tbl

(* {1 Run} *)

(* One line per failed operation: a Lint error, or values that differ
   from the committed table (every seed runs the paper's circuits). *)
let failures_of ~table ops =
  List.filter_map
    (fun o ->
      let table_problem =
        if o.values = "" then []
        else
          match Hashtbl.find_opt table (table_key ~fig:o.fig ~case:o.case ~meth:o.meth) with
          | Some v when v = o.values -> []
          | Some v -> [ Printf.sprintf "values %S, expected %S" o.values v ]
          | None -> [ "missing from the expected table" ]
      in
      match List.map (fun e -> "lint: " ^ e) o.errors @ table_problem with
      | [] -> None
      | problems ->
        Some (Printf.sprintf "%s %s %s: %s" o.fig o.case o.meth (String.concat "; " problems)))
    ops

let sum_ms f ops = List.fold_left (fun a o -> a +. f o) 0.0 ops

let scaled scale f o = f o *. scale o.at

(* A pass's time is the sum of its operations' scaled latencies and of
   its collections between cases. *)
let pass_metrics scale p =
  let n = List.length p.ops in
  let latency = sum_ms (scaled scale (fun o -> o.latency_ms)) p.ops in
  let certify = sum_ms (scaled scale (fun o -> o.certify_ms)) p.ops in
  let collect = List.fold_left (fun a (ms, at) -> a +. (ms *. scale at)) 0.0 p.collections in
  let open Measure in
  [
    metric "ops_per_s" "1/s" (float_of_int n /. ((latency +. collect) /. 1000.0));
    metric "solve_s" "s" ((latency -. certify) /. 1000.0);
    metric "certify_s" "s" (certify /. 1000.0);
    metric ~samples:n "full_share" "share"
      (float_of_int (List.length (List.filter (fun o -> o.full) p.ops)) /. float_of_int n);
  ]

(* The latency percentiles are taken over every operation of the run. *)
let end_to_end ~scale ~setup passes =
  let open Measure in
  let latencies =
    Array.of_list
      (List.concat_map
         (fun (p : pass) -> List.map (scaled scale (fun o -> o.latency_ms)) p.ops)
         passes)
  in
  in_catalogue_order
    ((metric ~samples:(Array.length setup) "setup_s" "s" (Stats.median setup)
     :: latency_metrics latencies)
    @ median_of_passes (List.map (pass_metrics scale) passes)
    @ [ metric "peak_rss_mb" "MB" (self_peak_rss_mb ()) ])

let counter name =
  List.find_map
    (function Obs.Counter_v (n, v) when n = name -> Some (float_of_int v) | _ -> None)
    (Obs.export ())
  |> Option.value ~default:0.0

let per_layer ~reference ~traced =
  let t = Spans.self_times (Spans.of_trace ()) in
  let n_ops = List.length traced.ops in
  let sat_ops = List.filter (fun o -> o.subs > 0) traced.ops in
  let solve_s = Spans.incl_ms t "solve" /. 1000.0 in
  let props = counter "sat.propagations" in
  let by_method meth =
    let ops = List.filter (fun o -> o.meth = meth) reference.ops in
    (sum_ms (fun o -> o.latency_ms) ops /. 1000.0, List.length ops)
  in
  Measure.adapt_layers t
  @ [
      ( "adapt.subs",
        (float_of_int (List.fold_left (fun a o -> a + o.subs) 0 sat_ops), List.length sat_ops) );
      ("sat.conflicts", (counter "sat.conflicts", n_ops));
      ("sat.propagations", (props, n_ops));
      ("sat.props_per_s", ((if solve_s > 0.0 then props /. solve_s else 0.0), n_ops));
      Measure.incl_layer t "lint.certify_ms" [ "bench.certify" ];
      Measure.incl_layer t "method.heuristic_ms" [ "bench.adapt.heuristic" ];
      Measure.incl_layer t "sim.noisy_ms" [ "bench.sim" ];
      ("adapt.sat_f_s", by_method "SAT F");
      ("adapt.sat_r_s", by_method "SAT R");
      ("adapt.sat_p_s", by_method "SAT P");
    ]
  @ Measure.trace_layers ~reference_s:reference.wall_s ~traced_s:traced.wall_s
      ~accounted:(Measure.accounted t)

let run ~seed ~seconds ~trace =
  let calib = if trace then Calib.off () else Calib.create () in
  let setup =
    (* generating the suites takes about 10 ms: sample it 51 times *)
    List.init 51 (fun _ ->
        let (), ms, at = Calib.timed (fun () -> ignore (Gen.paper_suites ~seed)) in
        Calib.tick calib;
        (ms, at))
  in
  let suites = Gen.paper_suites ~seed in
  let table = load_table Measure.expected_file in
  let report passes metrics =
    let ops = List.concat_map (fun p -> p.ops) passes in
    {
      Measure.attempted = List.length ops;
      failures = failures_of ~table ops;
      metrics;
      notes = ("passes", string_of_int (List.length passes)) :: Calib.notes calib;
      ops = List.map (fun o -> (Printf.sprintf "%s %s %s" o.fig o.case o.meth, o.latency_ms)) ops;
    }
  in
  if trace then
    let reference, traced =
      Measure.traced_pair (fun ~traced:_ -> run_pass ~calib ~reps:1 ~long:true suites)
    in
    report [ reference; traced ]
      (Measure.per_layer_metrics (per_layer ~reference ~traced))
  else
    (* a pass takes about 15 s of reference time, so at --seconds 30 a
       second pass fell either side of the limit; two make runs alike *)
    let passes =
      Measure.timed_passes ~min_passes:2 ~calib ~seconds (fun _ ->
          run_pass ~calib ~reps:5 ~long:false suites)
    in
    let scale = Calib.scale calib in
    report passes (end_to_end ~scale ~setup:(Measure.scaled_s scale setup) passes)
