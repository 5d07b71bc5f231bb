(* What every workload reports, and the pieces they share: the pass
   loop, peak memory, run metadata and the printed result. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;  (** how many measurements the value summarizes *)
}

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

type report = {
  attempted : int;
  failures : string list;  (** one line per failed operation *)
  metrics : metric list;  (** end-to-end, or per-layer on a traced run *)
  notes : (string * string) list;  (** extra facts recorded in the result *)
  ops : (string * float) list;  (** every operation's label and latency, ms *)
}

let now = Qca_util.Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The five slowest operations, so a slow run names what was slow. *)
let slowest labelled =
  List.sort (fun (_, a) (_, b) -> Float.compare b a) labelled
  |> List.filteri (fun i _ -> i < 5)
  |> List.map (fun (label, ms) -> Printf.sprintf "%s %.0f ms" label ms)
  |> String.concat "; "

(* Every pass yields the same metrics; a run reports the median of each
   over its passes, so one pass the machine disturbed does not move the
   result. Sample counts add up. *)
let median_of_passes = function
  | [] -> []
  | first :: _ as per_pass ->
    List.map
      (fun m ->
        let same = List.map (List.find (fun x -> x.name = m.name)) per_pass in
        {
          m with
          value = Stats.median (Array.of_list (List.map (fun x -> x.value) same));
          samples = List.fold_left (fun a x -> a + x.samples) 0 same;
        })
      first

(* Runs whole passes over the workload's inputs until another pass would
   overrun [seconds]; always at least [min_passes]. A pass is the unit
   the summed metrics are defined over, so a partial pass is never kept.
   Elapsed time is counted in reference time (see Calib), so how many
   passes a run makes does not follow the machine's speed. *)
let timed_passes ?(min_passes = 1) ~calib ~seconds f =
  let t0 = now () in
  let rec go k acc =
    let r = f k in
    let elapsed = (now () -. t0) *. Calib.current calib in
    let per_pass = elapsed /. float_of_int (k + 1) in
    if k + 1 < min_passes || elapsed +. per_pass <= seconds then go (k + 1) (r :: acc)
    else List.rev (r :: acc)
  in
  go 0 []

(* Set-up samples, each a raw time in ms with the time to scale it at,
   as scaled seconds. *)
let scaled_s scale samples =
  Array.of_list (List.map (fun (ms, at) -> ms *. scale at /. 1000.0) samples)

(* Peak resident set (VmHWM) of a process, in MB; Linux /proc only. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; rest ] ->
          Scanf.sscanf_opt (String.trim rest) "%d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> None)
      (String.split_on_char '\n' text)

let self_peak_rss_mb () = Option.value (peak_rss_mb "self") ~default:0.0

(* {1 Run metadata} *)

(* The machine's online processors. [Domain.recommended_domain_count]
   counts only those the run may use, one when run.py pins it. *)
let online_cpus () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_lines with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | lines -> List.length (List.filter (String.starts_with ~prefix:"processor") lines)

let rec source_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.sort compare entries;
    List.concat_map
      (fun e ->
        let p = Filename.concat dir e in
        if Sys.is_directory p then source_files p
        else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                || Filename.basename p = "dune"
        then [ p ]
        else [])
      (Array.to_list entries)

(* The git commit when run inside a clone; otherwise a digest of the
   library and binary sources, which identifies the code just as well. *)
let commit () =
  let from_git =
    if not (Sys.file_exists ".git") then None
    else
    try
      let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some h -> Some (String.trim h)
      | _ -> None
    with Unix.Unix_error _ | Sys_error _ -> None
  in
  match from_git with
  | Some h -> h
  | None ->
    let files = source_files "lib" @ source_files "bin" in
    "src-"
    ^ String.sub
        (Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file files))))
        0 12

(* {1 Output} *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s = "\"" ^ Qca_obs.Metrics.json_escape s ^ "\""

let print_table ~title metrics =
  Printf.printf "%s\n  %-32s %18s  %-6s %s\n" title "metric" "value" "unit" "samples";
  List.iter
    (fun m -> Printf.printf "  %-32s %18.6f  %-6s %d\n" m.name m.value m.unit_ m.samples)
    metrics

let metrics_json metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
             (json_number m.value) (json_string m.unit_))
         metrics)
  ^ "}"

(* The full result, with metadata and sample counts, kept under _build
   next to the build it measured. *)
let write_detail ~file ~meta report =
  let body =
    Printf.sprintf
      "{\"meta\": {%s},\n \"attempted\": %d, \"failed\": %d,\n \"failures\": [%s],\n \"metrics\": [%s],\n \"ops\": [%s]}\n"
      (String.concat ", "
         (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) meta))
      report.attempted (List.length report.failures)
      (String.concat ", " (List.map json_string report.failures))
      (String.concat ",\n  "
         (List.map
            (fun m ->
              Printf.sprintf "{\"name\": %s, \"value\": %s, \"unit\": %s, \"samples\": %d}"
                (json_string m.name) (json_number m.value) (json_string m.unit_)
                m.samples)
            report.metrics))
      (String.concat ",\n  "
         (List.map
            (fun (label, ms) -> Printf.sprintf "[%s, %s]" (json_string label) (json_number ms))
            report.ops))
  in
  (try Sys.mkdir (Filename.dirname file) 0o755 with Sys_error _ -> ());
  Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc body)

(* {1 Metric catalogue}

   Every run prints every metric of its kind, on every workload, in
   this order; a layer a workload does not exercise reads 0. *)

let end_to_end_units =
  [
    ("setup_s", "s"); ("ops_per_s", "1/s"); ("latency_ms.p50", "ms");
    ("latency_ms.p90", "ms"); ("solve_s", "s"); ("certify_s", "s");
    ("full_share", "share"); ("peak_rss_mb", "MB");
  ]

let per_layer_units =
  [
    ("circuit.partition_ms", "ms"); ("adapt.match_ms", "ms");
    ("adapt.encode_ms", "ms"); ("adapt.apply_ms", "ms"); ("adapt.subs", "count");
    ("omt.warm_start_ms", "ms"); ("omt.selector_build_ms", "ms");
    ("omt.round_ms", "ms"); ("omt.rounds", "count"); ("omt.cut_ms", "ms");
    ("sat.simplify_ms", "ms"); ("sat.simplify.subsume_ms", "ms");
    ("sat.conflicts", "count"); ("sat.propagations", "count");
    ("sat.props_per_s", "1/s"); ("check.replay_ms", "ms");
    ("check.replay_ratio", "ratio"); ("check.proof_lines", "count");
    ("check.replay_propagations", "count"); ("lint.certify_ms", "ms");
    ("method.heuristic_ms", "ms"); ("sim.noisy_ms", "ms");
    ("adapt.sat_f_s", "s"); ("adapt.sat_r_s", "s"); ("adapt.sat_p_s", "s");
    ("serve.queue_ms.p50", "ms"); ("serve.solve_ms.p50", "ms");
    ("serve.transport_ms.p50", "ms"); ("serve.hit_ms.p50", "ms");
    ("serve.miss_ms.p50", "ms"); ("serve.cache.hit_share", "share");
    ("serve.template.reuse_share", "share");
    ("serve.tier.incumbent_share", "share"); ("serve.tier.greedy_share", "share");
    ("serve.tier.direct_share", "share");
    ("serve.deadline_overshoot_ms.max", "ms"); ("serve.retries", "count");
    ("trace.overhead_pct", "%"); ("trace.accounted_pct", "%");
  ]

(* End-to-end metrics in the order of the catalogue. *)
let in_catalogue_order metrics =
  List.filter_map
    (fun (name, _) -> List.find_opt (fun m -> m.name = name) metrics)
    end_to_end_units

let unit_of table name =
  match List.assoc_opt name table with
  | Some u -> u
  | None -> invalid_arg ("Measure: metric missing from the catalogue: " ^ name)

(* A per-layer reading: value and the number of spans, operations or
   responses behind it. *)
type layer = string * (float * int)

(* [metric] read as the self time of the spans called [span]. *)
let self_layer t metric span = (metric, (Spans.self_ms t span, Spans.count t span))

(* [metric] read as the whole duration of the spans called [spans]. *)
let incl_layer t metric spans =
  ( metric,
    ( List.fold_left (fun a s -> a +. Spans.incl_ms t s) 0.0 spans,
      List.fold_left (fun a s -> a + Spans.count t s) 0 spans ) )

(* The catalogue fixes the order and fills in the layers this workload
   leaves idle. *)
let per_layer_metrics (values : layer list) =
  List.iter (fun (n, _) -> ignore (unit_of per_layer_units n)) values;
  List.map
    (fun (name, unit_) ->
      let value, samples = Option.value (List.assoc_opt name values) ~default:(0.0, 0) in
      metric ~samples name unit_ value)
    per_layer_units

(* A median for the per-layer table: 0 with its short sample count when
   the percentile rule does not allow reporting it. *)
let layer_p50 name xs =
  (name, (Option.value (Stats.percentile ~pct:50 xs) ~default:0.0, Array.length xs))

(* The inprocessing and adaptation-side layers, from the spans the
   program emits. *)
let simplify_layers t =
  [
    incl_layer t "sat.simplify_ms" [ "sat.simplify"; "sat.simplify.light" ];
    incl_layer t "sat.simplify.subsume_ms" [ "sat.simplify.subsume" ];
  ]

let adapt_layers t =
  let rounds = Spans.count t "omt.round" in
  [
    self_layer t "circuit.partition_ms" "partition";
    self_layer t "adapt.match_ms" "match";
    self_layer t "adapt.encode_ms" "encode";
    self_layer t "adapt.apply_ms" "apply";
    self_layer t "omt.warm_start_ms" "omt.warm_start";
    self_layer t "omt.selector_build_ms" "omt.selector.build";
    self_layer t "omt.round_ms" "omt.round";
    ("omt.rounds", (float_of_int rounds, rounds));
    self_layer t "omt.cut_ms" "omt.cut";
  ]
  @ simplify_layers t

exception Too_few_samples of string

let latency_metrics lat =
  List.map
    (fun pct ->
      let name = Printf.sprintf "latency_ms.p%d" pct in
      match Stats.percentile ~pct lat with
      | Some v -> metric ~samples:(Array.length lat) name "ms" v
      | None ->
        raise
          (Too_few_samples
             (Printf.sprintf "%s needs %d samples beyond it, the run has %d in all"
                name Stats.min_beyond (Array.length lat))))
    [ 50; 90 ]

(* The benchmark's spans that stand for one layer's public call. Its
   other spans wrap a whole operation (bench.op), a round trip
   (bench.call) or a pipeline entry point whose layers open spans of
   their own (bench.adapt.sat, bench.adapt.direct, bench.prepare): their
   self time is time that no layer accounts for. *)
let layer_bench_spans =
  [
    "bench.certify"; "bench.sim"; "bench.sim.ideal"; "bench.adapt.heuristic";
    "bench.load"; "bench.solve"; "bench.replay"; "bench.model";
  ]

let is_layer_span name =
  (not (String.starts_with ~prefix:"bench." name)) || List.mem name layer_bench_spans

(* Self time of the program's spans and of the layer spans above, with
   the number of spans behind it. *)
let accounted totals = Spans.total_self ~keep:is_layer_span totals

(* Tracing overhead is the traced pass against the untraced pass of the
   same run; [accounted] is the share of the traced pass's wall time
   that the self times of layer spans cover. *)
let trace_layers ~reference_s ~traced_s ~accounted:(accounted_ms, spans) =
  [
    ("trace.overhead_pct", (100.0 *. (traced_s -. reference_s) /. reference_s, 2));
    ("trace.accounted_pct", (100.0 *. accounted_ms /. 1000.0 /. traced_s, spans));
  ]

let expected_file = "perfbench/expected/paper-suite-seed0.tsv"

(* A traced run makes one untraced pass, the reference for the tracing
   overhead, then one pass with the tracer and metrics registry on. *)
let traced_pair pass =
  let reference = pass ~traced:false in
  Qca_obs.Trace.reset ();
  Qca_obs.Metrics.reset ();
  Qca_obs.Trace.set_enabled true;
  Qca_obs.Metrics.set_enabled true;
  let traced =
    Fun.protect
      ~finally:(fun () ->
        Qca_obs.Trace.set_enabled false;
        Qca_obs.Metrics.set_enabled false)
      (fun () -> pass ~traced:true)
  in
  (reference, traced)
