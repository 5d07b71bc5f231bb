(* Tests of the benchmark's own code: the percentile rule, seed
   determinism of every generated input, self time on a synthetic span
   tree, machine-speed scaling, and agreement of the metric catalogue with BENCHMARK.json. *)

open Perfbench
module W = Qca_workloads.Workloads
module Parse = Qca_circuit.Parse
module Protocol = Qca_serve.Protocol
module J = Qca_obs.Json

let floats n = Array.init n (fun i -> float_of_int (i + 1))

(* {1 Percentile rule} *)

let test_percentile_rule () =
  Alcotest.(check bool) "p90 of 99 samples withheld" true
    (Stats.percentile ~pct:90 (floats 99) = None);
  Alcotest.(check bool) "p90 of 100 samples reported" true
    (Stats.percentile ~pct:90 (floats 100) <> None);
  Alcotest.(check bool) "p50 of 19 samples withheld" true
    (Stats.percentile ~pct:50 (floats 19) = None);
  Alcotest.(check bool) "p50 of 20 samples reported" true
    (Stats.percentile ~pct:50 (floats 20) <> None);
  Alcotest.(check bool) "p99 of 999 samples withheld" true
    (Stats.percentile ~pct:99 (floats 999) = None)

let test_percentile_values () =
  let close = Alcotest.float 1e-9 in
  Alcotest.check close "p90 of 1..100 interpolates" 90.1
    (Option.get (Stats.percentile ~pct:90 (floats 100)));
  Alcotest.check close "median of an even count" 10.5 (Stats.median (floats 20));
  Alcotest.check close "input order does not matter" 10.5
    (Stats.median (Array.of_list (List.rev (Array.to_list (floats 20)))))

(* {1 Seed determinism} *)

let texts cases = List.map (fun k -> (k.W.label, Parse.to_text k.W.circuit)) cases

let deep_text = "qubits 3\ncx 0 1\ncx 1 2\n"

let test_default_seed_is_the_paper_suite () =
  let eval, sim = Gen.paper_suites ~seed:Gen.default_seed in
  Alcotest.(check (list (pair string string))) "evaluation suite, paper order"
    (texts (W.evaluation_suite ())) (texts eval);
  Alcotest.(check (list (pair string string))) "simulation suite, paper order"
    (texts (W.simulation_suite ())) (texts sim);
  Alcotest.(check (list (pair string string))) "draw 0 of the shapes is the paper's"
    (texts (W.evaluation_suite ()))
    (texts (List.map (Gen.case_of ~draw:0) Gen.evaluation_shapes))

let test_circuits_deterministic () =
  let a = texts (fst (Gen.paper_suites ~seed:7)) in
  Alcotest.(check (list (pair string string))) "same seed, same order" a
    (texts (fst (Gen.paper_suites ~seed:7)));
  Alcotest.(check (list (pair string string))) "another seed reorders the same cases"
    (List.sort compare (texts (W.evaluation_suite ()))) (List.sort compare a);
  Alcotest.(check bool) "the order follows the seed" true
    (a <> texts (fst (Gen.paper_suites ~seed:8)));
  let serve = Gen.serve_circuits ~deep_text in
  Alcotest.(check bool) "serve circuits do not depend on the seed" true
    (serve = Gen.serve_circuits ~deep_text);
  Alcotest.(check int) "serve circuits are distinct" (Array.length serve)
    (List.length (List.sort_uniq compare (Array.to_list (Array.map snd serve))))

let frames stream =
  List.map (fun r -> Protocol.encode_request (Gen.adapt_request r)) stream

let test_stream_deterministic () =
  let a = Gen.serve_stream ~seed:3 ~pass:1 ~deep_text in
  Alcotest.(check (list string)) "same seed and pass, same request bytes" (frames a)
    (frames (Gen.serve_stream ~seed:3 ~pass:1 ~deep_text));
  Alcotest.(check bool) "another seed, another stream" true
    (frames a <> frames (Gen.serve_stream ~seed:4 ~pass:1 ~deep_text));
  Alcotest.(check bool) "another pass, another interleaving" true
    (frames a <> frames (Gen.serve_stream ~seed:3 ~pass:2 ~deep_text));
  Alcotest.(check (list string)) "the seed only reorders the same requests"
    (List.sort compare (frames a))
    (List.sort compare (frames (Gen.serve_stream ~seed:4 ~pass:1 ~deep_text)))

let test_stream_shares () =
  let stream = Gen.serve_stream ~seed:5 ~pass:0 ~deep_text in
  let circuits = Array.length (Gen.serve_circuits ~deep_text) in
  let count p = List.length (List.filter (fun r -> r.Gen.path = p) stream) in
  Alcotest.(check (list int))
    "stated shares: one cold request per circuit, two template and the repeats per shallow one"
    [ circuits; 2 * (circuits - 1); (circuits - 1) * Gen.serve_repeats_per_circuit ]
    [ count Gen.Cold; count Gen.Template; count Gen.Repeat ];
  Alcotest.(check bool) "cache hits are under half the stream" true
    (2 * count Gen.Repeat < List.length stream);
  Alcotest.(check bool) "the deep circuit is in the stream" true
    (List.exists (fun r -> r.Gen.circuit_text = deep_text) stream);
  (* each path means what it says, given the requests before it *)
  let seen_circuit = Hashtbl.create 64 and seen_pair = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let c = r.Gen.circuit_index and pair = (r.Gen.circuit_index, r.Gen.method_) in
      (match r.Gen.path with
      | Gen.Cold -> Alcotest.(check bool) "cold: circuit unseen" false (Hashtbl.mem seen_circuit c)
      | Gen.Template ->
        Alcotest.(check bool) "template: circuit seen" true (Hashtbl.mem seen_circuit c);
        Alcotest.(check bool) "template: method new for it" false (Hashtbl.mem seen_pair pair)
      | Gen.Repeat -> Alcotest.(check bool) "repeat: pair seen" true (Hashtbl.mem seen_pair pair));
      Hashtbl.replace seen_circuit c ();
      Hashtbl.replace seen_pair pair ())
    stream;
  Alcotest.(check bool) "more circuits than the 32-entry template store" true
    (Hashtbl.length seen_circuit > 32)

let test_cnfs_deterministic () =
  let a = Gen.random_3sat ~seed:2 ~index:5 ~vars:120 in
  Alcotest.(check string) "same seed, same CNF" a (Gen.random_3sat ~seed:2 ~index:5 ~vars:120);
  Alcotest.(check bool) "another seed, another CNF" true
    (a <> Gen.random_3sat ~seed:3 ~index:5 ~vars:120);
  let p = Qca_sat.Dimacs.parse_exn a in
  Alcotest.(check (pair int int)) "120 variables at ratio 4.26" (120, 511)
    (p.Qca_sat.Dimacs.num_vars, List.length p.Qca_sat.Dimacs.clauses);
  let php = Qca_sat.Dimacs.parse_exn (Gen.php ~pigeons:9 ~holes:8) in
  Alcotest.(check (pair int int)) "PHP(9,8): 9 + 8 * 36 clauses" (72, 297)
    (php.Qca_sat.Dimacs.num_vars, List.length php.Qca_sat.Dimacs.clauses)

(* {1 Self time} *)

let span ?(tid = 0) name start_us dur_us = { Spans.name; tid; start_us; dur_us }

let self t name = (Spans.find t name).Spans.self_us

let test_self_time () =
  let t =
    Spans.self_times
      [
        span "root" 0 100;
        span "a" 10 30;
        span "b" 50 40;
        span "leaf" 60 10;
        (* a child starting with its parent *)
        span "outer" 200 50;
        span "inner" 200 20;
        (* another thread: its spans never nest under thread 0's *)
        span ~tid:1 "root" 0 60;
        span ~tid:1 "a" 5 10;
      ]
  in
  Alcotest.(check int) "root: 100 - 30 - 40 plus the other thread's 60 - 10" 80 (self t "root");
  Alcotest.(check int) "a" 40 (self t "a");
  Alcotest.(check int) "b minus its leaf" 30 (self t "b");
  Alcotest.(check int) "leaf" 10 (self t "leaf");
  Alcotest.(check int) "outer minus inner" 30 (self t "outer");
  Alcotest.(check int) "inner" 20 (self t "inner");
  Alcotest.(check int) "root spans counted" 2 (Spans.find t "root").Spans.count;
  Alcotest.(check (float 1e-9)) "self times cover the roots" 0.21
    (fst (Spans.total_self ~keep:(fun _ -> true) t))

let test_accounted () =
  (* an operation wrapper around a program span and a layer call: the
     wrapper's own 20 us are not accounted for *)
  let t =
    Spans.self_times
      [
        span "bench.op" 0 100;
        span "bench.adapt.sat" 0 50;
        span "adapt" 5 40;
        span "bench.certify" 60 20;
      ]
  in
  Alcotest.(check (pair (float 1e-9) int)) "program and layer spans only" (0.06, 2)
    (Measure.accounted t)

let test_chrome_spans () =
  let doc =
    {|{"traceEvents": [
       {"name": "adapt", "ph": "X", "ts": 0, "dur": 100, "tid": 2},
       {"name": "match", "ph": "X", "ts": 10, "dur": 25, "tid": 2},
       {"name": "serve.retry", "ph": "i", "ts": 40, "tid": 2}]}|}
  in
  match Spans.of_chrome_json doc with
  | Error e -> Alcotest.fail e
  | Ok spans ->
    Alcotest.(check int) "complete events only" 2 (List.length spans);
    let t = Spans.self_times spans in
    Alcotest.(check int) "adapt self" 75 (self t "adapt")

(* {1 Machine-speed scaling} *)

let test_calib_scale () =
  let close = Alcotest.float 1e-9 in
  (* the kernel ran at reference speed for 5 s, then at half speed *)
  let samples =
    Array.init 10 (fun i ->
        (float_of_int i, if i < 5 then Calib.reference_ms else 2.0 *. Calib.reference_ms))
  in
  let scale = Calib.scale_of samples in
  Alcotest.check close "before the change, times stand" 1.0 (scale 0.5);
  Alcotest.check close "after it, times halve" 0.5 (scale 9.5);
  Alcotest.check close "past the last sample, the last window" 0.5 (scale 100.0);
  Alcotest.check close "one fast outlier in the window moves nothing" 1.0
    (Calib.scale_of
       (Array.init 10 (fun i ->
            (float_of_int i, if i = 3 then 0.5 *. Calib.reference_ms else Calib.reference_ms)))
       3.0);
  Alcotest.check close "fewer samples than the window: all of them" 0.5
    (Calib.scale_of [| (0.0, 2.0 *. Calib.reference_ms) |] 7.0)

(* {1 BENCHMARK.json} *)

let test_catalogue_matches_benchmark_json () =
  let doc =
    match J.parse (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let entries key =
    List.map
      (fun m -> (Option.get (J.str_member "name" m), Option.get (J.str_member "unit" m)))
      (Option.get (J.arr_member key doc))
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Measure.end_to_end_units
    (entries "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Measure.per_layer_units
    (entries "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "percentile values" `Quick test_percentile_values;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "default seed is the paper suite" `Quick
            test_default_seed_is_the_paper_suite;
          Alcotest.test_case "circuits" `Quick test_circuits_deterministic;
          Alcotest.test_case "request stream" `Quick test_stream_deterministic;
          Alcotest.test_case "stream path shares" `Quick test_stream_shares;
          Alcotest.test_case "cnfs" `Quick test_cnfs_deterministic;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "accounted layers" `Quick test_accounted;
          Alcotest.test_case "chrome trace" `Quick test_chrome_spans;
        ] );
      ("calib", [ Alcotest.test_case "scale" `Quick test_calib_scale ]);
      ( "catalogue",
        [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_catalogue_matches_benchmark_json ] );
    ]
