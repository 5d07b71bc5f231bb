(* The repository benchmark. Run from the repository root:

     bench.exe --workload paper-suite|serve-mixed|sat-certify
               [--seed N] [--seconds S] [--trace 0|1]

   prints every metric of the run with its unit and sample count, then,
   as the last line, one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   --trace 0 reports the end-to-end metrics; --trace 1 makes a traced
   run and reports the per-layer metrics instead.

   Exit status: 0 all operations correct, 1 some failed (the result is
   still printed), 2 the run could not be made (nothing printed).

   --expected-table prints the paper-suite table for the default seed,
   as the library's batch evaluators compute it. *)

open Perfbench

let workloads = [ "paper-suite"; "serve-mixed"; "sat-certify" ]

let () =
  let workload = ref "" and seed = ref Gen.default_seed and seconds = ref 10.0 in
  let trace = ref 0 and serve_exe = ref "_build/default/bin/qca_serve_cli.exe" in
  let expected = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N workload seed (default 0: the paper's suites)");
      ("--seconds", Arg.Set_float seconds, "S measure whole passes for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run reporting the per-layer metrics");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH the qca-serve binary (serve-mixed)");
      ("--expected-table", Arg.Set expected, " print the paper-suite expected table");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !expected then begin
    List.iter print_endline (Paper.expected_table ());
    exit 0
  end;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("bench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "bench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  let stop_daemons _ =
    Serve.kill_live ();
    exit 2
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_daemons);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_daemons);
  let report =
    try
      match !workload with
      | "paper-suite" -> Paper.run ~seed:!seed ~seconds:!seconds ~trace:traced
      | "serve-mixed" ->
        Serve.run ~exe:!serve_exe ~seed:!seed ~seconds:!seconds ~trace:traced
      | _ -> Satcert.run ~seed:!seed ~seconds:!seconds ~trace:traced
    with e ->
      Serve.kill_live ();
      prerr_endline ("bench: run failed: " ^ Printexc.to_string e);
      exit 2
  in
  let catalogue = if traced then Measure.per_layer_units else Measure.end_to_end_units in
  if List.map (fun m -> (m.Measure.name, m.Measure.unit_)) report.Measure.metrics <> catalogue
  then begin
    prerr_endline "bench: the reported metrics differ from the catalogue in BENCHMARK.json";
    exit 2
  end;
  let failed = List.length report.Measure.failures in
  let meta =
    [
      ("workload", !workload);
      ("seed", string_of_int !seed);
      ("trace", string_of_int !trace);
      ("seconds", Printf.sprintf "%g" !seconds);
      ("commit", Measure.commit ());
      ("nproc", string_of_int (Measure.online_cpus ()));
      ("cpus_allowed", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("attempted", string_of_int report.Measure.attempted);
      ("failed", string_of_int failed);
      ( "failed_share",
        Printf.sprintf "%g" (float_of_int failed /. float_of_int report.Measure.attempted) );
    ]
    @ report.Measure.notes
    @ [ ("slowest", Measure.slowest report.Measure.ops) ]
  in
  List.iter (fun f -> prerr_endline ("FAILED " ^ f)) report.Measure.failures;
  print_endline (String.concat "  " (List.map (fun (k, v) -> k ^ "=" ^ v) meta));
  Measure.print_table
    ~title:(if traced then "per-layer metrics (traced run)" else "end-to-end metrics")
    report.Measure.metrics;
  Measure.write_detail
    ~file:(Printf.sprintf "_build/perfbench/%s-seed%d-trace%d.json" !workload !seed !trace)
    ~meta report;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (failed = 0) report.Measure.attempted failed
    (Measure.metrics_json report.Measure.metrics);
  exit (if failed = 0 then 0 else 1)
