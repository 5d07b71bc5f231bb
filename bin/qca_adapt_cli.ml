(* Command-line circuit adaptation: read a circuit in the textual
   format (see lib/circuit/parse.mli), adapt it to the spin-qubit
   hardware with the chosen method, print the adapted circuit and the
   before/after metrics.

   Exit codes: 0 full service, 2 degraded (a budget tripped and a
   fallback tier or incumbent served the request), 3 invalid input,
   1 certification failure under --certify. *)

open Cmdliner
module Circuit = Qca_circuit.Circuit
module Parse = Qca_circuit.Parse
module Solver = Qca_sat.Solver
module Trace = Qca_obs.Trace
open Qca_adapt

let run method_name hw_name input show_circuit timeout_ms max_conflicts jobs
    no_simplify certify metrics trace_out =
  Cli.obs_start ~metrics ~trace_out;
  let ( let* ) = Result.bind in
  let result =
    let* method_ = Pipeline.method_of_string method_name in
    let* hw = Hardware.of_string hw_name in
    let* text = Cli.read_input input in
    let* circuit =
      match Trace.span "parse" (fun () -> Parse.parse text) with
      | Ok c -> Ok c
      | Error msg -> Error ("parse error: " ^ msg)
    in
    let budget =
      Solver.budget ?timeout_ms
        ?max_conflicts:(Option.map (fun n -> max 0 n) max_conflicts)
        ()
    in
    let options =
      { Solver.default_options with use_simplify = not no_simplify }
    in
    let o =
      Pipeline.adapt_governed ~options ~budget ~jobs hw method_ circuit
    in
    let baseline =
      Metrics.summarize hw (Pipeline.adapt hw Pipeline.Direct circuit)
    in
    let s = Metrics.summarize hw o.Pipeline.circuit in
    if show_circuit then print_string (Parse.to_text o.Pipeline.circuit);
    Format.printf "method       : %s (hardware %s)@."
      (Pipeline.method_name method_) hw.Hardware.name;
    Format.printf "served       : tier %s%s@."
      (Pipeline.tier_name o.Pipeline.tier)
      (match o.Pipeline.reason with
      | None -> ""
      | Some r -> Printf.sprintf " (%s)" (Solver.string_of_stop_reason r));
    Format.printf "budget spent : %d conflicts, %d propagations, %.1f ms@."
      o.Pipeline.spent.Pipeline.conflicts
      o.Pipeline.spent.Pipeline.propagations
      o.Pipeline.spent.Pipeline.elapsed_ms;
    Format.printf "adapted      : %a@." Metrics.pp s;
    Format.printf "vs direct    : fidelity %+.2f%%, idle time %+.2f%%@."
      (Metrics.fidelity_change_pct ~baseline s)
      (-.Metrics.idle_decrease_pct ~baseline s);
    let info = o.Pipeline.info in
    if info.Pipeline.substitutions_considered > 0 then
      Format.printf "substitutions: %d considered, %d chosen (%d OMT rounds)@."
        info.Pipeline.substitutions_considered
        info.Pipeline.substitutions_chosen info.Pipeline.omt_rounds;
    let cert_bad =
      certify
      &&
      let issues =
        Trace.span "certify" (fun () ->
            Lint.certify_adaptation hw ~original:circuit
              ~adapted:o.Pipeline.circuit
              ?claimed_makespan:o.Pipeline.claimed_makespan ())
      in
      List.iter (fun i -> Format.printf "certify      : %a@." Lint.pp_issue i) issues;
      Format.printf "certificate  : %s@."
        (if Lint.errors issues = [] then "certified" else "NOT certified");
      Lint.errors issues <> []
    in
    Ok (if cert_bad then 1 else if Pipeline.degraded o then 2 else 0)
  in
  Cli.obs_stop ~metrics ~trace_out;
  match result with
  | Ok code -> code
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    3

let method_arg =
  let doc =
    "Adaptation method: "
    ^ String.concat ", " (List.map fst Pipeline.method_names)
    ^ "."
  in
  Arg.(value & opt string "sat-p" & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let hw_arg =
  let doc = "Hardware timing variant (Table I): d0 or d1." in
  Arg.(value & opt string "d0" & info [ "hw" ] ~docv:"HW" ~doc)

let input_arg =
  let doc = "Input circuit file in the textual format, or - for stdin." in
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)

let show_arg =
  let doc = "Print the adapted circuit." in
  Arg.(value & flag & info [ "c"; "circuit" ] ~doc)

let jobs_arg =
  Cli.jobs
    ~doc:
      "Race $(docv) diversified CDCL seats per OMT round on OCaml domains \
       (first decisive seat wins, the rest are cancelled)."

let cmd =
  let doc = "adapt a quantum circuit to the spin-qubit gate set" in
  Cmd.v (Cmd.info "qca-adapt" ~doc)
    Term.(
      const run $ method_arg $ hw_arg $ input_arg $ show_arg $ Cli.timeout_ms
      $ Cli.max_conflicts $ jobs_arg $ Cli.no_simplify $ Cli.certify
      $ Cli.metrics $ Cli.trace_out)

let () = exit (Cmd.eval' cmd)
