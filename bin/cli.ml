(* What the four batch CLIs (qca-adapt, qca-sat, qca-lint,
   qca-experiments) share: the flags they all take, defined once, and
   the observability and input plumbing behind them. qca-serve reads
   its client input and takes --no-simplify from here too. *)

open Cmdliner
module Obs = Qca_obs.Metrics
module Trace = Qca_obs.Trace

(* --jobs defaults to $QCA_JOBS, else 1. *)
let default_jobs =
  match Option.bind (Sys.getenv_opt "QCA_JOBS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 1

(* --trace-out implies --metrics (the Chrome export embeds the metrics
   snapshot). *)
let obs_stop ~metrics ~trace_out =
  (match trace_out with Some file -> Trace.write_chrome file | None -> ());
  if metrics then Format.eprintf "%a@." Obs.pp_summary ()

(* An interrupted run must not lose its trace: flush the observability
   output on SIGINT/SIGTERM as well as on the normal exit path. *)
let obs_start ~metrics ~trace_out =
  if metrics || trace_out <> None then begin
    Obs.set_enabled true;
    Qca_obs.Sigexit.install ~flush:(fun () -> obs_stop ~metrics ~trace_out)
  end;
  if trace_out <> None then Trace.set_enabled true

(* A file path, or - for stdin. *)
let read_input = function
  | "-" -> Ok (In_channel.input_all stdin)
  | path -> (
    try Ok (In_channel.with_open_text path In_channel.input_all)
    with Sys_error msg -> Error msg)

(* {1 Flags} *)

let timeout_ms =
  let doc =
    "Wall-clock budget in milliseconds for each solve or adaptation. On \
     exhaustion the answer degrades to a cheaper tier of the degradation \
     ladder, or to UNKNOWN for a bare SAT solve."
  in
  Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)

let max_conflicts =
  let doc = "Cap on CDCL conflicts, summed over every solver call of the run." in
  Arg.(value & opt (some int) None & info [ "max-conflicts" ] ~docv:"N" ~doc)

(* What the width means differs per command, so each names it; the
   QCA_JOBS default is common. *)
let jobs ~doc =
  let doc = doc ^ " 1 = sequential. Defaults to $(b,QCA_JOBS) when set." in
  Arg.(value & opt int default_jobs & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let no_simplify =
  let doc =
    "Disable CDCL inprocessing (subsumption, bounded variable elimination, \
     probing, vivification) in every solve."
  in
  Arg.(value & flag & info [ "no-simplify" ] ~doc)

let certify =
  let doc =
    "Certify the answer independently of the solver that produced it: a \
     SAT model is evaluated and an UNSAT verdict's DRUP proof replayed; an \
     adaptation is checked for unitary equivalence with its input and its \
     metrics are recomputed against the claimed objective. A refuted \
     certificate exits 1."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let metrics =
  let doc = "Print the metrics-registry summary to stderr on exit." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let trace_out =
  let doc =
    "Record a trace of every phase and write it as Chrome trace_event JSON \
     to $(docv) (open in chrome://tracing or Perfetto). Implies \
     $(b,--metrics) collection; the snapshot is embedded in the trace."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
