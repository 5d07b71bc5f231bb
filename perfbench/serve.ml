(* serve-mixed: a closed loop of one client connection, without think
   time, against a `qca-serve daemon` running its default configuration
   (2 workers, 2 s deadline, 256-entry result cache, 32-entry template
   store).

   One connection, not one per core: with two, a small request's
   latency followed whichever long request the other connection had in
   flight, and the client's second domain, the daemon's two workers and
   the reference kernel of Calib competed for two cores. One request at
   a time, with the kernel run between requests while the daemon is
   idle, measures the service and the machine apart.

   Each pass starts a fresh daemon, so every pass sees the same cold
   cache, and replays its own seeded interleaving of the request stream
   of Gen.serve_stream.
   The responses are certified with Lint after the timed section. *)

module Protocol = Qca_serve.Protocol
module Client = Qca_serve.Client
module Parse = Qca_circuit.Parse
module Lint = Qca_adapt.Lint
module Pipeline = Qca_adapt.Pipeline
module Hardware = Qca_adapt.Hardware
module Trace = Qca_obs.Trace

let host = "127.0.0.1"
let work_dir = "_build/perfbench"
let deep_template = "examples/circuits/deep_template.txt"
let default_deadline_ms = 2000.0

(* {1 The daemon} *)

type daemon = { pid : int; port : int }

(* Daemons still running, killed if the benchmark is interrupted. *)
let live = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* The daemon must run its defaults: drop the variables that would arm
   tracing, dumps or slow-request logging in it. *)
let daemon_env ~trace_file =
  let tuned = [ "QCA_TRACE="; "QCA_DUMP_DIR="; "QCA_SLOW_MS="; "QCA_JOBS="; "QCA_AUDIT=" ] in
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not (List.exists (fun p -> String.starts_with ~prefix:p kv) tuned))
  |> (fun env ->
       match trace_file with Some f -> ("QCA_TRACE=" ^ f) :: env | None -> env)
  |> Array.of_list

let listening_port log =
  match In_channel.with_open_text log In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun line ->
        Scanf.sscanf_opt line "qca-serve: listening on %[^:]:%d" (fun _ p -> p))
      (String.split_on_char '\n' text)

(* Starts the daemon and waits for its first Pong. *)
let start ~exe ~trace_file =
  let log = Filename.concat work_dir "daemon.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process_env exe [| exe; "daemon"; "--port"; "0" |]
          (daemon_env ~trace_file) Unix.stdin fd fd)
  in
  live := pid :: !live;
  let deadline = Measure.now () +. 30.0 in
  let rec until what f =
    match f () with
    | Some x -> x
    | None ->
      if Measure.now () > deadline then failwith ("qca-serve daemon: no " ^ what);
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "qca-serve daemon exited during start-up");
      Unix.sleepf 0.002;
      until what f
  in
  let port = until "listening line" (fun () -> listening_port log) in
  until "Pong" (fun () ->
      match Client.call ~host ~port ~timeout_s:5.0 Protocol.Ping with
      | Ok Protocol.Pong -> Some ()
      | _ -> None);
  { pid; port }

(* Asks for a graceful drain and waits for the exit; returns the
   daemon's peak resident set. *)
let stop d =
  let rss = Option.value (Measure.peak_rss_mb (string_of_int d.pid)) ~default:0.0 in
  Unix.kill d.pid Sys.sigterm;
  let deadline = Measure.now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Measure.now () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  live := List.filter (( <> ) d.pid) !live;
  rss

(* {1 One pass} *)

type response = {
  req : Gen.request;
  latency_ms : float;  (** raw *)
  at : float;  (** the middle of the round trip, where Calib scales it *)
  result : (Protocol.response, string) result;
}

type pass = {
  responses : response array;
  wall_s : float;
  setup : float * float;  (** raw ms, and the time to scale it at *)
  rss_mb : float;
  certify : (float * float) list;  (** raw ms and time of each Lint check *)
  failures : string list;
  daemon_metrics : string;  (** Get_metrics text, traced passes only *)
  daemon_spans : Spans.span list;  (** the daemon's own trace, traced passes only *)
}

let inputs ~seed ~pass =
  let deep_text = In_channel.with_open_text deep_template In_channel.input_all in
  Gen.serve_stream ~seed ~pass ~deep_text

(* Closed loop: the next request goes out as soon as the previous
   response is in, or after the reference kernel when it is due. *)
let run_stream ~calib ~port stream =
  Array.map
    (fun req ->
      let frame = Gen.adapt_request req in
      let result, latency_ms, at =
        Calib.timed (fun () ->
            Trace.span "bench.call" (fun () -> Client.call ~host ~port ~timeout_s:60.0 frame))
      in
      Calib.tick calib;
      { req; latency_ms; at; result })
    (Array.of_list stream)

(* Lint's verdict on one (request circuit, adapted circuit, claimed
   makespan) triple; [None] when it certifies. *)
let certify (circuit_text, adapted_text, makespan) =
  match Parse.parse adapted_text with
  | Error e -> Some ("unparsable adapted circuit: " ^ e)
  | Ok adapted -> (
    let issues =
      Trace.span "bench.certify" (fun () ->
          Lint.certify_adaptation Hardware.d0 ~original:(Parse.parse_exn circuit_text)
            ~adapted ?claimed_makespan:makespan ())
    in
    match Lint.errors issues with
    | [] -> None
    | e :: _ -> Some (Format.asprintf "lint: %a" Lint.pp_issue e))

(* The correctness gate, after the timed section: every response must
   be a result whose adapted circuit Lint certifies against the request.
   Cache hits repeat earlier results byte for byte, so each distinct
   result is certified once; the time is that of the distinct results.
   An untraced pass certifies each [reps] times and keeps the median
   time: one check of a pass's results lasts a fifth of a second, and
   at that length the same check took 150-210 ms from one pass to the
   next. *)
let check ~calib ~reps responses =
  let verdicts = Hashtbl.create 128 in
  let times = ref [] in
  let certify key =
    let runs = List.init reps (fun _ -> Calib.timed (fun () -> certify key)) in
    let v, _, at = List.hd runs in
    times := (Stats.median (Array.of_list (List.map (fun (_, ms, _) -> ms) runs)), at) :: !times;
    Calib.tick calib;
    v
  in
  Gc.full_major ();
  let failures =
    Array.to_list responses
    |> List.mapi (fun i r ->
           let problem =
             match r.result with
             | Error e -> Some ("transport: " ^ e)
             | Ok (Protocol.Error_resp e) ->
               Some ("error " ^ Protocol.error_code_to_string e.code ^ ": " ^ e.message)
             | Ok (Protocol.Pong | Protocol.Metrics_text _) -> Some "unexpected response kind"
             | Ok (Protocol.Result p) ->
               let key = (r.req.Gen.circuit_text, p.Protocol.adapted_text, p.Protocol.makespan) in
               (match Hashtbl.find_opt verdicts key with
               | Some v -> v
               | None ->
                 let v = certify key in
                 Hashtbl.replace verdicts key v;
                 v)
           in
           Option.map (Printf.sprintf "request %d: %s" i) problem)
    |> List.filter_map Fun.id
  in
  (failures, !times)

let read_spans file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> ( match Spans.of_chrome_json text with Ok s -> s | Error _ -> [])

let run_pass ~calib ~exe ~seed ~pass ~traced =
  let trace_file =
    if traced then Some (Filename.concat (Sys.getcwd ()) (Filename.concat work_dir "daemon-trace.json"))
    else None
  in
  Option.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) trace_file;
  let (stream, d), setup_ms, setup_at =
    Calib.timed (fun () ->
        let stream = inputs ~seed ~pass in
        (stream, start ~exe ~trace_file))
  in
  let responses, wall_s =
    try Measure.time (fun () -> run_stream ~calib ~port:d.port stream)
    with e ->
      ignore (stop d);
      raise e
  in
  let daemon_metrics =
    if traced then
      match Client.call ~host ~port:d.port Protocol.Get_metrics with
      | Ok (Protocol.Metrics_text t) -> t
      | _ -> ""
    else ""
  in
  let rss_mb = stop d in
  let daemon_spans = match trace_file with Some f -> read_spans f | None -> [] in
  let failures, certify = check ~calib ~reps:(if traced then 1 else 7) responses in
  {
    responses;
    wall_s;
    setup = (setup_ms, setup_at);
    rss_mb;
    certify;
    failures;
    daemon_metrics;
    daemon_spans;
  }

(* {1 Metrics} *)

let results pass =
  Array.to_list pass.responses
  |> List.filter_map (fun r ->
         match r.result with Ok (Protocol.Result p) -> Some (r, p) | _ -> None)

let share n total = if total = 0 then 0.0 else float_of_int n /. float_of_int total

let is_hit (p : Protocol.result_payload) = p.Protocol.cache <> Protocol.Cache_miss

(* A response cut by the deadline spent a wall-clock budget that a
   faster machine would not shorten: only its time past the deadline is
   scaled. *)
let scaled scale r ms =
  match r.result with
  | Ok (Protocol.Result p) when p.Protocol.tier <> Pipeline.Full && ms > default_deadline_ms ->
    default_deadline_ms +. ((ms -. default_deadline_ms) *. scale r.at)
  | _ -> ms *. scale r.at

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l

(* A pass's time is the sum of its scaled round trips. *)
let pass_metrics scale p =
  let payloads = results p in
  let n = Array.length p.responses in
  let full = List.filter (fun (_, p) -> p.Protocol.tier = Pipeline.Full) payloads in
  let latency = sum (fun r -> scaled scale r r.latency_ms) (Array.to_list p.responses) in
  let open Measure in
  [
    metric "ops_per_s" "1/s" (float_of_int n /. (latency /. 1000.0));
    metric "solve_s" "s"
      (sum (fun (r, p) -> scaled scale r p.Protocol.elapsed_ms) payloads /. 1000.0);
    metric "certify_s" "s" (sum (fun (ms, at) -> ms *. scale at) p.certify /. 1000.0);
    metric ~samples:n "full_share" "share" (share (List.length full) n);
  ]

(* The latency percentiles are taken over every response of the run,
   as its passes replay different interleavings of one stream. *)
let end_to_end ~scale ~setup passes =
  let open Measure in
  let latencies =
    Array.concat
      (List.map (fun p -> Array.map (fun r -> scaled scale r r.latency_ms) p.responses) passes)
  in
  in_catalogue_order
    ((metric ~samples:(Array.length setup) "setup_s" "s" (Stats.median setup)
     :: latency_metrics latencies)
    @ median_of_passes (List.map (pass_metrics scale) passes)
    @ [
        metric ~samples:(List.length passes) "peak_rss_mb" "MB"
          (Stats.median (Array.of_list (List.map (fun p -> p.rss_mb) passes)));
      ])

(* "name   value" lines of the daemon's metrics summary. *)
let daemon_counter text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match List.filter (( <> ) "") (String.split_on_char ' ' line) with
         | n :: v :: _ when n = name -> float_of_string_opt v
         | _ -> None)
  |> Option.value ~default:0.0

let per_layer ~reference ~traced =
  let payloads = results traced in
  let n = List.length payloads in
  let xs f l = Array.of_list (List.map f l) in
  let hits, misses = List.partition (fun (_, p) -> is_hit p) payloads in
  let tier t = (share (List.length (List.filter (fun (_, p) -> p.Protocol.tier = t) payloads)) n, n) in
  let counter name = daemon_counter traced.daemon_metrics name in
  let t_hits = counter "serve.template.hits" and t_misses = counter "serve.template.misses" in
  let by_method m =
    let ps = List.filter (fun (r, _) -> r.req.Gen.method_ = m) (results reference) in
    ( List.fold_left (fun a (_, p) -> a +. p.Protocol.elapsed_ms) 0.0 ps /. 1000.0,
      List.length ps )
  in
  let daemon = Spans.self_times traced.daemon_spans in
  let client = Spans.self_times (Spans.of_trace ()) in
  (* one request is in flight at a time, so the daemon's spans never
     overlap and together cover at most the pass's wall time *)
  let daemon_ms, daemon_spans = Measure.accounted daemon in
  Measure.adapt_layers daemon
  @ [
      ("sat.conflicts", (counter "sat.conflicts", n));
      ("sat.propagations", (counter "sat.propagations", n));
      Measure.incl_layer client "lint.certify_ms" [ "bench.certify" ];
      ("adapt.sat_f_s", by_method (Pipeline.Sat Qca_adapt.Model.Sat_f));
      ("adapt.sat_r_s", by_method (Pipeline.Sat Qca_adapt.Model.Sat_r));
      ("adapt.sat_p_s", by_method (Pipeline.Sat Qca_adapt.Model.Sat_p));
      Measure.layer_p50 "serve.queue_ms.p50" (xs (fun (_, p) -> p.Protocol.queue_ms) payloads);
      Measure.layer_p50 "serve.solve_ms.p50" (xs (fun (_, p) -> p.Protocol.elapsed_ms) payloads);
      Measure.layer_p50 "serve.transport_ms.p50"
        (xs (fun (r, p) -> r.latency_ms -. p.Protocol.queue_ms -. p.Protocol.elapsed_ms) payloads);
      Measure.layer_p50 "serve.hit_ms.p50" (xs (fun (r, _) -> r.latency_ms) hits);
      Measure.layer_p50 "serve.miss_ms.p50" (xs (fun (r, _) -> r.latency_ms) misses);
      ("serve.cache.hit_share", (share (List.length hits) n, n));
      ( "serve.template.reuse_share",
        ((if t_hits +. t_misses > 0.0 then t_hits /. (t_hits +. t_misses) else 0.0),
         truncate (t_hits +. t_misses)) );
      ("serve.tier.incumbent_share", tier Pipeline.Incumbent);
      ("serve.tier.greedy_share", tier Pipeline.Greedy_fallback);
      ("serve.tier.direct_share", tier Pipeline.Direct_fallback);
      ( "serve.deadline_overshoot_ms.max",
        ( List.fold_left
            (fun a (_, p) -> Float.max a (p.Protocol.elapsed_ms -. default_deadline_ms))
            0.0 payloads,
          n ) );
      ("serve.retries", (counter "serve.retries", n));
    ]
  @ Measure.trace_layers ~reference_s:reference.wall_s ~traced_s:traced.wall_s
      ~accounted:(daemon_ms, daemon_spans)

(* The stream's stated path shares, and the cache-hit share observed. *)
let path_notes ~seed passes =
  let stream = inputs ~seed ~pass:0 in
  let stated p =
    share (List.length (List.filter (fun r -> r.Gen.path = p) stream)) (List.length stream)
  in
  let payloads = List.concat_map results passes in
  [
    ("stated_share.cold", Printf.sprintf "%.3f" (stated Gen.Cold));
    ("stated_share.template", Printf.sprintf "%.3f" (stated Gen.Template));
    ("stated_share.repeat", Printf.sprintf "%.3f" (stated Gen.Repeat));
    ( "observed_share.cache_hit",
      Printf.sprintf "%.3f"
        (share (List.length (List.filter (fun (_, p) -> is_hit p) payloads)) (List.length payloads)) );
  ]

let labelled r =
  let served =
    match r.result with
    | Ok (Protocol.Result p) ->
      Printf.sprintf "%s, cache %s" (Protocol.tier_to_string p.Protocol.tier)
        (match p.Protocol.cache with Protocol.Cache_miss -> "miss" | _ -> "hit")
    | Ok _ | Error _ -> "no result"
  in
  ( Printf.sprintf "%s %s (%s; %s)" r.req.Gen.circuit_label
      (Pipeline.method_name r.req.Gen.method_) (Gen.path_name r.req.Gen.path) served,
    r.latency_ms )

let run ~exe ~seed ~seconds ~trace =
  (try Sys.mkdir work_dir 0o755 with Sys_error _ -> ());
  let calib = if trace then Calib.off () else Calib.create () in
  let report passes metrics =
    {
      Measure.attempted = List.fold_left (fun a p -> a + Array.length p.responses) 0 passes;
      failures = List.concat_map (fun p -> p.failures) passes;
      metrics;
      notes =
        (("passes", string_of_int (List.length passes)) :: path_notes ~seed passes)
        @ Calib.notes calib;
      ops = List.concat_map (fun p -> Array.to_list (Array.map labelled p.responses)) passes;
    }
  in
  if trace then
    let reference, traced =
      Measure.traced_pair (fun ~traced -> run_pass ~calib ~exe ~seed ~pass:0 ~traced)
    in
    report [ reference; traced ] (Measure.per_layer_metrics (per_layer ~reference ~traced))
  else
    (* set-up is short and noisy: sample it more often than the passes
       alone would *)
    let extra =
      List.init 8 (fun _ ->
          let d, ms, at =
            Calib.timed (fun () ->
                ignore (inputs ~seed ~pass:0);
                start ~exe ~trace_file:None)
          in
          ignore (stop d);
          Calib.tick calib;
          (ms, at))
    in
    let passes =
      Measure.timed_passes ~min_passes:3 ~calib ~seconds (fun pass ->
          run_pass ~calib ~exe ~seed ~pass ~traced:false)
    in
    let scale = Calib.scale calib in
    let setup = Measure.scaled_s scale (extra @ List.map (fun p -> p.setup) passes) in
    report passes (end_to_end ~scale ~setup passes)
