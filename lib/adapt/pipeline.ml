module Circuit = Qca_circuit.Circuit
module Block = Qca_circuit.Block
module Gate = Qca_circuit.Gate
module Synth = Qca_circuit.Synth
module Solver = Qca_sat.Solver
module Fault = Qca_util.Fault
module Obs = Qca_obs.Metrics
module Trace = Qca_obs.Trace
module Ring = Qca_obs.Ring

(* Pipeline-level telemetry; each phase below is additionally wrapped
   in a Trace span (partition -> match -> encode -> solve -> apply),
   so a --trace-out file shows where an adaptation spent its time. *)
let m_adaptations = Obs.counter "pipeline.adaptations"
let m_degraded = Obs.counter "pipeline.degraded"
let k_degrade = Ring.kind "pipeline.degrade"

type method_ =
  | Direct
  | Kak_only_cz
  | Kak_only_cz_db
  | Template_f
  | Template_r
  | Sat of Model.objective
  | Greedy of Model.objective

let method_name = function
  | Direct -> "DIRECT"
  | Kak_only_cz -> "KAK CZ"
  | Kak_only_cz_db -> "KAK CZdb"
  | Template_f -> "TMP F"
  | Template_r -> "TMP R"
  | Sat Model.Sat_f -> "SAT F"
  | Sat Model.Sat_r -> "SAT R"
  | Sat Model.Sat_p -> "SAT P"
  | Greedy Model.Sat_f -> "GREEDY F"
  | Greedy Model.Sat_r -> "GREEDY R"
  | Greedy Model.Sat_p -> "GREEDY P"

let method_names =
  [
    ("direct", Direct);
    ("kak-cz", Kak_only_cz);
    ("kak-czdb", Kak_only_cz_db);
    ("tmp-f", Template_f);
    ("tmp-r", Template_r);
    ("sat-f", Sat Model.Sat_f);
    ("sat-r", Sat Model.Sat_r);
    ("sat-p", Sat Model.Sat_p);
    ("greedy-f", Greedy Model.Sat_f);
    ("greedy-r", Greedy Model.Sat_r);
    ("greedy-p", Greedy Model.Sat_p);
  ]

let method_of_string s =
  match List.assoc_opt s method_names with
  | Some m -> Ok m
  | None -> Error (Printf.sprintf "unknown method %S" s)

let method_to_string m = fst (List.find (fun (_, m') -> m' = m) method_names)

let all_methods =
  [
    Kak_only_cz;
    Kak_only_cz_db;
    Template_f;
    Template_r;
    Sat Model.Sat_f;
    Sat Model.Sat_r;
    Sat Model.Sat_p;
  ]

type info = {
  substitutions_considered : int;
  substitutions_chosen : int;
  omt_rounds : int;
}

let no_info = { substitutions_considered = 0; substitutions_chosen = 0; omt_rounds = 0 }

(* Splice a conflict-free choice of substitutions into the circuit:
   blocks are emitted in dependency order; within a block, a gate opens
   its substitution's replacement if it is the first substituted gate,
   is skipped if covered by one, and is basis-translated otherwise. *)
let apply_substitutions part chosen =
  let gates = Circuit.gates part.Block.circuit in
  let first_of = Hashtbl.create 16 and covered = Hashtbl.create 16 in
  List.iter
    (fun (s : Rules.t) ->
      match s.Rules.substituted with
      | [] -> ()
      | first :: rest ->
        Hashtbl.replace first_of first s;
        List.iter (fun i -> Hashtbl.replace covered i ()) rest)
    chosen;
  let out = ref [] in
  let emit g = out := g :: !out in
  List.iter
    (fun bid ->
      let blk = part.Block.blocks.(bid) in
      List.iter
        (fun i ->
          match Hashtbl.find_opt first_of i with
          | Some s -> List.iter emit s.Rules.replacement
          | None ->
            if not (Hashtbl.mem covered i) then
              List.iter emit (Basis.translate_gate gates.(i)))
        blk.Block.gate_ids)
    (Block.topological_order part);
  Circuit.merge_single_qubit_runs
    (Circuit.of_gates (Circuit.num_qubits part.Block.circuit) (List.rev !out))

let kak_only ent part =
  let out = ref [] in
  List.iter
    (fun bid ->
      let blk = part.Block.blocks.(bid) in
      match blk.Block.wires with
      | Block.Solo _ ->
        let gates = Circuit.gates part.Block.circuit in
        List.iter
          (fun i -> List.iter (fun g -> out := g :: !out) (Basis.translate_gate gates.(i)))
          blk.Block.gate_ids
      | Block.Pair (a, b) ->
        let u = Block.block_unitary part blk in
        List.iter
          (fun g -> out := g :: !out)
          (Synth.two_qubit_on ent u ~a ~b))
    (Block.topological_order part);
  Circuit.merge_single_qubit_runs
    (Circuit.of_gates (Circuit.num_qubits part.Block.circuit) (List.rev !out))

let compatible chosen s = not (List.exists (Rules.overlap s) chosen)

(* Greedy local template optimization: scan matches in circuit order and
   accept any compatible match that improves the local cost. *)
let template_choose metric subs =
  List.fold_left
    (fun chosen (s : Rules.t) ->
      match s.Rules.kind with
      | Rules.Kak_cz | Rules.Kak_cz_db -> chosen
      | Rules.Cond_rot | Rules.Swap_native_d | Rules.Swap_native_c ->
        if metric s && compatible chosen s then s :: chosen else chosen)
    [] subs
  |> List.rev

(* {1 Encoded templates} *)

(* The expensive front half of an SMT adaptation — partition, template
   matching, SMT encoding — depends only on (hardware, circuit), not on
   the objective. A [template] captures it once; every optimization of
   it runs through {!Model.optimize}'s non-consuming [~reuse] path, so
   the batch pipeline and qca-serve amortize one encoding (and
   everything the solver learns about it) across objectives and
   repeated requests. *)
type template = {
  t_hw : Hardware.t;
  t_part : Block.t;
  t_subs : Rules.t list;
  t_model : Model.t;
}

let m_template_builds = Obs.counter "pipeline.template.builds"
let m_template_reuses = Obs.counter "pipeline.template.reuses"

let prepare ?options hw circuit =
  Obs.incr m_template_builds;
  let part = Trace.span "partition" (fun () -> Block.partition circuit) in
  let subs = Trace.span "match" (fun () -> Rules.find_all hw part) in
  let model = Trace.span "encode" (fun () -> Model.build ?options hw part subs) in
  { t_hw = hw; t_part = part; t_subs = subs; t_model = model }

let template_circuit tm = tm.t_part.Block.circuit

(* {1 Resource-governed adaptation} *)

type tier = Full | Incumbent | Greedy_fallback | Direct_fallback

let tier_name = function
  | Full -> "full"
  | Incumbent -> "incumbent"
  | Greedy_fallback -> "greedy"
  | Direct_fallback -> "direct"

type spent = { conflicts : int; propagations : int; elapsed_ms : float }

type outcome = {
  circuit : Circuit.t;
  requested : method_;
  tier : tier;
  reason : Solver.stop_reason option;
  spent : spent;
  info : info;
  claimed_makespan : int option;
}

let degraded o = o.tier <> Full || o.reason <> None

(* The degradation ladder for the SMT method:

     Sat obj  →  incumbent  →  Greedy obj  →  Direct

   Every rung always terminates (the lower rungs are polynomial), so a
   governed request never hangs and never raises: the worst case is the
   direct basis translation, which is always a valid adapted circuit. *)
let adapt_governed ?options ?budget ?(jobs = 1) ?template hw method_ circuit =
  let budget = match budget with Some b -> b | None -> Solver.budget () in
  let partition () =
    Trace.span "partition" (fun () -> Block.partition circuit)
  in
  let find part = Trace.span "match" (fun () -> Rules.find_all hw part) in
  let apply f = Trace.span "apply" f in
  (* With a prebuilt template the partition/match/encode phases are
     skipped and the optimization runs non-consuming ([~reuse]), leaving
     the template valid for the next request sharing its key. *)
  let front () =
    match template with
    | Some tm ->
      Obs.incr m_template_reuses;
      (tm.t_part, tm.t_subs, tm.t_model, true)
    | None ->
      let part = partition () in
      let subs = find part in
      let model =
        Trace.span "encode" (fun () -> Model.build ?options hw part subs)
      in
      (part, subs, model, false)
  in
  let finish ?claimed_makespan ?(tier = Full) ?reason ?(info = no_info) circuit
      =
    if tier <> Full || reason <> None then begin
      Obs.incr m_degraded;
      let tier_ix =
        match tier with
        | Full -> 0
        | Incumbent -> 1
        | Greedy_fallback -> 2
        | Direct_fallback -> 3
      in
      Ring.record k_degrade tier_ix
        (match reason with None -> -1 | Some r -> Solver.stop_reason_index r)
        budget.Solver.conflicts_spent;
      Trace.instant "degrade"
        ~args:
          [
            ("tier", tier_name tier);
            ( "reason",
              match reason with
              | None -> "none"
              | Some r -> Solver.string_of_stop_reason r );
          ]
    end;
    {
      circuit;
      requested = method_;
      tier;
      reason;
      spent =
        {
          conflicts = budget.Solver.conflicts_spent;
          propagations = budget.Solver.propagations_spent;
          elapsed_ms = Solver.budget_elapsed_ms budget;
        };
      info;
      claimed_makespan;
    }
  in
  let direct reason =
    finish ~tier:Direct_fallback ~reason
      (apply (fun () -> Basis.direct circuit))
  in
  let chosen_info subs chosen rounds =
    {
      substitutions_considered = List.length subs;
      substitutions_chosen = List.length chosen;
      omt_rounds = rounds;
    }
  in
  (* The Greedy method and the ladder's greedy rung, run under [span]:
     a stop keeps the (conflict-free) partial choice, an empty one
     degrades to direct. [reason], when given, is why the ladder got
     here. *)
  let greedy ~span ~tier ?reason part subs model obj =
    let mask, stop =
      Trace.span span (fun () ->
          Model.greedy ~budget ~site:Fault.Greedy_step model obj)
    in
    match (List.filter (fun s -> mask.(s.Rules.id)) subs, stop) with
    | [], Some r -> direct r
    | chosen, stop ->
      finish ~tier
        ?reason:(if reason = None then stop else reason)
        ~info:(chosen_info subs chosen 0)
        (apply (fun () -> apply_substitutions part chosen))
  in
  let kak ent =
    let part = partition () in
    finish (apply (fun () -> kak_only ent part))
  in
  Trace.span "adapt" ~args:[ ("method", method_name method_) ] @@ fun () ->
  Obs.incr m_adaptations;
  match method_ with
  | Direct -> finish (apply (fun () -> Basis.direct circuit))
  | Kak_only_cz -> kak Synth.Use_cz
  | Kak_only_cz_db -> kak Synth.Use_cz_db
  | Template_f | Template_r ->
    let part = partition () in
    let subs = find part in
    let metric (s : Rules.t) =
      if method_ = Template_f then s.Rules.delta_log_fid > 0
      else s.Rules.delta_duration < 0
    in
    let chosen = Trace.span "solve" (fun () -> template_choose metric subs) in
    finish ~info:(chosen_info subs chosen 0)
      (apply (fun () -> apply_substitutions part chosen))
  | Sat obj -> (
    match Solver.budget_status budget with
    | Some r -> direct r
    | None -> (
      let part, subs, model, reuse = front () in
      match
        Trace.span "solve" (fun () ->
            Model.optimize ~budget ~jobs ~reuse model obj)
      with
      | Ok sol ->
        let tier =
          match sol.Model.stopped with None -> Full | Some _ -> Incumbent
        in
        finish ~claimed_makespan:sol.Model.makespan ~tier
          ?reason:sol.Model.stopped
          ~info:(chosen_info subs sol.Model.chosen sol.Model.rounds)
          (apply (fun () -> apply_substitutions part sol.Model.chosen))
      | Error `Already_consumed ->
        (* fresh models can't be consumed; template models only ever run
           the non-consuming reuse path *)
        assert false
      | Error (`Budget_exhausted r) -> (
        (* no incumbent from the SMT tier; try the greedy heuristic if
           the budget still has headroom (a fault-injected stop leaves
           it intact, a real deadline does not) *)
        match Solver.budget_status budget with
        | Some r2 -> direct r2
        | None ->
          greedy ~span:"rung.greedy" ~tier:Greedy_fallback ~reason:r part subs
            model obj)))
  | Greedy obj -> (
    match Solver.budget_status budget with
    | Some r -> direct r
    | None ->
      let part, subs, model, _reuse = front () in
      greedy ~span:"solve" ~tier:Full part subs model obj)

let adapt ?options ?jobs hw method_ circuit =
  (adapt_governed ?options ?jobs hw method_ circuit).circuit

let adapt_template ?budget ?jobs tm method_ =
  adapt_governed ?budget ?jobs ~template:tm tm.t_hw method_
    (template_circuit tm)
