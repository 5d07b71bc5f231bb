module Block = Qca_circuit.Block
module Circuit = Qca_circuit.Circuit
open Qca_sat
module Totalizer = Qca_pseudo_bool.Totalizer
module Fault = Qca_util.Fault
module Obs = Qca_obs.Metrics
module Trace = Qca_obs.Trace
module Ring = Qca_obs.Ring
module Portfolio = Qca_par.Portfolio

(* OMT-driver telemetry: round count and the incumbent-objective
   trajectory (Eq. 8-10 values), both in the metrics registry and as a
   Chrome-trace counter series. *)
let m_omt_rounds = Obs.counter "omt.rounds"
let m_omt_incumbent_updates = Obs.counter "omt.incumbent_updates"
let m_omt_incumbent = Obs.gauge "omt.incumbent"
let k_omt_round = Ring.kind "omt.round"
let k_omt_incumbent = Ring.kind "omt.incumbent"

type objective = Sat_f | Sat_r | Sat_p

let objective_name = function
  | Sat_f -> "SAT F"
  | Sat_r -> "SAT R"
  | Sat_p -> "SAT P"

type t = {
  hw : Hardware.t;
  part : Block.t;
  subs : Rules.t array;
  sat : Solver.t;
  choice : Lit.t array;  (* c_s per substitution id *)
  base_dur : int array;  (* D(b) *)
  base_fid : int array;  (* log F(b), fixed point *)
  d_lb : int;  (* admissible lower bound on the makespan *)
  conflicts : int list array;  (* Eq. 1 partners, by substitution id *)
  false_lit : Lit.t;  (* a literal asserted false, for infeasible prunes *)
  mutable consumed : bool;
  (* Incremental-reuse state. [session] keeps one set of portfolio
     seats alive across OMT rounds (and across reusable runs);
     [selectors] memoizes the pruning totalizer per objective, so a
     reused template never re-encodes a bound it has seen. *)
  mutable session : (int * Portfolio.session) option;
      (* (jobs, seats) — recreated when [jobs] changes *)
  selectors : (objective, Totalizer.selector) Hashtbl.t;
}

(* Longest path over the block dependency graph for given durations;
   also returns one critical path (block ids). *)
let critical_path_detail part durations =
  let n = Array.length part.Block.blocks in
  let finish = Array.make n 0 in
  let via = Array.make n (-1) in
  List.iter
    (fun b ->
      let start, pred =
        List.fold_left
          (fun (acc, pr) p -> if finish.(p) > acc then (finish.(p), p) else (acc, pr))
          (0, -1) (Block.predecessors part b)
      in
      finish.(b) <- start + durations.(b);
      via.(b) <- pred)
    (Block.topological_order part);
  let sink = ref 0 and best = ref 0 in
  Array.iteri
    (fun b f ->
      if f > !best then begin
        best := f;
        sink := b
      end)
    finish;
  let rec walk b acc = if b < 0 then acc else walk via.(b) (b :: acc) in
  let path = if n = 0 then [] else walk !sink [] in
  (!best, path)

let critical_path part durations = fst (critical_path_detail part durations)

let subs_of_block subs b =
  Array.to_list subs |> List.filter (fun s -> s.Rules.block_id = b)

(* The model keeps the Boolean structure (choice variables and the
   Eq. 1 mutual-exclusion clauses) in the CDCL solver; the scheduling
   constraints (Eq. 2/3) participate through lazily generated
   critical-path lemmas during optimization — see [optimize] — and the
   returned schedule is cross-checked by {!Lint.check_schedule}. *)
let build ?options hw part subs_list =
  let sat = Solver.create ?options () in
  let subs = Array.of_list subs_list in
  let n_subs = Array.length subs in
  let choice = Array.init n_subs (fun _ -> Lit.pos (Solver.new_var sat)) in
  Array.iter (fun s -> assert (s.Rules.id < n_subs)) subs;
  (* Eq. 1: overlapping substitutions exclude each other. *)
  let conflicts = Array.make n_subs [] in
  List.iter
    (fun (i, j) ->
      Solver.add_clause sat [ Lit.negate choice.(i); Lit.negate choice.(j) ];
      conflicts.(i) <- j :: conflicts.(i);
      conflicts.(j) <- i :: conflicts.(j))
    (Rules.conflicts subs_list);
  let n_blocks = Array.length part.Block.blocks in
  let base_dur =
    Array.init n_blocks (fun b -> Rules.block_reference_duration hw part b)
  in
  let base_fid =
    Array.init n_blocks (fun b -> Rules.block_reference_log_fid hw part b)
  in
  (* Admissible makespan lower bound: all duration-reducing
     substitutions applied at once (even if mutually exclusive). *)
  let min_dur =
    Array.init n_blocks (fun b ->
        List.fold_left
          (fun acc s -> acc + min 0 s.Rules.delta_duration)
          base_dur.(b) (subs_of_block subs b)
        |> max 0)
  in
  let d_lb = critical_path part min_dur in
  let false_var = Solver.new_var sat in
  Solver.add_clause sat [ Lit.neg_of_var false_var ];
  {
    hw;
    part;
    subs;
    sat;
    choice;
    base_dur;
    base_fid;
    d_lb;
    conflicts;
    false_lit = Lit.pos false_var;
    consumed = false;
    session = None;
    selectors = Hashtbl.create 4;
  }

let duration_terms t b =
  ( t.base_dur.(b),
    subs_of_block t.subs b
    |> List.map (fun s -> (s.Rules.id, s.Rules.delta_duration)) )

(* Integer objective as   d_weight·D + Σ w_s·c_s + constant   (to be
   minimized; equivalent to maximizing Eq. 8/9/10, see DESIGN.md).
   Weight arrays are indexed by substitution id. *)
type objective_terms = {
  d_weight : int;
  weights : int array;
  constant : int;
}

let scale = 1_000_000

let objective_terms t obj =
  let q = Circuit.num_qubits t.part.Block.circuit in
  let t2 = int_of_float t.hw.Hardware.t2 in
  let sum_base a = Array.fold_left ( + ) 0 a in
  let by_id f =
    let w = Array.make (Array.length t.subs) 0 in
    Array.iter (fun (s : Rules.t) -> w.(s.Rules.id) <- f s) t.subs;
    w
  in
  match obj with
  | Sat_f ->
    {
      d_weight = 0;
      weights = by_id (fun s -> -s.Rules.delta_log_fid);
      constant = -sum_base t.base_fid;
    }
  | Sat_r ->
    {
      d_weight = q;
      weights = by_id (fun s -> -s.Rules.delta_duration);
      constant = -sum_base t.base_dur;
    }
  | Sat_p ->
    {
      d_weight = scale * q;
      weights =
        by_id (fun s ->
            (-scale * s.Rules.delta_duration) - (t2 * s.Rules.delta_log_fid));
      constant = (-scale * sum_base t.base_dur) - (t2 * sum_base t.base_fid);
    }

let durations_for t chosen_mask =
  Array.mapi
    (fun b base ->
      Array.fold_left
        (fun acc (s : Rules.t) ->
          if s.Rules.block_id = b && chosen_mask.(s.Rules.id) then
            acc + s.Rules.delta_duration
          else acc)
        base t.subs)
    t.base_dur

let exact_objective t terms chosen_mask =
  let d, path = critical_path_detail t.part (durations_for t chosen_mask) in
  let pb = ref 0 in
  Array.iteri (fun i w -> if chosen_mask.(i) then pb := !pb + w) terms.weights;
  ((terms.d_weight * d) + !pb + terms.constant, d, path)

type solution = {
  chosen : Rules.t list;
  objective_value : int;
  makespan : int;
  rounds : int;
  proven_optimal : bool;
  stopped : Solver.stop_reason option;
}

type error =
  [ `Already_consumed | `Budget_exhausted of Solver.stop_reason ]

let sat_stats t = Solver.stats t.sat

let default_round_budget = 120

let m_reuse_runs = Obs.counter "omt.reuse.runs"

(* Fault/budget consultation shared by the greedy sweeps and the OMT
   rounds; the deadline/cancel checks make a 1 ms deadline observable
   before any solving starts on deep circuits. *)
let governed budget site exhaust_reason =
  match Solver.budget_status budget with
  | Some r -> Some r
  | None -> (
    match Fault.check budget.Solver.fault site with
    | Some Fault.Exhaust -> Some exhaust_reason
    | Some Fault.Cancel -> Some Solver.Cancelled
    | Some Fault.Spurious_conflict | None -> None)

(* Each sweep adds the lowest-id compatible substitution with the
   strictly best exact objective, until none improves it. Governed
   before every sweep; a stop keeps the (conflict-free) choice so far. *)
let greedy ?(budget = Solver.no_budget) ~site t obj =
  let terms = objective_terms t obj in
  let n = Array.length t.subs in
  let mask = Array.make n false in
  let score () =
    let v, _, _ = exact_objective t terms mask in
    v
  in
  let compatible s = List.for_all (fun j -> not mask.(j)) t.conflicts.(s) in
  let rec sweep current =
    match governed budget site Solver.Deadline with
    | Some r -> Some r
    | None ->
      let best_s = ref (-1) and best_v = ref current in
      for s = 0 to n - 1 do
        if (not mask.(s)) && compatible s then begin
          mask.(s) <- true;
          let v = score () in
          mask.(s) <- false;
          if v < !best_v then begin
            best_v := v;
            best_s := s
          end
        end
      done;
      if !best_s < 0 then None
      else begin
        mask.(!best_s) <- true;
        sweep !best_v
      end
  in
  let stop = sweep (score ()) in
  (mask, stop)

let optimize ?round_budget ?(budget = Solver.no_budget) ?(jobs = 1)
    ?(reuse = false) t obj =
  if t.consumed then Error `Already_consumed
  else begin
  if reuse then Obs.incr m_reuse_runs else t.consumed <- true;
  (* Reusable runs scope their incumbent-exclusion clauses and path
     cuts under a fresh activation literal, assumed during this run's
     solves and asserted false on every exit — so a later run with a
     different objective is not poisoned by this run's blocking
     clauses, while the learnt clauses, phases and activities survive
     in the live solver. One-shot runs add them permanently (no guard
     overhead on the common path). *)
  let act =
    if reuse then Some (Lit.pos (Solver.new_var t.sat)) else None
  in
  let run_assumptions = match act with None -> [] | Some a -> [ a ] in
  let guard_clause lits =
    match act with None -> lits | Some a -> Lit.negate a :: lits
  in
  (* anytime budget scales inversely with instance size so that deep
     circuits stay tractable; small instances still close with a proof *)
  let round_budget =
    match round_budget with
    | Some b -> b
    | None ->
      max 16 (min default_round_budget (4000 / max 1 (Array.length t.subs)))
  in
  let terms = objective_terms t obj in
  let n = Array.length t.subs in
  let pb_terms =
    Array.to_list (Array.mapi (fun i w -> (t.choice.(i), w)) terms.weights)
    |> List.filter (fun (_, w) -> w <> 0)
  in
  let sat = t.sat in
  (* One totalizer serves every pruning bound of the optimization: the
     bound only shrinks as the incumbent improves, so it is built once
     at the warm-start budget and queried per round. Memoized per
     objective on the model so a reused template pays the encoding once
     across runs (the warm start is deterministic, so the selector's
     cap is reproduced exactly). *)
  let prune best =
    let budget = best - 1 - terms.constant - (terms.d_weight * t.d_lb) in
    if pb_terms = [] then if budget < 0 then [ t.false_lit ] else []
    else begin
      let selector =
        match Hashtbl.find_opt t.selectors obj with
        | Some sel -> sel
        | None ->
          let sel =
            Trace.span "omt.selector.build" (fun () ->
                Totalizer.at_most_selector ~resolution:256 sat pb_terms
                  ~max:budget)
          in
          Hashtbl.replace t.selectors obj sel;
          sel
      in
      match Totalizer.select selector budget with
      | None -> []
      | Some None -> [ t.false_lit ]
      | Some (Some a) -> [ a ]
    end
  in
  (* Lazy scheduling lemma: for the critical path P of the incumbent's
     schedule, every assignment satisfies
       obj ≥ d_weight·Σ_{b∈P} d_b(c) + Σ w_s·c_s + constant,
     which is linear in c — add it as a hard cut against the incumbent. *)
  let seen_cuts : (int list, unit) Hashtbl.t = Hashtbl.create 32 in
  let max_cuts = 8 in
  let add_path_cut best path =
    if
      terms.d_weight > 0
      && Hashtbl.length seen_cuts < max_cuts
      && not (Hashtbl.mem seen_cuts path)
    then begin
      Hashtbl.replace seen_cuts path ();
      let on_path = Array.make (Array.length t.part.Block.blocks) false in
      List.iter (fun b -> on_path.(b) <- true) path;
      let cut_terms =
        Array.to_list t.subs
        |> List.filter_map (fun (s : Rules.t) ->
               let w =
                 terms.weights.(s.Rules.id)
                 + if on_path.(s.Rules.block_id) then
                     terms.d_weight * s.Rules.delta_duration
                   else 0
               in
               if w = 0 then None else Some (t.choice.(s.Rules.id), w))
      in
      let path_base =
        List.fold_left (fun acc b -> acc + t.base_dur.(b)) 0 path
      in
      let bound = best - 1 - terms.constant - (terms.d_weight * path_base) in
      Trace.span "omt.cut" (fun () ->
          Totalizer.enforce_at_most ~resolution:8 ?guard:act sat cut_terms
            bound)
    end
  in
  (* One solver — and at [jobs > 1] one persistent portfolio session —
     stays alive across every round, the tightened bound entering as an
     assumption literal over the memoized totalizer outputs, so learnt
     clauses, saved phases, VSIDS activities and simplification results
     carry over. *)
  let session =
    match t.session with
    | Some (j, ss) when j = jobs -> ss
    | _ ->
      let ss = Portfolio.create_session ~jobs sat in
      t.session <- Some (jobs, ss);
      ss
  in
  let round_solve b =
    (Portfolio.session_solve ~assumptions:(run_assumptions @ prune b) ~budget
       session)
      .verdict
  in
  let rounds = ref 0 and cuts = ref 0 in
  let proven = ref true in
  let stopped = ref None in
  let rec improve ((b, _, _) as best) =
    incr rounds;
    Obs.incr m_omt_rounds;
    Ring.record k_omt_round !rounds b !cuts;
    if !rounds > round_budget then begin
      (* anytime behaviour: keep the incumbent, flag non-proven *)
      proven := false;
      best
    end
    else begin
    match governed budget Fault.Omt_round Solver.Out_of_rounds with
    | Some r ->
      proven := false;
      stopped := Some r;
      best
    | None ->
    match
      Trace.span "omt.round"
        ~args:[ ("round", string_of_int !rounds) ]
        (fun () ->
          (* jobs > 1: every round — including the final UNSAT-proving
             one, where most conflicts are spent — races the session's
             diversified seats; jobs = 1 is exactly [Solver.solve]. *)
          round_solve b)
    with
    | Solver.Unsat -> best
    | Solver.Unknown r ->
      proven := false;
      stopped := Some r;
      best
    | Solver.Sat ->
      let mask = Array.init n (fun i -> Solver.lit_value sat t.choice.(i)) in
      let v, d, path = exact_objective t terms mask in
      let ((b', _, _) as best') =
        if b <= v then best
        else begin
          Obs.incr m_omt_incumbent_updates;
          Obs.set m_omt_incumbent (float_of_int v);
          Trace.counter "omt.incumbent" (float_of_int v);
          Ring.record k_omt_incumbent v !rounds d;
          (v, mask, d)
        end
      in
      incr cuts;
      add_path_cut b' path;
      (* block this exact choice (under the run guard when reusable) *)
      Solver.add_clause sat
        (guard_clause
           (Array.to_list
              (Array.mapi
                 (fun i c -> if mask.(i) then Lit.negate c else c)
                 t.choice)));
      improve best'
    end
  in
  (* Retire a reusable run: asserting ¬act permanently satisfies every
     clause this run guarded, so the next run (possibly a different
     objective) starts from a clean constraint set while keeping the
     solver's learnt clauses, phases and activities. *)
  let retire () =
    match act with
    | None -> ()
    | Some a -> Solver.add_clause sat [ Lit.negate a ]
  in
  (* Greedy warm start: a good incumbent keeps the first pruning
     encoding small and tight. A stop here means no incumbent exists
     yet, which the pipeline's degradation ladder turns into the greedy
     fallback. *)
  match
    Trace.span "omt.warm_start" (fun () ->
        greedy ~budget ~site:Fault.Warm_start t obj)
  with
  | _, Some r ->
    retire ();
    Error (`Budget_exhausted r)
  | mask, None ->
    let warm_v, d, _ = exact_objective t terms mask in
    Obs.set m_omt_incumbent (float_of_int warm_v);
    Trace.counter "omt.incumbent" (float_of_int warm_v);
    let v, mask, d = improve (warm_v, mask, d) in
    retire ();
    assert (
      Lint.check_schedule t.part ~durations:(durations_for t mask) ~makespan:d
      = []);
    Ok
      {
        chosen =
          Array.to_list t.subs |> List.filter (fun s -> mask.(s.Rules.id));
        objective_value = v;
        makespan = d;
        rounds = !rounds;
        proven_optimal = !proven;
        stopped = !stopped;
      }
  end

let evaluate_choice t obj chosen =
  let terms = objective_terms t obj in
  let mask = Array.make (Array.length t.subs) false in
  List.iter (fun s -> mask.(s.Rules.id) <- true) chosen;
  let v, _, _ = exact_objective t terms mask in
  v
