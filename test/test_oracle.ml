(* An optimality oracle for the adaptation model that shares no code
   with it. Every conflict-free substitution choice is enumerated and
   scored here from the definitions: a block lasts its reference
   translation's duration plus the chosen deltas (Eq. 3), the makespan
   is the longest path over the dependency edges (Eq. 2) by a memoized
   recursion of its own, and Eq. 8-10 are built from the Hardware
   constants. Nothing below calls Model.exact_objective, the model's
   critical-path routine or Block.topological_order.

   The oracle backs every "proven optimal" the OMT driver reports on
   random small circuits; a reference greedy written from its spec
   (test_incremental's greedy differential) pins Model.greedy's choices
   and their order. *)

module Model = Qca_adapt.Model
module Rules = Qca_adapt.Rules
module Hardware = Qca_adapt.Hardware
module Pipeline = Qca_adapt.Pipeline
module Block = Qca_circuit.Block
module Circuit = Qca_circuit.Circuit
module Parse = Qca_circuit.Parse
module Workloads = Qca_workloads.Workloads
module Fault = Qca_util.Fault
module Solver = Qca_sat.Solver

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* {1 The scorer} *)

type scorer = {
  hw : Hardware.t;
  subs : Rules.t array;  (* indexed by substitution id *)
  preds : int list array;  (* dependency predecessors per block *)
  base_dur : int array;
  base_fid : int array;
  qubits : int;
}

let scorer hw part subs =
  let subs =
    Array.of_list (List.sort (fun a b -> compare a.Rules.id b.Rules.id) subs)
  in
  Array.iteri (fun i s -> assert (s.Rules.id = i)) subs;
  let n_blocks = Array.length part.Block.blocks in
  let preds = Array.make n_blocks [] in
  List.iter (fun (a, b) -> preds.(b) <- a :: preds.(b)) part.Block.deps;
  {
    hw;
    subs;
    preds;
    base_dur = Array.init n_blocks (Rules.block_reference_duration hw part);
    base_fid = Array.init n_blocks (Rules.block_reference_log_fid hw part);
    qubits = Circuit.num_qubits part.Block.circuit;
  }

let longest_path sc dur =
  let memo = Array.make (Array.length dur) (-1) in
  let rec finish b =
    if memo.(b) < 0 then
      memo.(b) <-
        dur.(b)
        + List.fold_left (fun acc p -> max acc (finish p)) 0 sc.preds.(b);
    memo.(b)
  in
  let best = ref 0 in
  Array.iteri (fun b _ -> best := max !best (finish b)) dur;
  !best

(* The minimized integers of Eq. 8-10: fidelities are 1e6·ln fixed
   point, idle time is Q·D − Σ d_b, and Eq. 10 (Σ f_b − idle / T2) is
   scaled by T2·1e6. *)
let score sc obj mask =
  let dur = Array.copy sc.base_dur and fid = Array.copy sc.base_fid in
  Array.iteri
    (fun i (s : Rules.t) ->
      if mask.(i) then begin
        let b = s.Rules.block_id in
        dur.(b) <- dur.(b) + s.Rules.delta_duration;
        fid.(b) <- fid.(b) + s.Rules.delta_log_fid
      end)
    sc.subs;
  let sum = Array.fold_left ( + ) 0 in
  let idle = (sc.qubits * longest_path sc dur) - sum dur in
  match obj with
  | Model.Sat_f -> -sum fid
  | Model.Sat_r -> idle
  | Model.Sat_p ->
    (1_000_000 * idle) - (int_of_float sc.hw.Hardware.t2 * sum fid)

(* Eq. 1, from the substituted gate sets. *)
let overlap (a : Rules.t) (b : Rules.t) =
  List.exists (fun g -> List.mem g b.Rules.substituted) a.Rules.substituted

let compatible sc mask i =
  let ok = ref true in
  Array.iteri
    (fun j chosen ->
      if chosen && overlap sc.subs.(i) sc.subs.(j) then ok := false)
    mask;
  !ok

let mask_of sc chosen =
  let mask = Array.make (Array.length sc.subs) false in
  List.iter (fun s -> mask.(s.Rules.id) <- true) chosen;
  mask

(* {1 The brute-force oracle} *)

(* The best score of each objective over every conflict-free mask,
   enumerated depth-first over substitution ids. *)
let optima sc objs =
  let n = Array.length sc.subs in
  let best = List.map (fun _ -> ref max_int) objs in
  let mask = Array.make n false in
  let rec go i =
    if i = n then
      List.iter2 (fun obj b -> b := min !b (score sc obj mask)) objs best
    else begin
      go (i + 1);
      if compatible sc mask i then begin
        mask.(i) <- true;
        go (i + 1);
        mask.(i) <- false
      end
    end
  in
  go 0;
  List.map ( ! ) best

let objectives = [ Model.Sat_f; Model.Sat_r; Model.Sat_p ]

let max_subs = 18

(* Checks one model run against the oracle: the returned choice scores
   to the reported objective, and a proven optimum is the optimum. *)
let check_solution sc obj ~optimum (sol : Model.solution) =
  checki "chosen scores to the objective"
    (score sc obj (mask_of sc sol.Model.chosen))
    sol.Model.objective_value;
  if sol.Model.proven_optimal then
    checki "proven optimum is the brute-force optimum" optimum
      sol.Model.objective_value

let random_circuit seed =
  let num_qubits = 2 + (seed mod 3) in
  if seed / 3 mod 2 = 0 then
    Workloads.quantum_volume ~seed ~num_qubits ~layers:(1 + (seed / 6 mod 3))
  else Workloads.random_template ~seed ~num_qubits ~depth:(1 + (seed / 6 mod 6))

let prop_oracle =
  QCheck.Test.make ~name:"proven optimum matches brute force (D0/D1, jobs 1/2)"
    ~count:24 (QCheck.int_bound 10_000) (fun seed ->
      let circuit = random_circuit seed in
      let part = Block.partition circuit in
      List.iter
        (fun hw ->
          let subs = Rules.find_all hw part in
          QCheck.assume (List.length subs <= max_subs);
          let sc = scorer hw part subs in
          List.iter2
            (fun obj optimum ->
              List.iter
                (fun jobs ->
                  let model = Model.build hw part subs in
                  match Model.optimize ~jobs model obj with
                  | Ok sol -> check_solution sc obj ~optimum sol
                  | Error _ -> Alcotest.fail "unbudgeted optimize failed")
                [ 1; 2 ])
            objectives (optima sc objectives))
        [ Hardware.d0; Hardware.d1 ];
      true)

(* {1 The reference greedy} *)

(* From the spec: each sweep adds the lowest-id compatible substitution
   whose choice scores strictly best, until none improves the score.
   Returns the additions in order. *)
let reference_greedy sc obj =
  let mask = Array.make (Array.length sc.subs) false in
  let rec sweep current added =
    let best = ref None in
    Array.iteri
      (fun i _ ->
        if (not mask.(i)) && compatible sc mask i then begin
          mask.(i) <- true;
          let v = score sc obj mask in
          mask.(i) <- false;
          match !best with
          | Some (_, bv) when bv <= v -> ()
          | _ -> if v < current then best := Some (i, v)
        end)
      sc.subs;
    match !best with
    | None -> List.rev added
    | Some (i, v) ->
      mask.(i) <- true;
      sweep v (i :: added)
  in
  sweep (score sc obj mask) []

(* Example circuits, from the test directory under dune or from the
   repository root under [dune exec]. *)
let example name =
  let path =
    [ "../examples/circuits"; "examples/circuits" ]
    |> List.map (fun d -> Filename.concat d name)
    |> List.find Sys.file_exists
  in
  Result.get_ok
    (Parse.parse (In_channel.with_open_text path In_channel.input_all))

(* The deep template (3 qubits, depth 160, 458 substitutions) pins the
   greedy warm start and the OMT rounds at scale. It takes from about
   15 s to over a minute, depending on which KAK variant the process
   synthesized last, so it runs only with QCA_DEEP=1 (the CI
   incremental job sets it). *)
let test_deep_template_counts () =
  if Sys.getenv_opt "QCA_DEEP" <> Some "1" then Alcotest.skip ();
  let circuit = example "deep_template.txt" in
  List.iter
    (fun (obj, chosen) ->
      let o = Pipeline.adapt_governed Hardware.d0 (Pipeline.Sat obj) circuit in
      let info = o.Pipeline.info in
      checkb "full tier" true (o.Pipeline.tier = Pipeline.Full);
      checki "considered" 458 info.Pipeline.substitutions_considered;
      checki (Model.objective_name obj ^ " chosen") chosen
        info.Pipeline.substitutions_chosen;
      checki (Model.objective_name obj ^ " rounds") 17 info.Pipeline.omt_rounds)
    [ (Model.Sat_f, 57); (Model.Sat_r, 81); (Model.Sat_p, 81) ]

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 13 |]) prop_oracle;
    ("deep template counts (QCA_DEEP=1)", `Slow, test_deep_template_counts);
  ]
