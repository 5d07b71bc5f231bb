(* Differential suite: incremental OMT reuse and portfolio seats must
   change wall-clock only. Objective values with reuse on, at one seat
   and at two, match the brute-force optimum of {!Test_oracle}, across a
   small corpus and every objective; the one greedy matches a reference
   greedy written from its spec; and a portfolio winner's DRUP proof
   replays. *)

open Qca_sat
module Portfolio = Qca_par.Portfolio
module Drup = Qca_check.Drup
module Model = Qca_adapt.Model
module Block = Qca_circuit.Block
module Rules = Qca_adapt.Rules
module Hardware = Qca_adapt.Hardware
module Pipeline = Qca_adapt.Pipeline
module Lint = Qca_adapt.Lint
module Workloads = Qca_workloads.Workloads
module Rng = Qca_util.Rng
module Fault = Qca_util.Fault
module Oracle = Test_oracle

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let hw = Hardware.d0

(* {1 Portfolio certification} *)

(* PHP(n, n-1): n pigeons into n-1 holes, UNSAT with enough conflicts
   that every seat searches. *)
let php n =
  let holes = n - 1 in
  let var p h = (p * holes) + h in
  let at_least =
    List.init n (fun p -> List.init holes (fun h -> Lit.make (var p h) false))
  in
  let at_most = ref [] in
  for h = 0 to holes - 1 do
    for p = 0 to n - 1 do
      for q = p + 1 to n - 1 do
        at_most :=
          [ Lit.make (var p h) true; Lit.make (var q h) true ] :: !at_most
      done
    done
  done;
  (n * holes, at_least @ !at_most)

let fresh_solver num_vars clauses =
  let s = Solver.create () in
  for _ = 1 to num_vars do
    ignore (Solver.new_var s)
  done;
  List.iter (Solver.add_clause s) clauses;
  s

let test_portfolio_certified () =
  let num_vars, clauses = php 6 in
  let s = fresh_solver num_vars clauses in
  let o = Portfolio.solve_portfolio ~proof:true ~jobs:4 s in
  checkb "portfolio unsat" true (o.Portfolio.verdict = Solver.Unsat);
  match o.Portfolio.winner_solver with
  | None -> Alcotest.fail "expected a winning clone at jobs > 1"
  | Some w ->
    let outcome = Drup.certify ~num_vars clauses ~solver:w Solver.Unsat in
    checkb "winner's proof replays" true
      (outcome.Drup.verdict = Drup.Certified)

(* {1 Differential: the optimum with reuse on, against brute force} *)

let corpus =
  [
    Workloads.quantum_volume ~seed:11 ~num_qubits:2 ~layers:1;
    Workloads.random_template ~seed:12 ~num_qubits:3 ~depth:6;
    Workloads.quantum_volume ~seed:77 ~num_qubits:3 ~layers:2;
  ]

let objectives = Oracle.objectives

let solve_once ?(jobs = 1) part subs obj =
  let model = Model.build hw part subs in
  Result.get_ok (Model.optimize ~jobs model obj)

(* The scorer and each objective's brute-force optimum for a circuit. *)
let oracle c =
  let part = Block.partition c in
  let subs = Rules.find_all hw part in
  let sc = Oracle.scorer hw part subs in
  (part, subs, sc, List.combine objectives (Oracle.optima sc objectives))

let check_optimal sc obj ~optimum sol =
  checkb "proven optimal" true sol.Model.proven_optimal;
  Oracle.check_solution sc obj ~optimum sol

let test_model_incremental_differential () =
  List.iter
    (fun c ->
      let part, subs, sc, optima = oracle c in
      List.iter
        (fun (obj, optimum) ->
          check_optimal sc obj ~optimum (solve_once part subs obj))
        optima)
    corpus

let test_model_parallel_differential () =
  (* racing portfolio seats must close on the brute-force optimum *)
  let part, subs, sc, optima = oracle (List.nth corpus 2) in
  List.iter
    (fun (obj, optimum) ->
      check_optimal sc obj ~optimum (solve_once ~jobs:2 part subs obj))
    optima

let test_model_reuse_identity () =
  let part, subs, sc, optima = oracle (List.hd corpus) in
  let model = Model.build hw part subs in
  (* repeated non-consuming runs of the same objective are identical *)
  let a = Result.get_ok (Model.optimize ~reuse:true model Model.Sat_p) in
  let b = Result.get_ok (Model.optimize ~reuse:true model Model.Sat_p) in
  checki "repeated reuse is stable" a.Model.objective_value
    b.Model.objective_value;
  (* and the warmed template still closes every other objective on the
     brute-force optimum *)
  List.iter
    (fun (obj, optimum) ->
      check_optimal sc obj ~optimum
        (Result.get_ok (Model.optimize ~reuse:true model obj)))
    optima

let test_greedy_differential () =
  List.iter
    (fun c ->
      let part, subs, sc, _ = oracle c in
      let model = Model.build hw part subs in
      List.iter
        (fun obj ->
          let added = Oracle.reference_greedy sc obj in
          let ids mask =
            List.init (Array.length mask) Fun.id |> List.filter (Array.get mask)
          in
          let greedy fault =
            Model.greedy ~budget:(Solver.budget ~fault ())
              ~site:Fault.Greedy_step model obj
          in
          let mask, stop = greedy Fault.none in
          checkb "ran to completion" true (stop = None);
          Alcotest.(check (list int))
            "same chosen set" (List.sort compare added) (ids mask);
          (* a stop before sweep k+1 keeps exactly the first k additions,
             which pins the order they were made in *)
          List.iteri
            (fun k _ ->
              let mask, stop =
                greedy
                  (Fault.inject [ (Fault.Greedy_step, k + 1, Fault.Exhaust) ])
              in
              checkb "stopped" true (stop = Some Solver.Deadline);
              Alcotest.(check (list int))
                "first additions"
                (List.sort compare (List.filteri (fun j _ -> j < k) added))
                (ids mask))
            added)
        objectives)
    (Oracle.example "paper_example.txt" :: corpus)

let test_pipeline_template_certified () =
  List.iter
    (fun c ->
      let tm = Pipeline.prepare hw c in
      List.iter
        (fun obj ->
          let via_template = Pipeline.adapt_template tm (Pipeline.Sat obj) in
          let scratch = Pipeline.adapt_governed hw (Pipeline.Sat obj) c in
          checkb "template served full tier" true
            (via_template.Pipeline.tier = Pipeline.Full);
          List.iter
            (fun (label, o) ->
              let issues =
                Lint.certify_adaptation hw ~original:c
                  ~adapted:o.Pipeline.circuit
                  ?claimed_makespan:o.Pipeline.claimed_makespan ()
              in
              checkb (label ^ " certifies") true (Lint.errors issues = []))
            [ ("template", via_template); ("scratch", scratch) ];
          (* SAT-P's objective is the makespan itself, so the claimed
             makespans must agree exactly between the two paths *)
          if obj = Model.Sat_p then
            checkb "identical optimum either path" true
              (via_template.Pipeline.claimed_makespan
              = scratch.Pipeline.claimed_makespan))
        objectives)
    corpus

let test_session_knapsack_differential () =
  (* bound-tightening over a persistent portfolio session must land on
     the brute-force optimum, as must fresh portfolio clones per round,
     at one seat and at two *)
  let rng = Rng.create 7 in
  for _ = 1 to 8 do
    let n = 2 + Rng.int rng 5 in
    let costs = Array.init n (fun _ -> Rng.int rng 41 - 20) in
    let exclusions =
      List.init (Rng.int rng 4) (fun _ -> (Rng.int rng n, Rng.int rng n))
      |> List.filter (fun (i, j) -> i <> j)
    in
    let brute = ref max_int in
    for mask = 0 to (1 lsl n) - 1 do
      let feasible =
        List.for_all
          (fun (i, j) ->
            not (mask land (1 lsl i) <> 0 && mask land (1 lsl j) <> 0))
          exclusions
      in
      if feasible then begin
        let sum = ref 0 in
        Array.iteri
          (fun i c -> if mask land (1 lsl i) <> 0 then sum := !sum + c)
          costs;
        brute := min !brute !sum
      end
    done;
    let run ~session ~jobs =
      let s = Solver.create () in
      let vars = Array.init n (fun _ -> Solver.new_var s) in
      List.iter
        (fun (i, j) ->
          Solver.add_clause s [ Lit.neg_of_var vars.(i); Lit.neg_of_var vars.(j) ])
        exclusions;
      let solve =
        if session then begin
          let ss = Portfolio.create_session ~jobs s in
          fun () -> (Portfolio.session_solve ss).Portfolio.verdict
        end
        else fun () -> (Portfolio.solve_portfolio ~jobs s).Portfolio.verdict
      in
      (* enumerate models, blocking each one, until UNSAT closes the
         search; the SAT model is always read from the base solver *)
      let rec minimize best =
        match solve () with
        | Solver.Unsat -> best
        | Solver.Unknown _ -> Alcotest.fail "unbudgeted solve stopped"
        | Solver.Sat ->
          let value v = Solver.value s v in
          let sum = ref 0 in
          Array.iteri (fun i v -> if value v then sum := !sum + costs.(i)) vars;
          Solver.add_clause s
            (Array.to_list
               (Array.map
                  (fun v -> if value v then Lit.neg_of_var v else Lit.pos v)
                  vars));
          minimize (min best !sum)
      in
      minimize max_int
    in
    List.iter
      (fun jobs ->
        checki "incremental session" !brute (run ~session:true ~jobs);
        checki "scratch portfolio" !brute (run ~session:false ~jobs))
      [ 1; 2 ];
    checki "all domains joined" 0 (Portfolio.live_domains ())
  done

let suite =
  [
    ("portfolio sharing certified", `Quick, test_portfolio_certified);
    ("model incremental differential", `Quick,
     test_model_incremental_differential);
    ("model parallel share differential", `Quick,
     test_model_parallel_differential);
    ("model reuse identity", `Quick, test_model_reuse_identity);
    ("greedy differential", `Quick, test_greedy_differential);
    ("pipeline template certified", `Quick, test_pipeline_template_certified);
    ("session knapsack differential", `Quick,
     test_session_knapsack_differential);
  ]
