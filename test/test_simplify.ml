(* Inprocessing tests: differential equivalence (the simplifying solver
   and the raw solver must agree on every verdict and on optimized
   objectives), DRUP certification with elimination and vivification
   active, and model reconstruction over eliminated variables. *)

module Solver = Qca_sat.Solver
module Lit = Qca_sat.Lit
module Drup = Qca_check.Drup
module Audit = Qca_check.Audit
module Rng = Qca_util.Rng
module Block = Qca_circuit.Block
module Workloads = Qca_workloads.Workloads
open Qca_adapt

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let no_simplify = { Solver.default_options with use_simplify = false }

let random_instance rng nvars nclauses =
  List.init nclauses (fun _ ->
      List.init 3 (fun _ -> Lit.make (Rng.int rng nvars) (Rng.bool rng)))

let fresh_solver ?options ?(proof = false) nvars clauses =
  let s = Solver.create ?options () in
  if proof then Solver.enable_proof s;
  for _ = 1 to nvars do
    ignore (Solver.new_var s)
  done;
  List.iter (Solver.add_clause s) clauses;
  s

(* A 3-CNF instance with forced BVE fodder: chains of equivalences
   x_i <-> x_{i+1} give variables with exactly one positive and one
   negative binary occurrence — prime elimination targets — without
   changing satisfiability of the random core. *)
let instance_with_chains rng nvars nclauses =
  let core = random_instance rng nvars nclauses in
  let total = nvars + 6 in
  let chains =
    List.concat_map
      (fun i ->
        let a = Lit.pos (nvars + i) and b = Lit.pos (nvars + i + 1) in
        [ [ Lit.negate a; b ]; [ a; Lit.negate b ] ])
      [ 0; 2; 4 ]
  in
  (total, core @ chains)

let test_differential_verdicts () =
  let rng = Rng.create 4242 in
  let sats = ref 0 and unsats = ref 0 in
  for _ = 1 to 60 do
    let nvars = 8 + Rng.int rng 8 in
    let total, clauses = instance_with_chains rng nvars (4 * nvars) in
    let raw = fresh_solver ~options:no_simplify total clauses in
    let simp = fresh_solver total clauses in
    (* the eager pass makes the inprocessing run regardless of whether
       the search would ever restart on so small an instance *)
    Solver.simplify ~force:true simp;
    (* inprocessing deletes clauses that may be root-level reasons; the
       arena compaction after it must leave no reason on a dead clause *)
    Alcotest.(check (list string)) "audit clean after simplify" []
      (Audit.check simp);
    let r_raw = Solver.solve raw and r_simp = Solver.solve simp in
    checkb "verdicts agree" true (r_raw = r_simp);
    (match r_simp with
    | Solver.Sat -> incr sats
    | Solver.Unsat -> incr unsats
    | Solver.Unknown _ -> Alcotest.fail "unbudgeted solve returned unknown");
    (* a Sat answer must come with a model of the *original* clauses,
       eliminated variables included *)
    if r_simp = Solver.Sat then
      List.iter
        (fun clause ->
          checkb "model satisfies original clause" true
            (List.exists (fun l -> Solver.lit_value simp l) clause))
        clauses
  done;
  checkb "differential corpus saw both verdicts" true (!sats > 0 && !unsats > 0)

let test_differential_incremental () =
  (* clauses added after a simplifying solve must behave identically to
     the raw solver, including re-mentioning eliminated variables *)
  let rng = Rng.create 515 in
  for _ = 1 to 20 do
    let nvars = 10 in
    let total, clauses = instance_with_chains rng nvars 30 in
    let raw = fresh_solver ~options:no_simplify total clauses in
    let simp = fresh_solver total clauses in
    Solver.simplify ~force:true simp;
    checkb "round 1 agrees" true (Solver.solve raw = Solver.solve simp);
    let extra =
      List.init 6 (fun _ ->
          List.init 2 (fun _ -> Lit.make (Rng.int rng total) (Rng.bool rng)))
    in
    List.iter (Solver.add_clause raw) extra;
    List.iter (Solver.add_clause simp) extra;
    checkb "round 2 agrees" true (Solver.solve raw = Solver.solve simp)
  done

let test_differential_objective () =
  (* the governed adaptation objective must not depend on inprocessing *)
  let hw = Hardware.d0 in
  List.iter
    (fun (seed, qubits, layers) ->
      let c = Workloads.quantum_volume ~seed ~num_qubits:qubits ~layers in
      let part = Block.partition c in
      let subs = Rules.find_all hw part in
      let value options =
        let m = Model.build ~options hw part subs in
        match Model.optimize m Model.Sat_r with
        | Ok sol ->
          checkb "proven optimal" true sol.Model.proven_optimal;
          sol.Model.objective_value
        | Error _ -> Alcotest.fail "fresh unbudgeted optimize failed"
      in
      checki "objective equal with and without simplify"
        (value no_simplify)
        (value Solver.default_options))
    [ (3, 3, 2); (11, 3, 3); (23, 4, 2) ]

let check_certified what (o : Drup.outcome) =
  match o.Drup.verdict with
  | Drup.Certified -> ()
  | Drup.Refuted msg -> Alcotest.failf "%s: refuted: %s" what msg
  | Drup.Unchecked msg -> Alcotest.failf "%s: unchecked: %s" what msg

let test_drup_with_elimination () =
  let rng = Rng.create 909 in
  let certified_unsat = ref 0 and eliminated = ref 0 in
  for _ = 1 to 30 do
    let nvars = 8 + Rng.int rng 8 in
    let total, clauses = instance_with_chains rng nvars (4 * nvars) in
    let s = fresh_solver ~proof:true total clauses in
    Solver.simplify ~force:true s;
    let r = Solver.solve s in
    let st = Solver.stats s in
    eliminated := !eliminated + st.Solver.eliminated_vars;
    check_certified "simplified instance"
      (Drup.certify ~num_vars:total clauses ~solver:s r);
    if r = Solver.Unsat then incr certified_unsat
  done;
  checkb "some UNSAT proofs replayed" true (!certified_unsat > 0);
  checkb "elimination actually ran" true (!eliminated > 0)

let test_drup_with_vivification () =
  (* a chain instance whose clauses carry removable literals: the
     vivifier shortens them and the shortened clauses enter the proof *)
  let n = 12 in
  let clauses =
    List.concat
      [
        (* x0 -> x1 -> ... -> x11, padded with redundant literals *)
        List.init (n - 1) (fun i ->
            [ Lit.neg_of_var i; Lit.pos (i + 1); Lit.pos ((i + 5) mod n) ]);
        [ [ Lit.pos 0 ]; [ Lit.neg_of_var (n - 1); Lit.pos 1 ] ];
        [ [ Lit.neg_of_var (n - 1); Lit.neg_of_var 1 ] ];
      ]
  in
  let s = fresh_solver ~proof:true n clauses in
  Solver.simplify ~force:true s;
  let r = Solver.solve s in
  check_certified "vivified instance" (Drup.certify ~num_vars:n clauses ~solver:s r)

let test_model_reconstruction () =
  let rng = Rng.create 77 in
  let reconstructed = ref 0 in
  for _ = 1 to 30 do
    let nvars = 8 + Rng.int rng 6 in
    let total, clauses = instance_with_chains rng nvars (3 * nvars) in
    let s = fresh_solver total clauses in
    Solver.simplify ~force:true s;
    if Solver.solve s = Solver.Sat then begin
      let st = Solver.stats s in
      if st.Solver.eliminated_vars > 0 then incr reconstructed;
      (match Audit.check_reconstruction s with
      | [] -> ()
      | problems -> Alcotest.failf "reconstruction: %s" (String.concat "; " problems));
      (* the public model covers eliminated variables too *)
      let model = Solver.model s in
      checki "model spans all variables" total (Array.length model);
      List.iter
        (fun clause ->
          checkb "extended model satisfies original clause" true
            (List.exists
               (fun l ->
                 let v = Lit.var l in
                 if Lit.sign l then model.(v) else not model.(v))
               clause))
        clauses
    end
  done;
  checkb "reconstruction exercised elimination" true (!reconstructed > 0)

let test_stats_and_options_surface () =
  (* the options record drives the pass end to end: off means zero
     inprocessing work is recorded, on records the rounds it ran *)
  let total, clauses = instance_with_chains (Rng.create 1) 10 40 in
  let raw = fresh_solver ~options:no_simplify total clauses in
  Solver.simplify ~force:true raw;
  ignore (Solver.solve raw);
  let st = Solver.stats raw in
  checki "no rounds with simplify off" 0 st.Solver.simplify_rounds;
  let simp = fresh_solver total clauses in
  Solver.simplify ~force:true simp;
  ignore (Solver.solve simp);
  let st = Solver.stats simp in
  checkb "rounds recorded with simplify on" true (st.Solver.simplify_rounds > 0)

let suite =
  [
    Alcotest.test_case "differential: verdicts agree" `Quick
      test_differential_verdicts;
    Alcotest.test_case "differential: incremental adds agree" `Quick
      test_differential_incremental;
    Alcotest.test_case "differential: adaptation objective" `Quick
      test_differential_objective;
    Alcotest.test_case "drup: certified with elimination" `Quick
      test_drup_with_elimination;
    Alcotest.test_case "drup: certified with vivification" `Quick
      test_drup_with_vivification;
    Alcotest.test_case "model reconstruction over eliminated vars" `Quick
      test_model_reconstruction;
    Alcotest.test_case "stats/options surface" `Quick
      test_stats_and_options_surface;
  ]
