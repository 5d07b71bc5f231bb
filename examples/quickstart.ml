(* Quickstart: build a small circuit in the IBM basis, adapt it to the
   spin-qubit hardware with the SMT model, and inspect the result.

   Run with:  dune exec examples/quickstart.exe *)

module Circuit = Qca_circuit.Circuit
module Gate = Qca_circuit.Gate
open Qca_adapt

let () =
  (* A 3-qubit GHZ-preparation circuit followed by a swap, written in
     the IBM basis {rz, sx, x, cx}. *)
  let circuit =
    Circuit.of_gates 3
      [
        Gate.Single (Gate.Sx, 0);
        Gate.Single (Gate.Rz (Float.pi /. 2.0), 0);
        Gate.Two (Gate.Cx, 0, 1);
        Gate.Two (Gate.Cx, 1, 2);
        (* swap qubits 0 and 1 as three alternating CNOTs *)
        Gate.Two (Gate.Cx, 0, 1);
        Gate.Two (Gate.Cx, 1, 0);
        Gate.Two (Gate.Cx, 0, 1);
      ]
  in
  Format.printf "input:@.%a@.@." Circuit.pp circuit;

  let hw = Hardware.d0 in

  (* The baseline every figure compares against: direct basis
     translation (each cx becomes H·CZ·H, singles merge). *)
  let direct = Pipeline.adapt hw Pipeline.Direct circuit in
  Format.printf "direct translation: %a@." Metrics.pp (Metrics.summarize hw direct);

  (* The paper's contribution: the SMT model with the combined
     fidelity + idle-time objective (Eq. 10). *)
  let outcome = Pipeline.adapt_governed hw (Pipeline.Sat Model.Sat_p) circuit in
  let adapted = outcome.Pipeline.circuit and info = outcome.Pipeline.info in
  Format.printf "SAT P adaptation  : %a@." Metrics.pp (Metrics.summarize hw adapted);
  Format.printf "  %d substitutions considered, %d chosen, %d OMT rounds@."
    info.Pipeline.substitutions_considered info.Pipeline.substitutions_chosen
    info.Pipeline.omt_rounds;

  (* Both circuits implement the same unitary. *)
  assert (Circuit.equivalent circuit adapted);
  assert (Circuit.equivalent circuit direct);

  let baseline = Metrics.summarize hw direct in
  let s = Metrics.summarize hw adapted in
  Format.printf "improvement       : fidelity %+.2f%%, idle time decrease %+.2f%%@."
    (Metrics.fidelity_change_pct ~baseline s)
    (Metrics.idle_decrease_pct ~baseline s);
  Format.printf "@.adapted circuit:@.%a@." Circuit.pp adapted
