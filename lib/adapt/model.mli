module Block = Qca_circuit.Block
open Qca_sat

(** The adaptation model of section IV-C, solved by CDCL.

    The solver holds one Boolean [c_s] per substitution (set C) and the
    mutual-exclusion clauses of overlapping substitutions (Eq. 1). The
    schedule (Eq. 2/3: block dependencies and the block durations the
    chosen substitutions imply) is never encoded as integer variables:
    the OMT driver in {!optimize} evaluates each candidate's critical
    path exactly and feeds it back as lazy linear cuts over the [c_s].
    Objectives (Eq. 8–10, log-fidelities in 1e6·ln fixed point) are
    minimized by bound tightening over a totalizer encoding, with an
    admissible makespan lower bound; optimality is closed by an UNSAT
    answer. The returned schedule is cross-checked by
    {!Lint.check_schedule}. *)

type objective =
  | Sat_f  (** fidelity objective, Eq. 8 *)
  | Sat_r  (** qubit-idle-time objective, Eq. 9 *)
  | Sat_p  (** combined objective, Eq. 10 *)

val objective_name : objective -> string

type t
(** A built model. One-shot: each {!optimize} call consumes it. *)

val build :
  ?options:Solver.options -> Hardware.t -> Block.t -> Rules.t list -> t

val duration_terms : t -> int -> int * (int * int) list
(** [duration_terms t b] is [(D(b), [(sub id, 𝔻(s)); ...])] — the Eq. 3
    right-hand side of block [b] (used by the paper-example test that
    reproduces Eq. 11). *)

type solution = {
  chosen : Rules.t list;  (** substitutions with [c_s = true] *)
  objective_value : int;  (** minimized integer objective *)
  makespan : int;  (** optimal circuit duration for the chosen set *)
  rounds : int;  (** OMT improvement rounds *)
  proven_optimal : bool;
      (** true when the search closed with an UNSAT certificate; false
          when the anytime round budget stopped it at the incumbent *)
  stopped : Solver.stop_reason option;
      (** set when the resource budget (or an injected fault) stopped
          the search at the incumbent; [None] for a normal anytime stop
          on the driver's own round budget *)
}

type error =
  [ `Already_consumed  (** the one-shot model was optimized before *)
  | `Budget_exhausted of Solver.stop_reason
    (** the budget tripped before any incumbent existed (during the
        warm start) — no solution at all is available from this tier *)
  ]

val optimize :
  ?round_budget:int ->
  ?budget:Solver.budget ->
  ?jobs:int ->
  ?reuse:bool ->
  t ->
  objective ->
  (solution, error) result
(** Optimizes the objective: {!greedy} warm start, then
    branch-and-bound over the CDCL solver with admissible
    pseudo-Boolean pruning and lazily generated critical-path lemmas.
    Solves to proven optimality unless the round budget (default 120)
    runs out first, in which case the incumbent is returned with
    [proven_optimal = false]. A resource
    [budget] governs the warm start, the OMT rounds and every CDCL call
    (fault sites {!Qca_util.Fault.Warm_start}, [Omt_round] and
    [Sat_step]); when it trips after an incumbent exists the incumbent
    is returned with [stopped] set, before one exists the typed
    [`Budget_exhausted] error is returned. Never raises.

    [jobs > 1] races a {!Qca_par.Portfolio} of diversified CDCL seats
    on every OMT round (the final UNSAT-proving round included); the
    objective value is unchanged — optimality is closed by an UNSAT
    answer whatever seat produces it. [jobs = 1] (default) is the
    bit-identical sequential path.

    One solver — and at [jobs > 1] one persistent seat session — stays
    alive across the OMT rounds: the tightened bound enters as an
    assumption literal over the memoized totalizer outputs, so learnt
    clauses, saved phases, VSIDS activities and simplification results
    carry from round to round.

    [reuse] (default [false]) makes the call non-consuming: the run's
    incumbent-exclusion clauses and path cuts are scoped under a fresh
    activation literal and retired on exit, so the same built model can
    be optimized again — for any objective — reusing the encoded
    template, the memoized pruning totalizers and everything the solver
    learnt. The template-cache paths (batch, qca-serve) rely on this. *)

val greedy :
  ?budget:Solver.budget ->
  site:Qca_util.Fault.site ->
  t ->
  objective ->
  bool array * Solver.stop_reason option
(** The one greedy over the model's substitutions, returned as a mask
    indexed by substitution id. Each sweep adds the lowest-id
    substitution compatible with the choice so far (Eq. 1) whose exact
    objective is strictly best, until no substitution improves it.
    [budget] and the fault plan at [site] are consulted before every
    sweep; a stop returns the choice so far (always conflict-free) with
    the reason. {!optimize} runs it as its warm start at
    {!Qca_util.Fault.Warm_start}; the pipeline's [Greedy] method and
    greedy fallback rung run it at [Greedy_step]. Pure: usable on a
    consumed model. *)

val evaluate_choice : t -> objective -> Rules.t list -> int
(** Exact integer objective of an arbitrary conflict-free choice of
    substitutions (used by tests). *)

val sat_stats : t -> Solver.stats
(** Counters of the CDCL solver underlying the model (conflicts,
    propagations, learnt-clause minimization, arena GCs, ...). Valid
    before and after {!optimize}. *)
