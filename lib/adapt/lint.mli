module Block = Qca_circuit.Block
module Circuit = Qca_circuit.Circuit

(** Static model linter and end-to-end adaptation certifier (the
    [qca-lint] tool).

    {!check_model} inspects the inputs of the SMT model {e before} any
    solving: the block precedence graph must be acyclic (Eq. 2 would
    otherwise be unsatisfiable for structural, not physical, reasons),
    every gate must be covered by exactly one block, the Eq. 1 mutual-
    exclusion pairs must cover every pair of overlapping substitutions,
    and each substitution's deltas must agree exactly with the Table I
    costs of its replacement gates relative to the direct translation
    of the gates it substitutes (and the replacement must be native).

    {!certify_adaptation} checks a finished adaptation end to end:
    native gates only, unitary equivalence with the original (up to
    global phase), and recomputed duration / log-fidelity consistent
    with what the solver claimed. *)

type severity = Error | Warning

type issue = { severity : severity; rule : string; message : string }
(** [rule] is a stable dashed identifier, e.g. ["precedence-acyclic"]. *)

val pp_issue : Format.formatter -> issue -> unit

val errors : issue list -> issue list
(** Only the [Error]-severity issues. *)

val check_model :
  ?conflict_pairs:(int * int) list ->
  Hardware.t ->
  Block.t ->
  Rules.t list ->
  issue list
(** Lints a partitioned circuit and its substitution space.
    [conflict_pairs] defaults to [Rules.conflicts subs]; pass the pairs
    actually handed to the model to check {e them} — a pair of
    overlapping substitutions missing from the list (an empty or
    truncated Eq. 1 clique) is an error, a pair of non-overlapping ones
    a warning. *)

val check_schedule :
  Block.t -> durations:int array -> makespan:int -> issue list
(** [check_schedule part ~durations ~makespan] checks a solved schedule
    (Eq. 2/3): given the per-block [durations] the chosen substitutions
    imply, [makespan] must {e equal} the longest path through the block
    dependencies (rule ["schedule-makespan"]). The path is recomputed
    from the precedence check's own topological order and shares no
    code with the model. A cyclic or malformed precedence graph is
    reported under ["precedence-acyclic"]. *)

val certify_adaptation :
  Hardware.t ->
  original:Circuit.t ->
  adapted:Circuit.t ->
  ?claimed_makespan:int ->
  ?claimed_log_fid_fp:int ->
  unit ->
  issue list
(** Certifies a finished adaptation. [claimed_makespan] is the SMT
    solution's circuit duration; Eq. 3 is a block-level estimate that
    can undershoot the realized gate-level schedule, so a longer
    recomputed duration is only a warning. [claimed_log_fid_fp] is a
    claimed log-fidelity in the model's 1e6·ln fixed point; fidelity
    is schedule-independent and the final merge can only improve it,
    so a recomputed value below the claim (modulo fixed-point
    rounding) is an error. *)
