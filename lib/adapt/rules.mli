module Gate = Qca_circuit.Gate
module Block = Qca_circuit.Block

(** Substitution-rule evaluation (step (b) of the paper's workflow).

    Each rule of Fig. 3 is matched against the partitioned circuit; a
    match [s] records the substituted source gates [p_s], the
    replacement native gates [g_s], the affected block, and the duration
    / log-fidelity deltas of Eq. 4 and Eq. 6 relative to the direct
    basis translation. *)

type kind =
  | Cond_rot  (** one [cx] → CROT(π) + S on the control (Fig. 3b) *)
  | Swap_native_d  (** three alternating [cx] → [Swap_d] (Fig. 3d) *)
  | Swap_native_c  (** three alternating [cx] → [Swap_c] *)
  | Kak_cz  (** whole block → KAK circuit over CZ (Fig. 3c) *)
  | Kak_cz_db  (** whole block → KAK circuit over diabatic CZ *)

type t = {
  id : int;
  kind : kind;
  block_id : int;
  substituted : int list;  (** gate indices in the original circuit, p_s *)
  replacement : Gate.t list;  (** native replacement gates g_s, on circuit wires *)
  delta_duration : int;  (** 𝔻(s), Eq. 4 *)
  delta_log_fid : int;  (** 𝔽(s), Eq. 6, fixed-point (1e6·ln) *)
}

val kind_name : kind -> string

val reference_duration : Hardware.t -> Gate.t -> int
(** Duration of a source gate under direct basis translation (sum of the
    translated gates' durations). *)

val reference_log_fid : Hardware.t -> Gate.t -> int

val find_all : Hardware.t -> Block.t -> t list
(** All rule matches on the partitioned circuit, with fresh ids
    [0..n-1]. KAK substitutions are only generated for two-qubit blocks
    whose KAK circuit actually differs from the reference cost profile
    is well-defined (i.e. every [Pair] block). *)

val overlap : t -> t -> bool
(** The substitution-overlap relation: the two matches substitute at
    least one common source gate, so at most one of them may be chosen
    (Eq. 1). *)

val conflicts : t list -> (int * int) list
(** Pairs of substitution ids with overlapping [substituted] sets
    (Eq. 1). *)

val block_reference_duration : Hardware.t -> Block.t -> int -> int
(** [block_reference_duration hw part b] — critical path of block [b]'s
    direct basis translation, the paper's reference block duration
    [D(b)]. *)

val block_reference_log_fid : Hardware.t -> Block.t -> int -> int
(** Σ log-fidelities of the reference translation of block [b]. *)
