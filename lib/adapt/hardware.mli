module Gate = Qca_circuit.Gate

(** Target hardware modality: the semiconducting spin-qubit device of
    Table I.

    Two timing variants are provided: [d0] (geometric/composite-pulse
    gate times, Petit et al.) and [d1] (projected faster drive), with
    the fidelities shared between them exactly as in the paper. *)

type spec = { duration : int;  (** ns *) fidelity : float }

type t = {
  name : string;
  su2 : spec;  (** arbitrary single-qubit gate *)
  cz : spec;
  cz_db : spec;  (** diabatic CZ *)
  crot : spec;  (** conditional rotation, any axis *)
  swap_d : spec;  (** diabatic swap *)
  swap_c : spec;  (** composite-pulse swap *)
  t2 : float;  (** ns *)
  t1 : float;  (** ns *)
}

val d0 : t
val d1 : t

val of_string : string -> (t, string) result
(** [d0] or [d1] by {!field-name}, case-insensitively ("d0", "D1"): the
    one parser behind every CLI's [--hw] and the serve protocol. *)

val is_native : t -> Gate.t -> bool
(** Native set: any single-qubit gate (executed as one SU(2) pulse),
    [Cz], [Cz_db], the conditional rotations ([Crx]/[Cry]/[Crz]),
    [Swap_d] and [Swap_c]. *)

val duration : t -> Gate.t -> int
(** Duration of a native gate; raises [Invalid_argument] on non-native
    gates ([Cx], [Swap], [Iswap], [Cphase], [U4]). *)

val fidelity : t -> Gate.t -> float

val pp : Format.formatter -> t -> unit
(** Renders Table I for this variant. *)
