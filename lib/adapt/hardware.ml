module Gate = Qca_circuit.Gate

type spec = { duration : int; fidelity : float }

type t = {
  name : string;
  su2 : spec;
  cz : spec;
  cz_db : spec;
  crot : spec;
  swap_d : spec;
  swap_c : spec;
  t2 : float;
  t1 : float;
}

let t2_ns = 2900.0

(* Table I of the paper; T2 from [6] (Petit et al.), T1 three orders of
   magnitude larger (section V-B). *)
let d0 =
  {
    name = "D0";
    su2 = { duration = 30; fidelity = 0.999 };
    cz = { duration = 152; fidelity = 0.999 };
    cz_db = { duration = 67; fidelity = 0.99 };
    crot = { duration = 660; fidelity = 0.994 };
    swap_d = { duration = 19; fidelity = 0.99 };
    swap_c = { duration = 89; fidelity = 0.999 };
    t2 = t2_ns;
    t1 = 1000.0 *. t2_ns;
  }

let d1 =
  {
    d0 with
    name = "D1";
    su2 = { duration = 30; fidelity = 0.999 };
    cz = { duration = 151; fidelity = 0.999 };
    cz_db = { duration = 7; fidelity = 0.99 };
    crot = { duration = 660; fidelity = 0.994 };
    swap_d = { duration = 9; fidelity = 0.99 };
    swap_c = { duration = 13; fidelity = 0.999 };
  }

let of_string s =
  let key = String.lowercase_ascii s in
  match List.find_opt (fun h -> String.lowercase_ascii h.name = key) [ d0; d1 ] with
  | Some h -> Ok h
  | None -> Error (Printf.sprintf "unknown hardware variant %S" s)

let spec_of t gate =
  match gate with
  | Gate.Single (_, _) -> Some t.su2
  | Gate.Two (g, _, _) -> (
    match g with
    | Gate.Cz -> Some t.cz
    | Gate.Cz_db -> Some t.cz_db
    | Gate.Crx _ | Gate.Cry _ | Gate.Crz _ -> Some t.crot
    | Gate.Swap_d -> Some t.swap_d
    | Gate.Swap_c -> Some t.swap_c
    | Gate.Cx | Gate.Swap | Gate.Iswap | Gate.Cphase _ | Gate.U4 _ -> None)

let is_native t gate = spec_of t gate <> None

let get t gate =
  match spec_of t gate with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Hardware.%s: gate %s is not native" t.name
         (Gate.to_string gate))

let duration t gate = (get t gate).duration
let fidelity t gate = (get t gate).fidelity

let pp fmt t =
  Format.fprintf fmt
    "@[<v>gate characteristics %s:@,\
     %-8s %10s %10s@,\
     %-8s %10d %10.4f@,\
     %-8s %10d %10.4f@,\
     %-8s %10d %10.4f@,\
     %-8s %10d %10.4f@,\
     %-8s %10d %10.4f@,\
     %-8s %10d %10.4f@]"
    t.name "gate" "dur[ns]" "fidelity" "SU(2)" t.su2.duration t.su2.fidelity
    "CZ" t.cz.duration t.cz.fidelity "CZ_db" t.cz_db.duration t.cz_db.fidelity
    "CROT" t.crot.duration t.crot.fidelity "SWAP_d" t.swap_d.duration
    t.swap_d.fidelity "SWAP_c" t.swap_c.duration t.swap_c.fidelity
