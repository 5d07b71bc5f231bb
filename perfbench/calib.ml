(* The machine's speed, measured alongside the work.

   The benchmark runs on a small virtual machine that shares its host,
   and the machine's speed drifts: the same solve took 10-30 % longer
   in one ten-second window than in another, on CPU time as much as on
   wall time, so the VM is not losing time slices but running on a
   slower processor. Within-run medians cannot remove drift that lasts
   longer than a run.

   So a timed section also runs a fixed reference kernel, about every
   half second, between operations. The kernel is the benchmark's own
   code, which no change to the program touches. Each operation's time
   is scaled by how fast the kernel ran around it: a time in reference
   milliseconds is what the operation would have taken on a machine
   where the kernel takes [reference_ms], the 2-vCPU x86 VM the bounds
   were set on. A change to the program moves scaled times as it moves
   raw ones; a slower or faster machine moves the kernel as much as the
   work and leaves scaled times where they were.

   In trials on that VM, the median time of a small solve over
   ten-second windows spread 0.06-0.14 (quartile distance over median);
   scaled by this kernel it spread 0.01-0.05. *)

let now = Qca_util.Clock.now

(* The kernel's median time on the reference VM. *)
let reference_ms = 26.0

(* How often the kernel runs, and how many of its samples, nearest in
   time to an operation, give that operation's scale. *)
let interval_s = 0.5
let window = 7

(* Sorting freshly built tuples under polymorphic compare: allocation,
   minor collections and pointer chasing, as in the solver's and the
   adaptation's inner loops. Of four kernels tried (a random walk over
   an int array, hash-table churn, this one, and this one on a
   preallocated array) it followed the solver's speed most closely. *)
let base =
  let st = Random.State.make [| 0xca1b |] in
  Array.init 30_000 (fun _ -> (Random.State.int st 1_000_000, Random.State.int st 1_000))

let kernel () =
  let x = Array.map (fun (p, q) -> (q, p, [ p; q ])) base in
  Array.sort compare x;
  ignore (Sys.opaque_identity x)

type t = {
  mutable samples : (float * float) list;  (** (end time, kernel ms), newest first *)
  mutable last : float;
}

let sample c =
  let t0 = now () in
  kernel ();
  let t1 = now () in
  c.samples <- (t1, (t1 -. t0) *. 1000.0) :: c.samples;
  c.last <- t1

(* A fresh tracker, after a few untimed kernel runs, so the first
   sample meets warm caches. *)
let create () =
  for _ = 1 to 3 do
    kernel ()
  done;
  let c = { samples = []; last = neg_infinity } in
  sample c;
  c

(* A tracker that never runs the kernel, for traced runs: their
   per-layer times are raw, and kernel time would be time that no layer
   accounts for. *)
let off () = { samples = []; last = infinity }

(* Called between operations: runs the kernel when [interval_s] has
   passed since it last ran. *)
let tick c = if now () -. c.last >= interval_s then sample c

(* For samples [(end time, kernel ms)] in time order, the factor that
   turns a raw time measured at [t] into reference time: [reference_ms]
   over the median of the [window] samples nearest to [t]. *)
let scale_of samples =
  let n = Array.length samples in
  let w = min window n in
  fun t ->
    (* the first sample at or after [t], then a window of [w] around it *)
    let rec first lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst samples.(mid) < t then first (mid + 1) hi else first lo mid
    in
    let lo = max 0 (min (n - w) (first 0 n - (w / 2))) in
    reference_ms /. Stats.median (Array.init w (fun i -> snd samples.(lo + i)))

(* The scale of a finished timed section; one last sample first, so
   every operation has samples on both sides. *)
let scale c =
  sample c;
  scale_of (Array.of_list (List.rev c.samples))

(* The scale of the run so far, from the median of all its samples. *)
let current c = reference_ms /. Stats.median (Array.of_list (List.map snd c.samples))

(* [timed f] runs [f] and returns its result, its raw time in ms and
   the middle of its interval, the time to scale it at. *)
let timed f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  (r, (t1 -. t0) *. 1000.0, (t0 +. t1) /. 2.0)

(* The kernel's median time and sample count, for the run's metadata:
   its ratio to [reference_ms] is how much slower than the reference
   machine this one ran. *)
let notes c =
  match Array.of_list (List.map snd c.samples) with
  | [||] -> []
  | ms ->
    [
      ("kernel_ms", Printf.sprintf "%.2f" (Stats.median ms));
      ("kernel_samples", string_of_int (Array.length ms));
    ]
