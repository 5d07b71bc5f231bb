(* Order statistics for benchmark samples.

   A percentile is reported only when at least [min_beyond] samples lie
   beyond it: the 90th percentile needs 100 samples, the median 20.
   Below that the value is too noisy to gate on, so the caller gets
   [None] and must say so instead of printing a number. *)

let min_beyond = 10

let samples_beyond ~pct n = n * (100 - pct) / 100

let reportable ~pct n = pct > 0 && pct < 100 && samples_beyond ~pct n >= min_beyond

(* Linear interpolation between closest ranks (the "type 7" rule used by
   NumPy's default). [xs] need not be sorted. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let h = q *. float_of_int (n - 1) in
  let lo = truncate h in
  let hi = min (n - 1) (lo + 1) in
  s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let percentile ~pct xs =
  if reportable ~pct (Array.length xs) then
    Some (quantile (float_of_int pct /. 100.0) xs)
  else None

let median xs = quantile 0.5 xs
