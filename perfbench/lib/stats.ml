(* Order statistics over per-verdict samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** Linear interpolation between closest ranks (Python's
    [statistics.quantiles(..., method='inclusive')]); [q] in [0, 1]. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples"
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(** The 90th percentile is reported only when at least ten samples lie
    beyond it, i.e. from 100 samples on. *)
let p90_min_samples = 100

let p90 xs = if List.length xs < p90_min_samples then None else Some (quantile 0.9 xs)
