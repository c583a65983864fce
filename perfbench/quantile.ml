(* Percentiles from raw samples.

   Every latency the benchmark reports is computed here, from the exact
   samples it recorded — never from Telemetry.Histogram, whose percentile
   answers a power-of-two bucket bound (p50 = 65535 ns means "somewhere in
   [32768, 65535]").

   Ranks are nearest-rank and computed in integer per-mille, so p99 of 1000
   samples is exactly the 990th smallest, with no float rounding at the
   boundary. A tail is only reported at a percentile that has at least
   [min_beyond] samples above it; with fewer samples the highest such
   percentile on the ladder is used instead, and the caller reports which
   one it got together with the sample count. *)

let min_beyond = 10

(* p99 down to p50, in per-mille. p99.9 is deliberately absent: the
   benchmark's end-to-end bounds are on p99, the highest tail a run of a
   few tens of thousands of requests can pin down. *)
let ladder = [ 990; 950; 900; 750; 500 ]

(* 1-based nearest rank of the [pm]-per-mille quantile among [n] samples *)
let rank ~n pm = max 1 ((pm * n + 999) / 1000)

let beyond ~n pm = n - rank ~n pm

let at sorted pm =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quantile.at: no samples";
  sorted.(rank ~n pm - 1)

let tail_pm ~n = List.find_opt (fun pm -> beyond ~n pm >= min_beyond) ladder

type summary = {
  n : int;
  p50 : int;
  tail_pm : int;  (** per-mille of [tail]; 1000 means the maximum *)
  tail : int;
}

let summarize samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Quantile.summarize: no samples";
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let tail_pm, tail =
    match tail_pm ~n with
    | Some pm -> (pm, at sorted pm)
    | None -> (1000, sorted.(n - 1))
  in
  { n; p50 = at sorted 500; tail_pm; tail }

(* The quantile's conventional name: 990 -> "p99", 1000 -> "max". *)
let label pm =
  if pm >= 1000 then "max"
  else if pm mod 10 = 0 then Printf.sprintf "p%d" (pm / 10)
  else Printf.sprintf "p%d.%d" (pm / 10) (pm mod 10)

(* Median of a few repeated measurements (mean of the middle two). *)
let median = function
  | [] -> invalid_arg "Quantile.median: no values"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank quartiles of repeated measurements. *)
let quartile pm (xs : float list) =
  if xs = [] then invalid_arg "Quantile.quartile: no values";
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(rank ~n:(Array.length a) pm - 1)

let lower_quartile xs = quartile 250 xs
let upper_quartile xs = quartile 750 xs
