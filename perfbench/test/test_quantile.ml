(* Unit tests for the benchmark's raw-sample percentile helper. *)

module Q = Perfbench.Quantile

let failures = ref 0

let expect name got want =
  if got <> want then begin
    incr failures;
    Printf.printf "FAIL %s: got %s, want %s\n" name got want
  end

let int name got want = expect name (string_of_int got) (string_of_int want)
let str name got want = expect name got want
let flt name got want = expect name (Printf.sprintf "%g" got) (Printf.sprintf "%g" want)

(* 1..n in a scrambled order, so summarize has to sort *)
let samples n = Array.init n (fun i -> ((i * 7919) mod n) + 1)

let () =
  (* nearest rank, computed exactly: p99 of 1000 samples is the 990th *)
  let s = Q.summarize (samples 1000) in
  int "n" s.Q.n 1000;
  int "p50 of 1..1000" s.Q.p50 500;
  int "p99 of 1..1000" s.Q.tail 990;
  int "p99 per-mille" s.Q.tail_pm 990;
  (* the tail is the highest ladder quantile with 10 samples beyond it *)
  int "tail of 999 samples" (Q.summarize (samples 999)).Q.tail_pm 950;
  int "tail of 100 samples" (Q.summarize (samples 100)).Q.tail_pm 900;
  int "tail of 100 samples value" (Q.summarize (samples 100)).Q.tail 90;
  int "tail of 66 samples" (Q.summarize (samples 66)).Q.tail_pm 750;
  int "tail of 20 samples" (Q.summarize (samples 20)).Q.tail_pm 500;
  (* too few samples for any ladder quantile: the maximum, labelled so *)
  let few = Q.summarize [| 5; 3; 9; 1 |] in
  int "max of 4 samples" few.Q.tail 9;
  str "max label" (Q.label few.Q.tail_pm) "max";
  int "p50 of 4 samples" few.Q.p50 3;
  str "p99 label" (Q.label 990) "p99";
  str "p90 label" (Q.label 900) "p90";
  (* one sample answers itself at every quantile *)
  let one = Q.summarize [| 42 |] in
  int "single p50" one.Q.p50 42;
  int "single tail" one.Q.tail 42;
  (* unlike a power-of-two histogram, raw samples give exact values *)
  let exact = Q.summarize (Array.make 50 40_000) in
  int "no bucket rounding" exact.Q.p50 40_000;
  (* medians and quartiles of repeated measurements *)
  flt "median odd" (Q.median [ 3.; 1.; 2. ]) 2.;
  flt "median even" (Q.median [ 4.; 1.; 3.; 2. ]) 2.5;
  flt "lower quartile" (Q.lower_quartile [ 5.; 1.; 4.; 2.; 3.; 6.; 7.; 8. ]) 2.;
  flt "upper quartile" (Q.upper_quartile [ 5.; 1.; 4.; 2.; 3.; 6.; 7.; 8. ]) 6.;
  (match Q.summarize [||] with
  | _ -> expect "empty input" "accepted" "Invalid_argument"
  | exception Invalid_argument _ -> ());
  if !failures > 0 then exit 1;
  print_endline "quantile: all tests passed"
