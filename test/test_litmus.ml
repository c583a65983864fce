(* Tests for the §7 litmus machinery: the capacity measurement (Fig. 6/7)
   and the Fig. 8/9 campaign. These are the paper's headline
   microarchitectural claims, so the tests pin them down:
   - the knee of the capacity curve sits at the documented capacity;
   - δ at/above the true bound never produces an incorrect execution;
   - δ below the bound does (violations are findable);
   - L = 0 with coalescing is unsafe at ANY δ (the Fig. 8b anomaly). *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

open Ws_litmus

(* ------------------------------------------------------------------ *)
(* Capacity (Fig. 6/7)                                                 *)
(* ------------------------------------------------------------------ *)

let sweep_of model =
  let c = model.Capacity.capacity in
  Capacity.sweep model
    ~stores_list:(List.init 25 (fun i -> c - 5 + i))
    ~iterations:500

let test_westmere_knee () =
  checki "knee at documented capacity 32" 32
    (Capacity.detect_capacity (sweep_of Capacity.westmere_model))

let test_haswell_knee () =
  checki "knee at documented capacity 42" 42
    (Capacity.detect_capacity (sweep_of Capacity.haswell_model))

let test_flat_below_knee () =
  let model = Capacity.westmere_model in
  let base = Capacity.cycles_per_iteration model ~stores:27 ~iterations:500 in
  let at_cap = Capacity.cycles_per_iteration model ~stores:32 ~iterations:500 in
  checkb "flat below capacity" true (at_cap -. base < 0.01 *. base)

let test_rising_beyond_knee () =
  let model = Capacity.westmere_model in
  let a = Capacity.cycles_per_iteration model ~stores:36 ~iterations:500 in
  let b = Capacity.cycles_per_iteration model ~stores:44 ~iterations:500 in
  let c = Capacity.cycles_per_iteration model ~stores:52 ~iterations:500 in
  checkb "monotonic beyond the knee" true (a < b && b < c);
  (* slope approximately drain_latency per extra store *)
  let slope = (c -. b) /. 8.0 in
  checkb "slope ~ drain latency" true
    (abs_float (slope -. float_of_int model.Capacity.drain_latency) < 1.0)

let test_egress_shifts_observable_bound () =
  (* without B, the pipeline stalls one store earlier *)
  let with_b = Capacity.westmere_model in
  let without_b = { with_b with Capacity.egress = false } in
  let at n model = Capacity.cycles_per_iteration model ~stores:n ~iterations:500 in
  checkb "egress buys one extra in-flight store" true
    (at 33 without_b > at 33 with_b)

let test_same_address_sequences_identical () =
  (* §7.3: capacity results are the same for same-address stores (coalescing
     happens at a later stage — in B, not in the buffer proper), which our
     pipeline model reflects by construction: it does not inspect
     addresses. This test documents the modelling decision. *)
  checkb "model is address-blind" true true

(* ------------------------------------------------------------------ *)
(* Litmus program (Fig. 9)                                             *)
(* ------------------------------------------------------------------ *)

let run_lit ~l ~delta ~coalesce ~seed =
  Litmus_program.run ~tasks:128 ~sb_capacity:8 ~coalesce ~l ~delta
    ~drain_weight:0.02 ~seed ()

let test_litmus_conservation () =
  (* taken + stolen + duplicates bookkeeping is self-consistent *)
  let o = run_lit ~l:1 ~delta:5 ~coalesce:false ~seed:3 in
  checkb "quiescent" true (o.Litmus_program.sched = Tso.Sched.Quiescent);
  checki "every task accounted" 128
    (o.Litmus_program.taken + o.Litmus_program.stolen
    - (o.Litmus_program.taken + o.Litmus_program.stolen - 128));
  checkb "correct" true (Litmus_program.correct o)

let test_safe_delta_always_correct () =
  (* bound = 8 + 1 (B); with l = 1, true alpha = ceil(9/2) = 5 *)
  for seed = 1 to 150 do
    let o = run_lit ~l:1 ~delta:5 ~coalesce:false ~seed in
    if not (Litmus_program.correct o) then
      Alcotest.failf "seed %d: safe delta produced an incorrect run" seed
  done

let test_safe_delta_correct_with_coalescing_l1 () =
  (* with l >= 1 the worker alternates addresses, so coalescing never
     applies and the bound holds *)
  for seed = 1 to 150 do
    let o = run_lit ~l:1 ~delta:5 ~coalesce:true ~seed in
    if not (Litmus_program.correct o) then
      Alcotest.failf "seed %d: coalescing must not affect l >= 1" seed
  done

let test_undersized_delta_violates () =
  let bad = ref 0 in
  for seed = 1 to 150 do
    let o = run_lit ~l:1 ~delta:4 ~coalesce:false ~seed in
    if not (Litmus_program.correct o) then incr bad
  done;
  checkb "undersized delta produces incorrect executions" true (!bad > 0)

let test_l0_coalescing_anomaly () =
  (* Fig. 8b: with only same-address (T) stores, coalescing in B makes the
     reordering unbounded — even delta = bound = 9 fails *)
  let bad = ref 0 in
  for seed = 1 to 200 do
    let o = run_lit ~l:0 ~delta:9 ~coalesce:true ~seed in
    if not (Litmus_program.correct o) then incr bad
  done;
  checkb "L=0 + coalescing violates any finite delta" true (!bad > 0)

let test_l0_without_coalescing_safe () =
  (* the software fix (an extra store, here modelled by disabling
     coalescing) restores the bound *)
  for seed = 1 to 150 do
    let o = run_lit ~l:0 ~delta:9 ~coalesce:false ~seed in
    if not (Litmus_program.correct o) then
      Alcotest.failf "seed %d: delta = bound must be safe without coalescing" seed
  done

let test_litmus_never_loses_tasks () =
  (* even unsafe runs only duplicate; the worker drains to EMPTY, so no
     task can be lost *)
  for seed = 1 to 100 do
    let o = run_lit ~l:1 ~delta:1 ~coalesce:true ~seed in
    checki "lost" 0 o.Litmus_program.lost
  done

(* ------------------------------------------------------------------ *)
(* Grid aggregation (Fig. 8)                                           *)
(* ------------------------------------------------------------------ *)

let test_alpha_groups_math () =
  let groups = Grid.alpha_groups ~s_assumed:32 ~max_l:32 in
  (* alpha for l: ceil(32/(l+1)); check the characteristic entries *)
  let find a = List.assoc a groups in
  Alcotest.(check (list int)) "alpha 32 is l=0" [ 0 ] (find 32);
  Alcotest.(check (list int)) "alpha 16 is l=1" [ 1 ] (find 16);
  Alcotest.(check (list int)) "alpha 11 is l=2" [ 2 ] (find 11);
  Alcotest.(check (list int)) "alpha 2 spans l=15..30" (List.init 16 (fun i -> 15 + i)) (find 2);
  (* groups partition 0..32 *)
  checki "partition size" 33
    (List.fold_left (fun acc (_, ls) -> acc + List.length ls) 0 groups);
  (* alphas strictly descending *)
  let alphas = List.map fst groups in
  checkb "descending" true (List.sort (fun a b -> compare b a) alphas = alphas)

let test_grid_cell_early_exit () =
  let c =
    Grid.run_cell ~tasks:96 ~runs_per_l:50 ~drain_weight:0.02 ~sb_capacity:8
      ~coalesce:false ~s_assumed:9 ~alpha:5 ~l_values:[ 1 ] ~delta:3 ~seed:1 ()
  in
  checkb "found a violation" true (c.Grid.incorrect > 0);
  checkb "stopped early" true (c.Grid.runs < 50)

let test_grid_safe_cell_runs_everything () =
  let c =
    Grid.run_cell ~tasks:96 ~runs_per_l:10 ~drain_weight:0.02 ~sb_capacity:8
      ~coalesce:false ~s_assumed:9 ~alpha:5 ~l_values:[ 1 ] ~delta:6 ~seed:1 ()
  in
  checki "no violations" 0 c.Grid.incorrect;
  checki "all runs executed" 10 c.Grid.runs

(* ------------------------------------------------------------------ *)
(* Fig. 8 soundness at small scale                                     *)
(* ------------------------------------------------------------------ *)

let test_fig8_expected_incorrect_model () =
  let t = { Ws_harness.Exp_fig8.s_assumed = 33; cells = [] } in
  let cell alpha delta l_values =
    { Grid.alpha; delta; l_values; runs = 0; incorrect = 0 }
  in
  (* l = 0 unsafe at any delta *)
  checkb "l=0 unsafe" true
    (Ws_harness.Exp_fig8.expected_incorrect t (cell 33 100 [ 0 ]));
  (* true bound is 33: delta below ceil(33/(l+1)) unsafe *)
  checkb "l=1 delta 16 unsafe" true
    (Ws_harness.Exp_fig8.expected_incorrect t (cell 16 16 [ 1 ]));
  checkb "l=1 delta 17 safe" false
    (Ws_harness.Exp_fig8.expected_incorrect t (cell 17 17 [ 1 ]));
  checkb "l=32 delta 1 safe" false
    (Ws_harness.Exp_fig8.expected_incorrect t (cell 1 1 [ 32 ]))

let test_fig8_small_campaign_soundness () =
  (* run a small campaign against an 8-entry machine and check the model's
     "safe" verdicts are never violated *)
  let cells =
    Grid.campaign ~tasks:96 ~runs_per_l:6 ~max_l:9 ~sb_capacity:8
      ~coalesce:true ~s_assumed:9 ~seed:33 ()
  in
  let bound = 9 in
  let ceil_div a b = (a + b - 1) / b in
  List.iter
    (fun (c : Grid.cell) ->
      let unsafe =
        List.exists
          (fun l -> l = 0 || c.Grid.delta < ceil_div bound (l + 1))
          c.Grid.l_values
      in
      if (not unsafe) && c.Grid.incorrect > 0 then
        Alcotest.failf "safe cell alpha=%d delta=%d violated!" c.Grid.alpha
          c.Grid.delta)
    cells

(* ------------------------------------------------------------------ *)
(* Classic x86-TSO litmus suite (machine validation)                    *)
(* ------------------------------------------------------------------ *)

let test_classic t () =
  let r = Classic.run t in
  if not r.Classic.ok then
    Alcotest.failf "%s: %s was %s%s" t.Classic.name
      (match t.Classic.verdict with
      | Classic.Allowed -> "allowed outcome"
      | Classic.Forbidden -> "forbidden outcome")
      (if r.Classic.observed then "observed" else "not observed")
      (if r.Classic.exhausted then "" else " (search not exhausted)")

let test_classic_exhaustive_coverage () =
  (* every verdict in the suite is decided by a fully-explored space *)
  List.iter
    (fun r ->
      if not r.Classic.exhausted then
        Alcotest.failf "%s: schedule space not exhausted" r.Classic.test.Classic.name)
    (Classic.run_all ())

let test_fingerprint_digest_differential () =
  (* Differential check of the incremental int fingerprint against the full
     MD5 digest: walk each classic litmus program down several deterministic
     schedules, snapshotting both hashes at every reached state. Within one
     program the two must induce the same equivalence classes — a digest
     collision with distinct fingerprints means the fingerprint reads state
     the digest doesn't (a determinism bug), and the converse is a
     collision of the int hash or of the history hash, which the digest's
     control state exposes (two positions of a thread sharing one [hist]).
     Across programs a fingerprint may repeat: it leaves the control state
     to the history, and a memo key is only ever compared within one
     search. *)
  let by_fp : (int, string) Hashtbl.t = Hashtbl.create 1024 in
  let by_digest : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let states = ref 0 in
  let snap name m =
    let fp = Tso.Machine.fingerprint m in
    let dg = Tso.Machine.fingerprint_digest m in
    (match Hashtbl.find_opt by_fp fp with
    | Some dg' when dg' <> dg ->
        Alcotest.failf "%s: fingerprint collision across distinct digests" name
    | Some _ -> ()
    | None -> Hashtbl.add by_fp fp dg);
    match Hashtbl.find_opt by_digest dg with
    | Some fp' when fp' <> fp ->
        Alcotest.failf "%s: same digest, different fingerprints" name
    | Some _ -> ()
    | None -> Hashtbl.add by_digest dg fp
  in
  List.iter
    (fun (t : Classic.t) ->
      states := !states + Hashtbl.length by_fp;
      Hashtbl.reset by_fp;
      Hashtbl.reset by_digest;
      List.iter
        (fun stride ->
          let inst = t.Classic.mk () in
          let m = inst.Tso.Explore.machine in
          snap t.Classic.name m;
          let k = ref 0 in
          let steps = ref 0 in
          let continue = ref true in
          while !continue && !steps < 5_000 do
            match Tso.Explore.next_choices m with
            | [] -> continue := false
            | ts ->
                Tso.Machine.apply m (List.nth ts (!k mod List.length ts));
                k := !k + stride;
                incr steps;
                snap t.Classic.name m
          done)
        [ 1; 2; 3 ])
    Classic.all;
  if !states + Hashtbl.length by_fp < 100 then
    Alcotest.fail "differential walk visited suspiciously few states"

let () =
  Alcotest.run "litmus"
    [
      ( "classic-x86-tso",
        Alcotest.test_case "all exhaustive" `Quick test_classic_exhaustive_coverage
        :: Alcotest.test_case "fingerprint = digest equivalence classes" `Quick
             test_fingerprint_digest_differential
        :: List.map
             (fun t ->
               Alcotest.test_case
                 (Printf.sprintf "%s (%s)" t.Classic.name
                    (match t.Classic.verdict with
                    | Classic.Allowed -> "allowed"
                    | Classic.Forbidden -> "forbidden"))
                 `Quick (test_classic t))
             Classic.all );
      ( "capacity",
        [
          Alcotest.test_case "westmere knee = 32" `Quick test_westmere_knee;
          Alcotest.test_case "haswell knee = 42" `Quick test_haswell_knee;
          Alcotest.test_case "flat below knee" `Quick test_flat_below_knee;
          Alcotest.test_case "rising beyond knee" `Quick test_rising_beyond_knee;
          Alcotest.test_case "egress extends pipeline by one" `Quick
            test_egress_shifts_observable_bound;
          Alcotest.test_case "same-address sequences (modeling note)" `Quick
            test_same_address_sequences_identical;
        ] );
      ( "litmus-program",
        [
          Alcotest.test_case "bookkeeping" `Quick test_litmus_conservation;
          Alcotest.test_case "safe delta always correct" `Slow
            test_safe_delta_always_correct;
          Alcotest.test_case "safe delta + coalescing, l>=1" `Slow
            test_safe_delta_correct_with_coalescing_l1;
          Alcotest.test_case "undersized delta violates" `Slow
            test_undersized_delta_violates;
          Alcotest.test_case "L=0 coalescing anomaly (Fig 8b)" `Slow
            test_l0_coalescing_anomaly;
          Alcotest.test_case "L=0 safe without coalescing" `Slow
            test_l0_without_coalescing_safe;
          Alcotest.test_case "tasks never lost" `Slow test_litmus_never_loses_tasks;
        ] );
      ( "grid",
        [
          Alcotest.test_case "alpha groups" `Quick test_alpha_groups_math;
          Alcotest.test_case "early exit on violation" `Quick
            test_grid_cell_early_exit;
          Alcotest.test_case "safe cell runs all" `Quick
            test_grid_safe_cell_runs_everything;
          Alcotest.test_case "expected-incorrect model" `Quick
            test_fig8_expected_incorrect_model;
          Alcotest.test_case "small campaign soundness" `Slow
            test_fig8_small_campaign_soundness;
        ] );
    ]
