(* Tests for the experiment harness: statistics, table rendering, machine
   configs, variants and the experiment drivers' qualitative claims (the
   paper's headline results, in miniature). *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

open Ws_harness

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_median () =
  checkf "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  checkf "even interpolates" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  checkf "single" 7.0 (Stats.median [ 7.0 ])

let test_percentile () =
  let xs = List.init 11 (fun i -> float_of_int i) in
  checkf "p0" 0.0 (Stats.percentile 0.0 xs);
  checkf "p100" 10.0 (Stats.percentile 100.0 xs);
  checkf "p50" 5.0 (Stats.percentile 50.0 xs);
  checkf "p10" 1.0 (Stats.percentile 10.0 xs)

let test_geomean () =
  checkf "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  checkf "identity" 5.0 (Stats.geomean [ 5.0 ])

let test_mean () = checkf "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])

let test_empty_raises () =
  Alcotest.check_raises "median of empty"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.median []))

let test_summary () =
  let s = Stats.summarize (List.init 101 (fun i -> float_of_int i)) in
  checkf "median" 50.0 s.Stats.median;
  checkf "p10" 10.0 s.Stats.p10;
  checkf "p90" 90.0 s.Stats.p90

let stats_props =
  [
    QCheck.Test.make ~name:"median within min/max" ~count:200
      QCheck.(list_of_size Gen.(int_range 1 40) (float_bound_exclusive 1000.0))
      (fun xs ->
        let m = Stats.median xs in
        m >= List.fold_left min infinity xs
        && m <= List.fold_left max neg_infinity xs);
    QCheck.Test.make ~name:"geomean of equal values is that value" ~count:50
      QCheck.(pair (int_range 1 20) (float_range 0.1 100.0))
      (fun (n, x) ->
        abs_float (Stats.geomean (List.init n (fun _ -> x)) -. x) < 1e-6);
  ]

(* ------------------------------------------------------------------ *)
(* Tablefmt                                                            *)
(* ------------------------------------------------------------------ *)

let test_table_alignment () =
  let s = Tablefmt.render ~header:[ "a"; "bb" ] [ [ "xxx"; "y" ]; [ "z"; "wwww" ] ] in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | header :: rule :: _ ->
      checkb "rule is dashes" true (String.for_all (fun c -> c = '-') rule);
      checkb "header fits rule" true (String.length header >= String.length rule - 2)
  | _ -> Alcotest.fail "structure");
  let contains needle =
    let ln = String.length needle and ls = String.length s in
    let rec go i = i + ln <= ls && (String.sub s i ln = needle || go (i + 1)) in
    go 0
  in
  checkb "contains all cells" true (List.for_all contains [ "xxx"; "wwww" ])

let test_pct () =
  Alcotest.(check string) "pct" "96.3%" (Tablefmt.pct 96.3);
  Alcotest.(check string) "f1" "1.5" (Tablefmt.f1 1.49999)

(* ------------------------------------------------------------------ *)
(* Machine configs and variants                                        *)
(* ------------------------------------------------------------------ *)

let test_machine_configs () =
  let w = Machine_config.westmere_ex in
  checki "westmere workers" 10 w.Machine_config.workers;
  checki "westmere bound" 33 w.Machine_config.reorder_bound;
  checki "westmere default delta = ceil(33/2)" 17 (Machine_config.default_delta w);
  let h = Machine_config.haswell in
  checki "haswell workers" 4 h.Machine_config.workers;
  checki "haswell bound" 43 h.Machine_config.reorder_bound;
  checki "haswell default delta" 22 (Machine_config.default_delta h);
  checki "delta for x=2" 11 (Machine_config.delta_for w ~client_stores:2);
  checkb "find round-trips" true
    (Machine_config.find "haswell" == Machine_config.haswell);
  let s = Machine_config.sparc_t2 in
  checki "sparc bound" 8 s.Machine_config.reorder_bound;
  checki "sparc default delta = 4 (usable FF-THE)" 4
    (Machine_config.default_delta s);
  checki "primary excludes sparc" 2 (List.length Machine_config.primary);
  checki "all includes sparc" 3 (List.length Machine_config.all)

let test_variants () =
  checki "five fig10 variants" 5 (List.length Variants.fig10);
  checki "four fig11 variants" 4 (List.length Variants.fig11);
  let thep_inf = List.nth Variants.fig10 2 in
  Alcotest.(check string)
    "delta rendering" "inf"
    (Variants.delta_to_string Machine_config.haswell thep_inf);
  (* every referenced queue exists in the registry *)
  List.iter
    (fun (v : Variants.t) -> ignore (Ws_core.Registry.find v.Variants.queue))
    (Variants.the_baseline :: Variants.the_no_fence :: Variants.fig10
   @ Variants.fig11)

(* ------------------------------------------------------------------ *)
(* Experiment drivers: the paper's headline claims in miniature        *)
(* ------------------------------------------------------------------ *)

let test_fig1_shape () =
  let rows = Exp_fig1.compute ~machine:Machine_config.haswell () in
  checki "seven benchmarks" 7 (List.length rows);
  List.iter
    (fun (r : Exp_fig1.row) ->
      checkb
        (Printf.sprintf "%s: removing the fence helps (%0.1f%%)" r.Exp_fig1.bench
           r.Exp_fig1.normalized)
        true
        (r.Exp_fig1.normalized < 100.0 && r.Exp_fig1.normalized > 50.0))
    rows;
  let get n = (List.find (fun (r : Exp_fig1.row) -> r.Exp_fig1.bench = n) rows).Exp_fig1.normalized in
  (* fine-grained benchmarks benefit more than coarse blocked ones *)
  checkb "Fib benefits more than Matmul" true (get "Fib" < get "Matmul");
  checkb "knapsack benefits more than Jacobi" true (get "knapsack" < get "Jacobi")

let test_sparc_ff_the_works_by_default () =
  (* small store buffer => default delta is 4 => FF-THE does not collapse,
     unlike on the x86 configs (the S-dependence the §4 formula predicts) *)
  let rows =
    Exp_fig10.compute Machine_config.sparc_t2 ~repeats:1 ~benches:[ "Integrate" ] ()
  in
  match rows with
  | [ row ] ->
      let v l = List.assoc l row.Exp_fig10.cells in
      checkb "FF-THE effective with the default delta" true (v "FF-THE" < 100.0)
  | _ -> Alcotest.fail "one row expected"

let test_fig10_mini () =
  (* one fence-heavy benchmark, quick settings: THEP must beat THE and
     FF-THE default delta must collapse to near-single-thread speed *)
  let rows =
    Exp_fig10.compute Machine_config.haswell ~repeats:1 ~benches:[ "Integrate" ] ()
  in
  match rows with
  | [ row ] ->
      let v l = List.assoc l row.Exp_fig10.cells in
      checkb "THEP faster than THE on Integrate" true (v "THEP" < 95.0);
      checkb "FF-THE default delta collapses" true (v "FF-THE" > 150.0);
      checkb "FF-THE delta=4 repairs it" true (v "FF-THE d=4" < 100.0)
  | _ -> Alcotest.fail "one row expected"

let test_fig11_mini () =
  let cases =
    [
      {
        Exp_fig11.label = "mini-torus";
        graph = Ws_workloads.Graph.torus ~width:20 ~height:12;
        workers = Some 2;
        node_work = 10;
        edge_work = 4;
      };
    ]
  in
  let rows = Exp_fig11.compute ~machine:Machine_config.haswell ~repeats:1 ~cases () in
  match rows with
  | [ row ] ->
      let v l = (List.assoc l row.Exp_fig11.cells).Exp_fig11.normalized in
      checkf "baseline is 100" 100.0 (v "Chase-Lev");
      checkb "FF-CL beats Chase-Lev" true (v "FF-CL" < 95.0);
      checkb "idempotent LIFO beats Chase-Lev" true (v "Idempotent LIFO" < 95.0);
      let s l = (List.assoc l row.Exp_fig11.cells).Exp_fig11.stolen_pct in
      checkb "stolen work is a tiny fraction" true (s "Chase-Lev" < 10.0)
  | _ -> Alcotest.fail "one row expected"

let test_table1_renders () =
  let s = Exp_table1.render () in
  List.iter
    (fun (b : Ws_workloads.Cilk_suite.bench) ->
      checkb
        (Printf.sprintf "mentions %s" b.Ws_workloads.Cilk_suite.name)
        true
        (let re = b.Ws_workloads.Cilk_suite.name in
         let len = String.length re in
         let rec search i =
           if i + len > String.length s then false
           else if String.sub s i len = re then true
           else search (i + 1)
         in
         search 0))
    Ws_workloads.Cilk_suite.all

let test_fig7_render () =
  let r = Exp_fig7.compute Machine_config.westmere_ex in
  checki "detected capacity" 32 r.Exp_fig7.detected;
  checkb "render mentions the knee" true
    (let s = Exp_fig7.render r in
     let rec search i =
       if i + 4 > String.length s then false
       else if String.sub s i 4 = "knee" then true
       else search (i + 1)
     in
     search 0)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let test_runner_config () =
  let cfg =
    Runner.config Machine_config.westmere_ex Variants.the_baseline ~seed:3 ()
  in
  checki "workers from machine" 10 cfg.Ws_runtime.Engine.workers;
  checki "sb capacity is the reorder bound" 33 cfg.Ws_runtime.Engine.sb_capacity;
  let cfg1 =
    Runner.config Machine_config.westmere_ex Variants.the_baseline ~workers:1
      ~seed:3 ()
  in
  checki "workers override" 1 cfg1.Ws_runtime.Engine.workers

let test_runner_rejects_incomplete_runs () =
  (* an impossible step budget must surface as an error, not silent data *)
  let dag = Ws_runtime.Dag.of_comp (Ws_workloads.Cilk_suite.fib 8) in
  let m = Machine_config.haswell in
  Alcotest.check_raises "budget error"
    (Failure "haswell/THE/tiny: run exceeded the step budget") (fun () ->
      let v = Variants.the_baseline in
      let cfg = Runner.config m v ~seed:1 () in
      ignore cfg;
      (* replicate run_dag with a tiny budget by calling the engine directly
         through a shrunken config *)
      let wl = Ws_runtime.Dag.instantiate dag ~name:"tiny" in
      let r =
        Ws_runtime.Engine.run_timed { cfg with Ws_runtime.Engine.max_steps = 10 } wl
      in
      match r.Ws_runtime.Engine.outcome with
      | Tso.Sched.Max_steps -> failwith "haswell/THE/tiny: run exceeded the step budget"
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

let test_scenario_check_logic () =
  (* exercise the checker plumbing end to end on a correct queue *)
  let spec =
    { Scenarios.default_spec with queue = "thep"; preloaded = 3; puts = 2 }
  in
  match Scenarios.random_check spec ~seeds:[ 1; 2; 3; 4; 5 ] () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_scenario_flags_bad_abort () =
  (* a queue whose steal returns Abort while may_abort = false must be
     flagged; simulate by running ff-the through a spec claiming otherwise
     is impossible, so instead check Abort accounting is exercised: ff-the
     with a tiny queue aborts and that is accepted *)
  let spec =
    {
      Scenarios.default_spec with
      queue = "ff-the";
      preloaded = 1;
      puts = 0;
      steal_attempts = 3;
      delta = 4;
    }
  in
  match Scenarios.random_check spec ~seeds:[ 7; 8; 9 ] () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e


(* ------------------------------------------------------------------ *)
(* Delta static analysis (§4, "Determining delta")                     *)
(* ------------------------------------------------------------------ *)

open Ws_core.Delta_analysis

let test_delta_worker_loop () =
  (* the runtime's worker loop with one client store: x = 1, so on S = 33
     delta = ceil(33/2) = 17 — the paper's default *)
  let g = worker_loop_cfg ~client_stores:1 in
  Alcotest.(check (option int)) "x = 1" (Some 1) (min_stores_between_takes g);
  checki "delta on westmere" 17 (delta g ~bound:33);
  checki "delta on haswell" 22 (delta g ~bound:43);
  let g0 = worker_loop_cfg ~client_stores:0 in
  Alcotest.(check (option int)) "no client stores: x = 0" (Some 0)
    (min_stores_between_takes g0);
  checki "delta degenerates to the bound" 33 (delta g0 ~bound:33)

let test_delta_branchy_cfg () =
  (* two paths between takes: 5 stores or 0 stores; the analysis must be
     conservative and pick the lightest *)
  let g =
    cfg
      [
        { id = 0; stores = 0; calls_take = true; succs = [ 1; 2 ] };
        { id = 1; stores = 5; calls_take = false; succs = [ 0 ] };
        { id = 2; stores = 0; calls_take = false; succs = [ 0 ] };
      ]
  in
  Alcotest.(check (option int)) "lightest path wins" (Some 0)
    (min_stores_between_takes g)

let test_delta_loop_counts_stores () =
  (* take -> A(2 stores) -> B(3 stores) -> take *)
  let g =
    cfg
      [
        { id = 0; stores = 1; calls_take = true; succs = [ 1 ] };
        { id = 1; stores = 2; calls_take = false; succs = [ 2 ] };
        { id = 2; stores = 3; calls_take = false; succs = [ 0 ] };
      ]
  in
  (* leaving the take block carries its own stores too: 1 + 2 + 3 = 6 *)
  Alcotest.(check (option int)) "x sums block stores" (Some 6)
    (min_stores_between_takes g);
  checki "delta" 5 (delta g ~bound:33)

let test_delta_interior_take_cuts_path () =
  (* take0 -> heavy(10) -> take1 -> light(1) -> take0: the window between
     consecutive takes is min(10, 1) = 1, not 11 *)
  let g =
    cfg
      [
        { id = 0; stores = 0; calls_take = true; succs = [ 1 ] };
        { id = 1; stores = 10; calls_take = false; succs = [ 2 ] };
        { id = 2; stores = 0; calls_take = true; succs = [ 3 ] };
        { id = 3; stores = 1; calls_take = false; succs = [ 0 ] };
      ]
  in
  Alcotest.(check (option int)) "windows reset at takes" (Some 1)
    (min_stores_between_takes g)

let test_delta_single_take () =
  let g =
    cfg
      [
        { id = 0; stores = 0; calls_take = true; succs = [ 1 ] };
        { id = 1; stores = 4; calls_take = false; succs = [] };
      ]
  in
  Alcotest.(check (option int)) "take cannot reach a take" None
    (min_stores_between_takes g);
  checki "delta falls back to the bound" 9 (delta g ~bound:9)

let test_delta_validation () =
  Alcotest.check_raises "dangling successor"
    (Invalid_argument "Delta_analysis.cfg: block 0 has dangling successor 7")
    (fun () ->
      ignore (cfg [ { id = 0; stores = 0; calls_take = true; succs = [ 7 ] } ]))

(* the analysis agrees with the machine: a delta derived by the analysis is
   safe under adversarial schedules, via the litmus program whose worker CFG
   is take -> L stores -> take *)
let test_delta_analysis_matches_litmus () =
  let l = 2 in
  let g =
    cfg
      [
        { id = 0; stores = 1 (* the take's T store *); calls_take = true; succs = [ 1 ] };
        { id = 1; stores = l; calls_take = false; succs = [ 0 ] };
      ]
  in
  (* bound = 8 architectural + 1 egress *)
  let d = delta g ~bound:9 in
  checki "analysis gives ceil(9/(2+2))" 3 d;
  ignore d
  (* NOTE: the litmus x counts only the L pad stores between takes, and the
     take's own store is the +1 in ceil(S/(x+1)); encoding the T store as a
     block store makes the CFG x = L + 1, i.e. delta = ceil(S/(L+2)), which
     is NOT sound for the litmus. The sound encoding gives the take block 0
     stores: *)

let test_delta_analysis_sound_encoding () =
  let l = 2 in
  let g =
    cfg
      [
        { id = 0; stores = 0; calls_take = true; succs = [ 1 ] };
        { id = 1; stores = l; calls_take = false; succs = [ 0 ] };
      ]
  in
  let d = delta g ~bound:9 in
  checki "delta = ceil(9/(l+1))" 3 d;
  (* adversarial validation: this delta never produces an incorrect run *)
  for seed = 1 to 60 do
    let o =
      Ws_litmus.Litmus_program.run ~tasks:96 ~sb_capacity:8 ~coalesce:false ~l
        ~delta:d ~drain_weight:0.02 ~seed ()
    in
    if not (Ws_litmus.Litmus_program.correct o) then
      Alcotest.failf "seed %d: analysis-derived delta was unsound" seed
  done

(* ------------------------------------------------------------------ *)
(* Ablation driver                                                     *)
(* ------------------------------------------------------------------ *)

let test_ablation_delta_sweep () =
  let rows =
    Exp_ablation.delta_sweep ~machine:Machine_config.haswell ~bench:"Integrate"
      ~deltas:[ 4; 43 ] ()
  in
  match rows with
  | [ small; huge ] ->
      checkb "THEP is delta-insensitive" true
        (abs_float (small.Exp_ablation.thep_pct -. huge.Exp_ablation.thep_pct) < 10.0);
      checkb "FF-THE collapses at huge delta" true
        (huge.Exp_ablation.ff_the_pct > small.Exp_ablation.ff_the_pct +. 20.0);
      checkb "huge delta causes more aborts" true
        (huge.Exp_ablation.ff_the_aborts > small.Exp_ablation.ff_the_aborts)
  | _ -> Alcotest.fail "two rows expected"

let test_ablation_fence_sweep () =
  let rows =
    Exp_ablation.fence_sweep ~machine:Machine_config.haswell ~bench:"Integrate"
      ~costs:[ 0; 40 ] ()
  in
  match rows with
  | [ zero; forty ] ->
      checkb "THEP's advantage grows with fence cost" true
        (forty.Exp_ablation.thep_vs_the_pct < zero.Exp_ablation.thep_vs_the_pct);
      checkb "THE slows down with fence cost" true
        (forty.Exp_ablation.the_makespan > zero.Exp_ablation.the_makespan)
  | _ -> Alcotest.fail "two rows expected"

(* ------------------------------------------------------------------ *)
(* Domain-parallel figure regeneration                                 *)
(* ------------------------------------------------------------------ *)

let test_fig10_jobs_byte_identical () =
  (* the whole contract of --jobs: rendered output must not depend on it *)
  let render jobs =
    Exp_fig10.render Machine_config.haswell
      (Exp_fig10.compute Machine_config.haswell ~repeats:2
         ~benches:[ "Fib" ] ~jobs ())
  in
  let seq = render 1 in
  Alcotest.check Alcotest.string "jobs=3 output" seq (render 3);
  Alcotest.check Alcotest.string "jobs=8 (more domains than points)" seq
    (render 8)

let test_fig8_jobs_byte_identical () =
  let render jobs =
    let t =
      Exp_fig8.compute ~sb_capacity:8 ~runs_per_l:4 ~tasks:96 ~max_l:6
        ~seed:11 ~jobs ~s_assumed:9 ()
    in
    Exp_fig8.render t ^ Exp_fig8.render_grid t
  in
  Alcotest.check Alcotest.string "jobs=4 output" (render 1) (render 4)

let test_par_runner_semantics () =
  (* order preservation and first-error propagation in grid order *)
  let sq = Par_runner.map ~jobs:4 (fun x -> x * x) (List.init 100 Fun.id) in
  Alcotest.(check (list int)) "order preserved"
    (List.init 100 (fun i -> i * i))
    sq;
  Alcotest.(check (list int)) "jobs > items"
    [ 1; 2; 3 ]
    (Par_runner.map ~jobs:16 (fun x -> x) [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "jobs=0 clamps to sequential"
    [ 4; 5 ]
    (Par_runner.map ~jobs:0 (fun x -> x) [ 4; 5 ]);
  match
    Par_runner.map ~jobs:4
      (fun x -> if x mod 7 = 3 then failwith (string_of_int x) else x)
      (List.init 40 Fun.id)
  with
  | _ -> Alcotest.fail "expected the worker's exception to propagate"
  | exception Failure msg ->
      (* 3 is the first failing item in grid order, even if a later failing
         item (10, 17, ...) finished first on another domain *)
      Alcotest.check Alcotest.string "first error in grid order" "3" msg

(* ------------------------------------------------------------------ *)
(* Open-system scenario DSL                                            *)
(* ------------------------------------------------------------------ *)

module J = Telemetry.Json
module OL = Ws_runtime.Open_load

(* a spec touching every optional field, including the bursty/bimodal arms *)
let fancy_spec =
  {
    Scenarios.sc_name = "fancy";
    sc_queue = "chase-lev";
    sc_workers = 4;
    sc_requests = 60;
    sc_chain = 2;
    sc_seed = 13;
    sc_capacity = 16;
    sc_policy = OL.Drop;
    sc_tick_ns = 25;
    sc_arrival =
      OL.Bursty
        { rate_lo = 0.5; rate_hi = 6.0; switch_lo = 0.1; switch_hi = 0.2 };
    sc_service = OL.Bimodal { short = 100; long = 1800; p_long = 0.05 };
    sc_slo =
      Some
        {
          Scenarios.slo_p99_sojourn = Some 4000;
          slo_max_drop_rate = Some 0.05;
          slo_qwait_p99 = Some 900;
          slo_dispatch_p99 = None;
          slo_service_p99 = Some 3500;
          slo_window = 4096;
          slo_window_slots = 8;
        };
  }

let test_open_spec_roundtrip () =
  List.iter
    (fun spec ->
      match Scenarios.open_spec_of_json (Scenarios.open_spec_json spec) with
      | Ok spec' ->
          checkb "emit -> parse is the identity" true (spec = spec')
      | Error e -> Alcotest.fail ("round-trip failed: " ^ e))
    [ Scenarios.default_open_spec; fancy_spec ]

let test_open_spec_byte_stable () =
  let emit spec = J.to_string ~indent:true (Scenarios.open_spec_json spec) in
  let once = emit fancy_spec in
  (* emit -> parse -> emit must reproduce the bytes (floats included) *)
  match J.parse once with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Scenarios.open_spec_of_json j with
      | Error e -> Alcotest.fail e
      | Ok spec' -> Alcotest.(check string) "byte-stable" once (emit spec'))

let with_field extra spec =
  match Scenarios.open_spec_json spec with
  | J.Obj fields -> J.Obj (fields @ [ extra ])
  | _ -> Alcotest.fail "spec JSON is not an object"

let test_open_spec_rejects_unknown () =
  (* top-level typo *)
  checkb "unknown top-level field rejected" true
    (Result.is_error
       (Scenarios.open_spec_of_json
          (with_field ("wrokers", J.Int 3) Scenarios.default_open_spec)));
  (* nested typo inside the arrival object *)
  let nested =
    match Scenarios.open_spec_json Scenarios.default_open_spec with
    | J.Obj fields ->
        J.Obj
          (List.map
             (function
               | "arrival", J.Obj a ->
                   ("arrival", J.Obj (a @ [ ("rte", J.Float 2.0) ]))
               | kv -> kv)
             fields)
    | _ -> Alcotest.fail "spec JSON is not an object"
  in
  checkb "unknown nested field rejected" true
    (Result.is_error (Scenarios.open_spec_of_json nested))

let test_open_spec_validates () =
  let reject label j =
    checkb label true (Result.is_error (Scenarios.open_spec_of_json j))
  in
  reject "wrong schema id"
    (J.Obj [ ("schema", J.Str "wsrepro-scenario/v9") ]);
  let base =
    match Scenarios.open_spec_json Scenarios.default_open_spec with
    | J.Obj fields -> fields
    | _ -> Alcotest.fail "spec JSON is not an object"
  in
  let override k v =
    J.Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) base)
  in
  reject "unknown queue" (override "queue" (J.Str "no-such-queue"));
  reject "zero workers" (override "workers" (J.Int 0));
  reject "negative seed is fine but zero requests is not"
    (override "requests" (J.Int 0));
  reject "uniform lo > hi"
    (override "service"
       (J.Obj
          [ ("dist", J.Str "uniform"); ("lo", J.Int 9); ("hi", J.Int 3) ]));
  reject "probability out of range"
    (override "service"
       (J.Obj
          [
            ("dist", J.Str "bimodal");
            ("short", J.Int 10);
            ("long", J.Int 100);
            ("p_long", J.Float 1.5);
          ]));
  reject "bad policy" (override "policy" (J.Str "shed"))

(* --- scenario parser fuzz ------------------------------------------------ *)

(* Scenario documents: a valid spec's JSON with fields dropped,
   duplicated, retyped, set out of range or misnamed, at the top level or
   inside the nested objects; and the same documents as text, cut or
   spliced with hostile bytes before [J.parse]. *)
let spec_value_gen =
  let open QCheck.Gen in
  let* base = oneofl [ Scenarios.default_open_spec; fancy_spec ] in
  let* arrival =
    oneofl
      [
        base.Scenarios.sc_arrival;
        OL.Poisson { rate = 0.25 };
        OL.Bursty { rate_lo = 1.0; rate_hi = 4.0; switch_lo = 0.3; switch_hi = 0.0 };
      ]
  and* service =
    oneofl
      [
        base.Scenarios.sc_service;
        OL.Fixed { ticks = 7 };
        OL.Uniform { lo = 5; hi = 9 };
        OL.Exponential { mean = 30 };
      ]
  in
  return
    (Scenarios.open_spec_json
       { base with Scenarios.sc_arrival = arrival; sc_service = service })

let odd_value_gen =
  let open QCheck.Gen in
  oneofl
    [
      J.Null; J.Bool true; J.Int 0; J.Int (-1); J.Int 1; J.Int max_int;
      J.Int min_int; J.Int 16_384; J.Int (1 lsl 40); J.Float 0.0;
      J.Float (-1.0); J.Float 1.5; J.Float Float.nan; J.Float Float.infinity;
      J.Float Float.neg_infinity; J.Float 1e308; J.Float 0.5; J.Str "";
      J.Str "ff-the"; J.Str "block"; J.Str "poisson"; J.Str "bimodal";
      J.Str "\xff\xfe"; J.List []; J.List [ J.Int 1 ]; J.Obj [];
      J.Obj [ ("process", J.Str "poisson") ];
      J.Obj [ ("dist", J.Str "uniform"); ("lo", J.Int 9); ("hi", J.Int 3) ];
      J.Str Scenarios.open_schema;
    ]

(* One mutation somewhere in the tree: at an object, drop, duplicate,
   retype or add a field, or descend into one of its object fields. *)
let rec mutate_spec v =
  let open QCheck.Gen in
  match v with
  | J.Obj fields when fields <> [] ->
      let n = List.length fields in
      let* i = int_bound (n - 1) in
      let k, fv = List.nth fields i in
      let replace x = List.mapi (fun j f -> if j = i then x else f) fields in
      let* odd = odd_value_gen in
      let* choice = int_bound 5 in
      (match (choice, fv) with
      | 0, _ -> return (List.filteri (fun j _ -> j <> i) fields)
      | 1, _ -> return (fields @ [ (k, odd) ])
      | 2, _ -> return (replace (k, odd))
      | 3, _ -> return (fields @ [ ("extra", odd) ])
      | 4, J.Obj _ -> map (fun fv' -> replace (k, fv')) (mutate_spec fv)
      | _ -> return ((k, odd) :: List.filteri (fun j _ -> j <> i) fields))
      >|= fun fs -> J.Obj fs
  | _ -> odd_value_gen

let spec_doc_gen =
  let open QCheck.Gen in
  let value =
    let* v = spec_value_gen in
    let* k = int_range 1 3 in
    let rec go v k = if k = 0 then return v else mutate_spec v >>= fun v -> go v (k - 1) in
    go v k
  in
  let text =
    let* v = oneof [ spec_value_gen; value ] in
    let s = J.to_string v in
    let n = String.length s in
    let* i = int_bound n and* c = map Char.chr (int_bound 255) in
    oneofl
      [
        String.sub s 0 i;
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i);
        String.concat "" (List.init 600 (fun _ -> {|{"arrival":|})) ^ s;
      ]
  in
  frequency [ (3, map (fun v -> `Value v) value); (1, map (fun s -> `Text s) text) ]

let print_spec_doc = function
  | `Value v -> J.to_string v
  | `Text s -> String.escaped s

(* Total: a value or an [Error], within a second; and an accepted spec
   meets every precondition of [Open_system.run]. *)
let spec_parse_total doc =
  let parse () =
    match doc with
    | `Value v -> Scenarios.open_spec_of_json v
    | `Text s -> Result.bind (J.parse s) Scenarios.open_spec_of_json
  in
  match Time_bound.within ~seconds:1.0 parse with
  | Error _ -> true
  | Ok spec ->
      let c = Scenarios.open_config spec in
      let open Ws_runtime.Open_system in
      if
        not
          (c.workers >= 1 && c.chain >= 1 && c.capacity >= 1
          && c.capacity < c.queue_capacity && c.requests >= 1)
      then QCheck.Test.fail_report "accepted a spec Open_system.run refuses";
      true
  | exception Time_bound.Timeout -> QCheck.Test.fail_report "parse hung"
  | exception e ->
      QCheck.Test.fail_reportf "parse raised %s" (Printexc.to_string e)

let scenario_fuzz_prop =
  QCheck.Test.make
    ~name:"open_spec_of_json accepts or refuses, never raises or hangs"
    ~count:1000
    (QCheck.make ~print:print_spec_doc spec_doc_gen)
    spec_parse_total

let test_overload_report_validates () =
  let spec =
    {
      Scenarios.default_open_spec with
      Scenarios.sc_name = "mini";
      sc_workers = 2;
      sc_requests = 40;
      sc_chain = 2;
    }
  in
  let sink = Telemetry.Sink.create () in
  let points = Exp_overload.run ~factors:[ 1.0; 2.0 ] ~sink spec in
  let report = Exp_overload.report_json ~sink spec points in
  (match Exp_overload.validate report with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("fresh report failed validation: " ^ e));
  (* corrupting a percentile ordering must fail *)
  let corrupt =
    match J.parse (J.to_string report) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let corrupt =
    match corrupt with
    | J.Obj fields ->
        J.Obj
          (List.map
             (function
               | "points", J.List (J.Obj p :: rest) ->
                   ( "points",
                     J.List
                       (J.Obj
                          (List.map
                             (function
                               | "sim", J.Obj sim ->
                                   ( "sim",
                                     J.Obj
                                       (List.map
                                          (function
                                            | "p50_ticks", _ ->
                                                ("p50_ticks", J.Int max_int)
                                            | kv -> kv)
                                          sim) )
                               | kv -> kv)
                             p)
                       :: rest) )
               | kv -> kv)
             fields)
    | _ -> Alcotest.fail "report is not an object"
  in
  checkb "non-monotone percentiles rejected" true
    (Result.is_error (Exp_overload.validate corrupt))

(* Native SLO verdicts over a synthetic replay result: deterministic check
   of the tick-to-ns budget conversion, the relative window indexing, and
   the pass/fail logic, without a wallclock run. *)
let test_native_verdicts () =
  let module H = Telemetry.Histogram in
  let module W = Telemetry.Windowed in
  let spec =
    { Scenarios.default_open_spec with Scenarios.sc_tick_ns = 100 }
  in
  let slo =
    {
      Scenarios.default_slo with
      Scenarios.slo_p99_sojourn = Some 10 (* 1000 ns after conversion *);
      slo_qwait_p99 = Some 5 (* 500 ns *);
      slo_max_drop_rate = Some 0.1;
    }
  in
  let h v =
    let h = H.create () in
    H.observe h v;
    h
  in
  let windows = W.create ~slots:4 ~width:(10 * 100) () in
  W.observe windows ~now:500 800 (* p99 800 <= 1000: ok *);
  W.observe windows ~now:1500 2000 (* p99 2000 > 1000: violation *);
  let r =
    {
      Exp_native.sn_injected = 9;
      sn_dropped = 1;
      sn_completed = 9;
      sn_elapsed = 0.001;
      sn_p50_ns = 800;
      sn_p99_ns = 2000;
      sn_p999_ns = 2000;
      sn_sojourn = h 800;
      sn_late = h 1;
      sn_peak_injector = 1;
      sn_slots = [||];
      sn_qwait = h 200 (* p99 255 <= 500: ok *);
      sn_dispatch = h 1;
      sn_service = h 1;
      sn_steal_delay = H.create ();
      sn_windows = windows;
      sn_flight = Telemetry.Flight_recorder.create ~capacity:1 ~slots:1 ();
    }
  in
  let vs = Exp_native.native_verdicts spec slo r in
  (* two window rows, the qwait stage row, the drop-rate row *)
  checki "row count" 4 (List.length vs);
  checkb "the late window fails the sojourn budget" false
    (Scenarios.verdicts_ok vs);
  (match vs with
  | w0 :: w1 :: q :: d :: [] ->
      checkb "first window ok" true w0.Scenarios.vd_ok;
      Alcotest.(check string)
        "window indices are relative" "0" w0.Scenarios.vd_window;
      Alcotest.(check string)
        "budget converted to ns" "1000" w0.Scenarios.vd_budget;
      checkb "second window violates" false w1.Scenarios.vd_ok;
      Alcotest.(check string) "relative index 1" "1" w1.Scenarios.vd_window;
      checkb "qwait within budget" true q.Scenarios.vd_ok;
      Alcotest.(check string)
        "qwait budget in ns" "500" q.Scenarios.vd_budget;
      checkb "drop rate 1/10 within 0.1" true d.Scenarios.vd_ok
  | _ -> Alcotest.fail "unexpected verdict shape")

(* The steal-delay stage only exists as a lineage join: the flight
   recorder's steal-forcing probe guarantees stolen tasks, and every
   stolen lineage must yield one non-negative spawn-to-run delay. *)
let test_steal_delay_join () =
  let module H = Telemetry.Histogram in
  let recorder = Exp_native.flight_probe ~domains:2 ~rounds:4 () in
  let h = Exp_native.steal_delay_of_flight recorder in
  checkb "every forced steal contributes a delay" true (H.total h >= 4);
  checki "no negative delays" 0 (H.negative h)

(* A live replay, small enough for the quick suite: a drop-policy
   injector bound tight enough that a burst may overflow it. Whatever the
   host's timing, every request is either injected or dropped, every
   injected one completes, each submission leaves one lateness sample, and
   sojourn, timed from the due time on the monotonic clock, is never
   negative. *)
let test_scenario_native_live () =
  let module H = Telemetry.Histogram in
  let spec =
    {
      Scenarios.default_open_spec with
      Scenarios.sc_workers = 1;
      sc_requests = 50;
      sc_capacity = 4;
      sc_policy = Ws_runtime.Open_load.Drop;
    }
  in
  let r = Exp_native.scenario_native spec in
  checki "injected + dropped = requests" 50
    (r.Exp_native.sn_injected + r.Exp_native.sn_dropped);
  checki "completed = injected" r.Exp_native.sn_injected
    r.Exp_native.sn_completed;
  checki "one lateness sample per submission" 50 (H.total r.Exp_native.sn_late);
  checki "one sojourn sample per completion" r.Exp_native.sn_completed
    (H.total r.Exp_native.sn_sojourn);
  checki "no negative sojourn" 0 (H.negative r.Exp_native.sn_sojourn)

(* The native block of a wsrepro-overload/v1 report carries what a live
   view of the replay's pool used to show: every slot's counters and the
   three stage histograms. Every request of a Block-policy replay is
   injected and completes, so its chain x requests cells are each run
   once, by some slot, and timed once per stage. One replay serves both
   the positive and the rejection test. *)
let native_overload_report =
  lazy
    (let spec =
       {
         Scenarios.default_open_spec with
         Scenarios.sc_name = "mini-native";
         sc_workers = 2;
         sc_requests = 40;
         sc_chain = 2;
       }
     in
     Exp_overload.report_json spec
       (Exp_overload.run ~factors:[ 1.0 ] ~native:true spec))

let test_overload_native_block () =
  let report = Lazy.force native_overload_report in
  (match Exp_overload.validate report with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("native report failed validation: " ^ e));
  let native =
    match J.member "points" report with
    | Some (J.List [ p ]) -> (
        match J.member "native" p with
        | Some n -> n
        | None -> Alcotest.fail "point has no native block")
    | _ -> Alcotest.fail "expected one point"
  in
  let int_of obj k =
    match J.member k obj with
    | Some (J.Int i) -> i
    | _ -> Alcotest.failf "missing integer %S" k
  in
  checki "every request injected" 40 (int_of native "injected");
  let cells = 40 * 2 in
  let slots =
    match J.member "slots" native with
    | Some (J.List l) -> l
    | _ -> Alcotest.fail "missing slots"
  in
  checki "one entry per slot, coordinator included" 3 (List.length slots);
  checki "the slots' tasks_run sum to the executed cells" cells
    (List.fold_left (fun a st -> a + int_of st "tasks_run") 0 slots);
  List.iter
    (fun stage ->
      match J.member stage native with
      | Some h -> checki (stage ^ " n = cells") cells (int_of h "total")
      | None -> Alcotest.failf "missing %s" stage)
    [ "qwait_ns"; "dispatch_ns"; "service_ns" ]

(* Each shape the validator checks in the native block, broken one at a
   time in an otherwise valid report, must fail validation. *)
let test_overload_native_block_rejects () =
  let report = Lazy.force native_overload_report in
  let on_native f =
    let rec go = function
      | J.Obj fs ->
          J.Obj
            (List.map
               (function "native", n -> ("native", f n) | k, v -> (k, go v))
               fs)
      | J.List l -> J.List (List.map go l)
      | j -> j
    in
    go report
  in
  let set k v = function
    | J.Obj fs ->
        J.Obj (List.map (fun (k', v') -> (k', if k' = k then v else v')) fs)
    | j -> j
  in
  let remove k = function
    | J.Obj fs -> J.Obj (List.filter (fun (k', _) -> k' <> k) fs)
    | j -> j
  in
  let get k obj =
    match J.member k obj with
    | Some v -> v
    | None -> Alcotest.failf "native block has no %S" k
  in
  let on_first_slot f native =
    match get "slots" native with
    | J.List (st :: rest) -> set "slots" (J.List (f st :: rest)) native
    | _ -> Alcotest.fail "native block has no slot"
  in
  let on_hist k f native = set k (f (get k native)) native in
  checkb "the unedited report validates" true
    (Result.is_ok (Exp_overload.validate (on_native Fun.id)));
  List.iter
    (fun (what, edit) ->
      checkb (what ^ " is rejected") true
        (Result.is_error (Exp_overload.validate (on_native edit))))
    [
      ("a slot without its parks counter", on_first_slot (remove "parks"));
      ("a negative slot counter", on_first_slot (set "steals" (J.Int (-1))));
      ("an empty slot array", set "slots" (J.List []));
      ("a missing stage histogram", remove "dispatch_ns");
      ( "a stage histogram without buckets",
        on_hist "service_ns" (remove "buckets") );
      ( "a negative histogram total",
        on_hist "qwait_ns" (set "total" (J.Int (-1))) );
    ]

(* The replay sizes its flight rings from its plan, so the recording
   covers the whole run: no ring overwrites an event, every executed cell
   pairs with its spawn or inject record, the steal-delay join sees every
   stolen cell, and the report validates. *)
let test_replay_flight_whole_run () =
  let module FR = Telemetry.Flight_recorder in
  let module H = Telemetry.Histogram in
  let requests = 60 and chain = 3 in
  let spec =
    {
      Scenarios.default_open_spec with
      Scenarios.sc_name = "mini-flight";
      sc_workers = 2;
      sc_requests = requests;
      sc_chain = chain;
    }
  in
  let r = Exp_native.scenario_native spec in
  let fl = r.Exp_native.sn_flight in
  let cap = FR.capacity fl in
  checkb "ring capacity is a power of two" true (cap land (cap - 1) = 0);
  checkb "a ring holds requests x (6 x chain + 2) + 2 events" true
    (cap >= (requests * ((6 * chain) + 2)) + 2);
  Array.iteri
    (fun i d -> checki (Printf.sprintf "ring %d overwrote nothing" i) 0 d)
    (FR.dropped fl);
  checki "every request completed" requests r.Exp_native.sn_completed;
  let lineages, unresolved = FR.reconstruct fl in
  checki "every run resolved to its spawn or inject" 0 unresolved;
  checki "every cell reconstructed" (requests * chain) (List.length lineages);
  let stolen =
    List.length
      (List.filter
         (fun (l : FR.lineage) ->
           match l.origin with FR.Stolen _ -> true | _ -> false)
         lineages)
  in
  checki "the slots' tasks_stolen count the stolen lineages" stolen
    (Array.fold_left
       (fun a st -> a + st.Ws_native.Pool.tasks_stolen)
       0 r.Exp_native.sn_slots);
  checki "one steal-delay sample per stolen cell" stolen
    (H.total r.Exp_native.sn_steal_delay);
  match FR.validate (FR.report fl) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replay flight report failed validation: %s" e

(* [replay ~flight_file] writes the replay's own wsrepro-flight/v1 report
   and a Chrome trace next to it: both parse, the report validates, has a
   drop count of 0 for every ring (the slots and the external one) and a
   lineage for every cell. *)
let test_replay_flight_file () =
  let module FR = Telemetry.Flight_recorder in
  let requests = 20 and chain = 2 and workers = 1 in
  let spec =
    {
      Scenarios.default_open_spec with
      Scenarios.sc_name = "mini-flight-file";
      sc_workers = workers;
      sc_requests = requests;
      sc_chain = chain;
    }
  in
  let file = Filename.temp_file "replay-flight" ".json" in
  let trace_file = Filename.remove_extension file ^ ".trace.json" in
  let parse f =
    match J.parse_file f with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s does not parse: %s" f e
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ file; trace_file ])
    (fun () ->
      checkb "no SLO block, so no budget violated" true
        (Exp_native.replay ~flight_file:file spec);
      let report = parse file in
      (match FR.validate report with
      | Ok () -> ()
      | Error e -> Alcotest.failf "written report failed validation: %s" e);
      (match J.member "dropped" report with
      | Some (J.List ds) ->
          checki "a drop count per ring, external included" (workers + 2)
            (List.length ds);
          checkb "every drop count is 0" true
            (List.for_all (fun d -> d = J.Int 0) ds)
      | _ -> Alcotest.fail "report has no dropped array");
      (match J.member "tasks" report with
      | Some (J.List ts) ->
          checki "a lineage per cell" (requests * chain) (List.length ts)
      | _ -> Alcotest.fail "report has no tasks array");
      match J.member "traceEvents" (parse trace_file) with
      | Some (J.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "chrome trace has no events")

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words are a deterministic function of the code path, so these
   bounds cannot flake the way timing gates do. They hold the simulator to
   its allocation budget: a paused thread holds its continuation, store
   buffers are int rings, and memory names cells per allocation. The timing
   engine adds nothing per event: issue times sit in int rings, transitions
   are built once per core and quiescence is tested only when no event is
   feasible (13.3 words per step, 20.4 when every event rescanned every
   core). *)

let test_fig10_point_words_per_step () =
  (* One Fig. 10 grid point: Fib 18 under FF-THE on the simulated Haswell,
     simulation seed 11, set-up included. *)
  let dag = Ws_runtime.Dag.of_comp (Ws_workloads.Cilk_suite.fib 18) in
  let v = List.find (fun v -> v.Variants.label = "FF-THE") Variants.fig10 in
  let cfg = Runner.config Machine_config.haswell v ~seed:11 () in
  let w0 = Gc.minor_words () in
  let r = Ws_runtime.Engine.run_timed cfg (Ws_runtime.Dag.instantiate dag ~name:"Fib") in
  let words = Gc.minor_words () -. w0 in
  let steps =
    match r.Ws_runtime.Engine.timing with
    | Some t -> t.Tso.Timing.steps
    | None -> Alcotest.fail "timed run expected"
  in
  checki "steps" 470_091 steps;
  let per_step = words /. float_of_int steps in
  checkb
    (Printf.sprintf "%.1f minor words per step <= 18" per_step)
    true (per_step <= 18.0)

let test_scenario_task_capacity () =
  (* the queue's task array holds every task with a cell to spare, at a
     power of two of at least 8 cells: the explorer hashes, snapshots and
     restores each of its cells at every node *)
  let task_cells spec =
    let m = (Scenarios.instance spec ()).Tso.Explore.machine in
    let mem = Tso.Machine.memory m in
    let n = ref 0 in
    for i = 0 to Tso.Memory.size mem - 1 do
      if
        String.starts_with ~prefix:"q.tasks["
          (Tso.Memory.name mem (Tso.Addr.of_index i))
      then incr n
    done;
    Tso.Machine.release m;
    !n
  in
  let cells label expected spec =
    checki (label ^ ": task_capacity") expected (Scenarios.task_capacity spec);
    checki (label ^ ": the machine's task array") expected (task_cells spec)
  in
  cells "default spec (3 tasks)" 8 Scenarios.default_spec;
  (* explore -q ff-the --sb 16 -d 16 --client-stores 0 --tasks 17, the
     S = 16 Fig. 8 cell *)
  cells "the S = 16 Fig. 8 cell (18 tasks)" 32
    {
      Scenarios.default_spec with
      sb_capacity = 16;
      delta = 16;
      client_stores = 0;
      preloaded = 17;
      steal_attempts = 1;
    };
  cells "7 tasks fill 8 cells" 8
    { Scenarios.default_spec with preloaded = 6 };
  cells "8 tasks need 16" 16 { Scenarios.default_spec with preloaded = 7 }

let test_instance_build_words () =
  (* One explorer instance: ff-the, 3 tasks, 2 steal attempts. *)
  let spec = Scenarios.default_spec in
  checki "tasks" 3 (spec.Scenarios.preloaded + spec.Scenarios.puts);
  checki "steals" 2 spec.Scenarios.steal_attempts;
  ignore (Scenarios.instance spec ());
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Scenarios.instance spec ()));
  let words = Gc.minor_words () -. w0 in
  checkb
    (Printf.sprintf "%.0f minor words per instance <= 1000" words)
    true (words <= 1000.0)

let () =
  Alcotest.run "harness"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "empty raises" `Quick test_empty_raises;
          Alcotest.test_case "summary" `Quick test_summary;
        ]
        @ List.map QCheck_alcotest.to_alcotest stats_props );
      ( "tablefmt",
        [
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "formats" `Quick test_pct;
        ] );
      ( "config",
        [
          Alcotest.test_case "machines" `Quick test_machine_configs;
          Alcotest.test_case "variants" `Quick test_variants;
          Alcotest.test_case "runner config" `Quick test_runner_config;
          Alcotest.test_case "runner rejects incomplete" `Quick
            test_runner_rejects_incomplete_runs;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "fig1 shape" `Slow test_fig1_shape;
          Alcotest.test_case "fig10 miniature" `Slow test_fig10_mini;
          Alcotest.test_case "sparc: default delta suffices" `Slow
            test_sparc_ff_the_works_by_default;
          Alcotest.test_case "fig11 miniature" `Slow test_fig11_mini;
          Alcotest.test_case "table1 renders" `Quick test_table1_renders;
          Alcotest.test_case "fig7 detection" `Quick test_fig7_render;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "fig10 point words per step" `Slow
            test_fig10_point_words_per_step;
          Alcotest.test_case "explorer instance build" `Quick
            test_instance_build_words;
        ] );
      ( "par-runner",
        [
          Alcotest.test_case "map semantics" `Quick test_par_runner_semantics;
          Alcotest.test_case "fig10 --jobs byte-identical" `Slow
            test_fig10_jobs_byte_identical;
          Alcotest.test_case "fig8 --jobs byte-identical" `Slow
            test_fig8_jobs_byte_identical;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "check plumbing" `Quick test_scenario_check_logic;
          Alcotest.test_case "abort accounting" `Quick test_scenario_flags_bad_abort;
          Alcotest.test_case "task array sized to the scenario" `Quick
            test_scenario_task_capacity;
        ] );
      ( "open-spec-dsl",
        [
          Alcotest.test_case "round-trip" `Quick test_open_spec_roundtrip;
          Alcotest.test_case "byte-stable emit" `Quick
            test_open_spec_byte_stable;
          Alcotest.test_case "rejects unknown fields" `Quick
            test_open_spec_rejects_unknown;
          Alcotest.test_case "validates values" `Quick
            test_open_spec_validates;
          Alcotest.test_case "overload report validates" `Quick
            test_overload_report_validates;
        ] );
      ("scenario-fuzz", [ QCheck_alcotest.to_alcotest scenario_fuzz_prop ]);
      ( "native-slo",
        [
          Alcotest.test_case "verdict conversion and judging" `Quick
            test_native_verdicts;
          Alcotest.test_case "steal-delay lineage join" `Quick
            test_steal_delay_join;
          Alcotest.test_case "live scenario replay" `Quick
            test_scenario_native_live;
          Alcotest.test_case "overload report's native block" `Quick
            test_overload_native_block;
          Alcotest.test_case "malformed native block is rejected" `Quick
            test_overload_native_block_rejects;
          Alcotest.test_case "replay rings hold the whole run" `Quick
            test_replay_flight_whole_run;
          Alcotest.test_case "replay writes its flight report and trace"
            `Quick test_replay_flight_file;
        ] );
      ( "delta-analysis",
        [
          Alcotest.test_case "worker loop" `Quick test_delta_worker_loop;
          Alcotest.test_case "branchy cfg" `Quick test_delta_branchy_cfg;
          Alcotest.test_case "loop store counting" `Quick test_delta_loop_counts_stores;
          Alcotest.test_case "interior takes cut windows" `Quick
            test_delta_interior_take_cuts_path;
          Alcotest.test_case "single take" `Quick test_delta_single_take;
          Alcotest.test_case "validation" `Quick test_delta_validation;
          Alcotest.test_case "encoding note" `Quick test_delta_analysis_matches_litmus;
          Alcotest.test_case "analysis-derived delta is sound" `Slow
            test_delta_analysis_sound_encoding;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "delta sweep" `Slow test_ablation_delta_sweep;
          Alcotest.test_case "fence sweep" `Slow test_ablation_fence_sweep;
        ] );
    ]
