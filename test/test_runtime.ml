(* Tests for the work-stealing runtime: DAG construction, the engine's
   execution/termination accounting, metrics, and determinism. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

open Ws_runtime

(* ------------------------------------------------------------------ *)
(* DAG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dag_leaf () =
  let d = Dag.of_comp (Dag.Leaf 42) in
  checki "size" 1 (Dag.size d);
  checki "work" 42 (Dag.total_work d);
  checki "cp" 42 (Dag.critical_path d)

let test_dag_fork () =
  let d =
    Dag.of_comp
      (Dag.Fork { before = 10; children = [ Dag.Leaf 5; Dag.Leaf 7 ]; after = 3 })
  in
  checki "size: fork + join + 2 leaves" 4 (Dag.size d);
  checki "work" 25 (Dag.total_work d);
  (* critical path: fork -> leaf 7 -> join *)
  checki "cp" 20 (Dag.critical_path d)

let test_dag_seq () =
  let d = Dag.of_comp (Dag.Seq [ Dag.Leaf 5; Dag.Leaf 6; Dag.Leaf 7 ]) in
  checki "size" 3 (Dag.size d);
  checki "seq critical path = total" 18 (Dag.critical_path d);
  checki "work" 18 (Dag.total_work d)

let test_dag_empty_seq () =
  let d = Dag.of_comp (Dag.Seq []) in
  checki "empty seq has a single zero task" 1 (Dag.size d);
  checki "zero work" 0 (Dag.total_work d)

let test_dag_fib_structure () =
  (* fib 5 call tree: fib(n+1)=8 leaves, 7 internal forks -> 8 + 14 tasks *)
  let d = Dag.of_comp (Ws_workloads.Cilk_suite.fib ~spawn:1 ~join:1 ~leaf:1 5) in
  checki "task count" 22 (Dag.size d);
  (* critical path: depth-4 chain of forks and joins + leaf *)
  checkb "cp below total work" true (Dag.critical_path d < Dag.total_work d)

let test_dag_instantiate_runs_every_task_once () =
  let d =
    Dag.of_comp
      (Dag.Fork
         {
           before = 1;
           children = [ Dag.Leaf 1; Dag.Leaf 1; Dag.Leaf 1 ];
           after = 1;
         })
  in
  let wl = Dag.instantiate d ~name:"t" in
  let cfg = { Engine.default_config with workers = 2; seed = 5 } in
  let r = Engine.run_timed cfg wl in
  checkb "quiescent" true (r.Engine.outcome = Tso.Sched.Quiescent);
  checki "no duplicates" 0 r.Engine.duplicates;
  checki "no losses" 0 r.Engine.lost;
  checki "all 5 tasks ran" 5 (Metrics.total_tasks r.Engine.metrics)

(* Calling execute directly (host side) needs zero-work strands: Program
   effects are only legal inside a simulated thread. *)
let test_dag_double_execution_guard () =
  let d = Dag.of_comp (Dag.Leaf 0) in
  let wl = Dag.instantiate d ~name:"guard" in
  let ran = wl.Workload.execute ~worker:0 0 in
  checki "leaf spawns nothing" 0 (List.length ran);
  Alcotest.check_raises "second execution trips the guard"
    (Failure "DAG workload guard: task 0 executed twice") (fun () ->
      ignore (wl.Workload.execute ~worker:0 0))

let test_dag_dependency_order () =
  (* join must not run before both children completed *)
  let d =
    Dag.of_comp
      (Dag.Fork { before = 0; children = [ Dag.Leaf 0; Dag.Leaf 0 ]; after = 0 })
  in
  let wl = Dag.instantiate d ~name:"dep" in
  (* fork is task 0, join task 1, leaves 2 and 3 *)
  let spawned_by_fork = wl.Workload.execute ~worker:0 0 in
  checkb "fork enables only the leaves" true
    (List.sort compare spawned_by_fork = [ 2; 3 ]);
  let s1 = wl.Workload.execute ~worker:0 2 in
  checki "first leaf does not release the join" 0 (List.length s1);
  let s2 = wl.Workload.execute ~worker:0 3 in
  Alcotest.(check (list int)) "second leaf releases the join" [ 1 ] s2

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let fib_dag = lazy (Dag.of_comp (Ws_workloads.Cilk_suite.fib 10))

let engine_cfg qname =
  {
    Engine.default_config with
    workers = 3;
    queue = Ws_core.Registry.find qname;
    delta = 3;
    sb_capacity = 6;
    seed = 11;
  }

let test_engine_runs_fib qname () =
  let wl = Dag.instantiate (Lazy.force fib_dag) ~name:"fib10" in
  let r = Engine.run_timed (engine_cfg qname) wl in
  checkb "quiescent" true (r.Engine.outcome = Tso.Sched.Quiescent);
  checki "lost" 0 r.Engine.lost;
  checki "duplicates" 0 r.Engine.duplicates

let test_engine_random_mode qname () =
  let wl = Workload.uniform ~name:"u" ~tasks:40 ~work:5 () in
  let r = Engine.run_random ~drain_weight:0.08 (engine_cfg qname) wl in
  checkb "quiescent" true (r.Engine.outcome = Tso.Sched.Quiescent);
  checki "lost" 0 r.Engine.lost

let test_engine_single_worker_no_steals () =
  let wl = Workload.uniform ~name:"u" ~tasks:20 ~work:5 () in
  let cfg = { (engine_cfg "the") with workers = 1 } in
  let r = Engine.run_timed cfg wl in
  checkb "quiescent" true (r.Engine.outcome = Tso.Sched.Quiescent);
  checki "no steal attempts with one worker" 0
    (Metrics.total_steals r.Engine.metrics);
  checki "all tasks on worker 0" 20
    r.Engine.metrics.Metrics.workers.(0).Metrics.tasks_run

let test_engine_determinism () =
  let run () =
    let wl = Dag.instantiate (Lazy.force fib_dag) ~name:"fib10" in
    let r = Engine.run_timed (engine_cfg "chase-lev") wl in
    match r.Engine.timing with Some t -> t.Tso.Timing.makespan | None -> -1
  in
  checki "same seed, same makespan" (run ()) (run ())

let test_engine_seed_changes_schedule () =
  let run seed =
    let wl = Dag.instantiate (Lazy.force fib_dag) ~name:"fib10" in
    let r = Engine.run_timed { (engine_cfg "chase-lev") with seed } wl in
    match r.Engine.timing with Some t -> t.Tso.Timing.makespan | None -> -1
  in
  (* different victim choices virtually always shift the makespan *)
  checkb "different seeds differ" true (run 1 <> run 2 || run 1 <> run 3)

(* The task ids a run executed at least once. *)
let executed_ids executions =
  Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 executions

let test_engine_metrics_consistency () =
  let wl = Dag.instantiate (Lazy.force fib_dag) ~name:"fib10" in
  let r = Engine.run_timed (engine_cfg "chase-lev") wl in
  let m = r.Engine.metrics in
  let executions = Array.fold_left ( + ) 0 r.Engine.executions in
  checki "tasks_run equals total executions" executions (Metrics.total_tasks m);
  let stolen =
    Array.fold_left
      (fun acc w -> acc + w.Metrics.tasks_run_stolen)
      0 m.Metrics.workers
  in
  let steals = Metrics.total_steals m in
  checki "every successful steal was executed" steals stolen;
  checki "puts cover every task" (Dag.size (Lazy.force fib_dag))
    (Array.fold_left (fun acc w -> acc + w.Metrics.puts) 0 m.Metrics.workers)

let test_engine_parallel_speedup () =
  let mk () = Dag.instantiate (Dag.of_comp (Ws_workloads.Cilk_suite.fib 12)) ~name:"fib12" in
  let time workers =
    let r =
      Engine.run_timed { (engine_cfg "the") with workers } (mk ())
    in
    match r.Engine.timing with Some t -> t.Tso.Timing.makespan | None -> -1
  in
  let t1 = time 1 and t4 = time 4 in
  checkb "4 workers at least 2x faster than 1 on fib" true
    (float_of_int t1 /. float_of_int t4 > 2.0)

let test_engine_dynamic_workload_duplicates_tolerated () =
  (* idempotent queue + a workload that dedups via simulated CAS *)
  let g = Ws_workloads.Graph.torus ~width:10 ~height:10 in
  let checked = Ws_workloads.Graph_workloads.transitive_closure g ~src:0 () in
  let cfg = engine_cfg "idempotent-lifo" in
  let r = Engine.run_timed cfg checked.Ws_workloads.Graph_workloads.workload in
  checkb "quiescent" true (r.Engine.outcome = Tso.Sched.Quiescent);
  (match checked.Ws_workloads.Graph_workloads.verify () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  checki "every node visited (tasks ran >= nodes)" 100
    (executed_ids r.Engine.executions)

let test_workload_uniform () =
  let wl = Workload.uniform ~name:"u" ~tasks:7 ~work:3 () in
  checki "roots" 7 (List.length wl.Workload.roots);
  Alcotest.(check (option int)) "expected total" (Some 7) wl.Workload.expected_total



let test_workload_init_hook_runs () =
  let called = ref false in
  let wl =
    Workload.make ~name:"init-check" ~roots:[ 0 ]
      ~execute:(fun ~worker:_ _ -> [])
      ~init:(fun m ->
        called := true;
        ignore (Tso.Memory.alloc (Tso.Machine.memory m) ~name:"probe" ~init:0))
      ~expected_total:1 ()
  in
  let r = Engine.run_timed { Engine.default_config with workers = 1 } wl in
  checkb "init ran before the workers" true !called;
  checkb "quiescent" true (r.Engine.outcome = Tso.Sched.Quiescent)

let test_victim_round_robin () =
  let wl = Workload.uniform ~name:"u" ~tasks:60 ~work:20 () in
  let cfg =
    { (engine_cfg "chase-lev") with Engine.victim = Engine.Round_robin_victim }
  in
  let r = Engine.run_timed cfg wl in
  checkb "quiescent" true (r.Engine.outcome = Tso.Sched.Quiescent);
  checki "lost" 0 r.Engine.lost;
  checki "duplicates" 0 r.Engine.duplicates;
  (* deterministic regardless of RNG: same makespan twice *)
  let r2 = Engine.run_timed cfg (Workload.uniform ~name:"u" ~tasks:60 ~work:20 ()) in
  (match (r.Engine.timing, r2.Engine.timing) with
  | Some a, Some b -> checki "deterministic" a.Tso.Timing.makespan b.Tso.Timing.makespan
  | _ -> Alcotest.fail "timed runs expected")

(* qcheck: random fork/join computations run to completion with exactly-once
   execution, and the makespan respects the DAG's work/span bounds *)
let comp_gen =
  let open QCheck.Gen in
  sized_size (int_range 0 5) @@ fix (fun self n ->
      if n = 0 then map (fun w -> Dag.Leaf w) (int_range 0 40)
      else
        frequency
          [
            (1, map (fun w -> Dag.Leaf w) (int_range 0 40));
            ( 3,
              map3
                (fun before children after ->
                  Dag.Fork { before; children; after })
                (int_range 0 10)
                (list_size (int_range 1 3) (self (n - 1)))
                (int_range 0 10) );
            (1, map (fun cs -> Dag.Seq cs) (list_size (int_range 1 3) (self (n - 1))));
          ])

let random_dag_prop =
  QCheck.Test.make ~name:"random DAGs: exactly-once, span <= makespan" ~count:60
    (QCheck.make comp_gen)
    (fun comp ->
      let dag = Dag.of_comp comp in
      let wl = Dag.instantiate dag ~name:"random" in
      let cfg =
        { (engine_cfg "chase-lev") with workers = 3; seed = Dag.size dag }
      in
      let r = Engine.run_timed cfg wl in
      let makespan =
        match r.Engine.timing with Some t -> t.Tso.Timing.makespan | None -> -1
      in
      r.Engine.outcome = Tso.Sched.Quiescent
      && r.Engine.lost = 0
      && r.Engine.duplicates = 0
      && executed_ids r.Engine.executions = Dag.size dag
      && makespan >= Dag.critical_path dag
      && makespan * cfg.Engine.workers >= Dag.total_work dag)

(* ------------------------------------------------------------------ *)
(* Open system                                                         *)
(* ------------------------------------------------------------------ *)

let open_cfg =
  {
    Open_system.default_config with
    Open_system.requests = 120;
    workers = 2;
    chain = 2;
    seed = 3;
  }

let test_open_system_block_completes_all () =
  let r = Open_system.run open_cfg in
  checkb "quiescent" true (r.Open_system.outcome = Tso.Sched.Quiescent);
  checki "injected all" 120 r.Open_system.injected;
  checki "no drops under Block" 0 r.Open_system.dropped;
  checki "completed = injected" r.Open_system.injected r.Open_system.completed;
  checkb "tail monotone" true
    (r.Open_system.p50 <= r.Open_system.p99
    && r.Open_system.p99 <= r.Open_system.p999);
  checkb "peak queue within capacity" true
    (r.Open_system.peak_queue <= open_cfg.Open_system.capacity)

let test_open_system_deterministic () =
  let key (r : Open_system.report) =
    ( r.Open_system.injected,
      r.Open_system.completed,
      r.Open_system.makespan,
      r.Open_system.steps,
      (r.Open_system.p50, r.Open_system.p99, r.Open_system.p999) )
  in
  checkb "byte-equal reports" true
    (key (Open_system.run open_cfg) = key (Open_system.run open_cfg));
  let other = { open_cfg with Open_system.seed = 4 } in
  checkb "a different seed is a different run" true
    (key (Open_system.run open_cfg) <> key (Open_system.run other))

let test_open_system_drop_under_overload () =
  (* tiny injector + arrivals far above service capacity: Drop must shed
     load, and every admitted request must still complete *)
  let cfg =
    {
      open_cfg with
      Open_system.capacity = 4;
      policy = Open_load.Drop;
      arrival = Open_load.Poisson { rate = 50.0 };
      service = Open_load.Fixed { ticks = 400 };
    }
  in
  let r = Open_system.run cfg in
  checkb "quiescent" true (r.Open_system.outcome = Tso.Sched.Quiescent);
  checkb "drops observed" true (r.Open_system.dropped > 0);
  checki "admitted + dropped = offered" cfg.Open_system.requests
    (r.Open_system.injected + r.Open_system.dropped);
  checki "admitted all complete" r.Open_system.injected
    r.Open_system.completed;
  checkb "peak bounded by capacity" true
    (r.Open_system.peak_queue <= cfg.Open_system.capacity)

let test_open_system_block_backpressure () =
  (* same overload under Block: nothing is lost, the injector stalls
     instead (visible as pause cycles) *)
  let cfg =
    {
      open_cfg with
      Open_system.capacity = 4;
      arrival = Open_load.Poisson { rate = 50.0 };
      service = Open_load.Fixed { ticks = 400 };
    }
  in
  let r = Open_system.run cfg in
  checki "no drops" 0 r.Open_system.dropped;
  checki "all complete" cfg.Open_system.requests r.Open_system.completed;
  checkb "injector visibly stalled" true (r.Open_system.block_spins > 0)

let test_open_system_stage_attribution () =
  (* qwait + dispatch + service partition each request's sojourn exactly,
     so the merged stage histograms must agree with the sojourn histogram
     in both count and total mass *)
  let r = Open_system.run open_cfg in
  let module H = Telemetry.Histogram in
  List.iter
    (fun (name, h) ->
      checki (name ^ " counts one sample per completion") r.Open_system.completed
        (H.total h))
    [
      ("sojourn", r.Open_system.sojourn);
      ("qwait", r.Open_system.qwait);
      ("dispatch", r.Open_system.dispatch);
      ("service", r.Open_system.service);
    ];
  checki "stage sums partition the sojourn sum"
    (H.sum r.Open_system.sojourn)
    (H.sum r.Open_system.qwait + H.sum r.Open_system.dispatch
   + H.sum r.Open_system.service);
  (* no stage observed a negative interval (a clock inversion would be
     counted apart by the histogram) *)
  List.iter
    (fun h -> checki "no negative stage samples" 0 (H.negative h))
    [ r.Open_system.qwait; r.Open_system.dispatch; r.Open_system.service ]

let test_open_system_windowed_deterministic () =
  (* the rotating-window series are part of the deterministic surface:
     byte-identical across runs, and their retained mass never exceeds the
     completed count (older windows may have been evicted) *)
  let module W = Telemetry.Windowed in
  let module H = Telemetry.Histogram in
  let render (w : W.t) = Telemetry.Json.to_string ~indent:true (W.to_json w) in
  let a = Open_system.run open_cfg and b = Open_system.run open_cfg in
  Alcotest.(check string)
    "sojourn windows byte-identical across runs"
    (render a.Open_system.sojourn_windows)
    (render b.Open_system.sojourn_windows);
  Alcotest.(check string)
    "qwait windows byte-identical across runs"
    (render a.Open_system.qwait_windows)
    (render b.Open_system.qwait_windows);
  let retained w =
    List.fold_left (fun acc (_, h) -> acc + H.total h) 0 (W.windows w)
  in
  checkb "windows retain at most the completed mass" true
    (retained a.Open_system.sojourn_windows <= a.Open_system.completed
    && retained a.Open_system.sojourn_windows > 0);
  (* a different worker count redistributes execution but must not change
     the merged window series (partition independence end-to-end) — with
     the same plan, the same requests complete; only scheduling shifts.
     Timing does shift with workers, so compare 2 workers against the same
     2-worker sim observed through more shards is not expressible here;
     instead pin that the per-run series agree with the whole-run
     histogram's totals per window. *)
  List.iter
    (fun (_, h) -> checki "window histograms carry no negatives" 0 (H.negative h))
    (W.windows a.Open_system.qwait_windows)

let test_open_system_counters_reproducible () =
  (* two identical runs produce byte-identical counter JSON *)
  let render () =
    let sink = Telemetry.Sink.create () in
    ignore (Open_system.run ~sink open_cfg);
    Telemetry.Json.to_string ~indent:true (Telemetry.Sink.to_json sink)
  in
  Alcotest.(check string) "counter JSON reproducible" (render ()) (render ())

(* Every per-worker Metrics field of four small runs, recorded before the
   DAG and open-system engines shared one worker loop. These host-side
   counts are in no digest: a loop that counted a front-door steal as a
   stolen run, or took the wrong one-worker path (a lone DAG worker has
   no victim; a lone open-system worker steals from the front door),
   changes a row here. A row is one worker's [tasks_run;
   tasks_run_stolen; puts; takes; take_empties; steal_attempts; steals;
   steal_empties; steal_aborts]. *)
let pinned_metrics =
  [
    ("DAG, 1 worker", [ [ 265; 0; 265; 265; 0; 0; 0; 0; 0 ] ]);
    ( "DAG, 3 workers",
      [
        [ 101; 0; 102; 102; 1; 14; 0; 0; 14 ];
        [ 62; 1; 62; 63; 2; 39; 1; 0; 38 ];
        [ 102; 1; 101; 102; 1; 12; 1; 0; 11 ];
      ] );
    ("open system, 1 worker", [ [ 240; 0; 120; 240; 120; 120; 120; 0; 0 ] ]);
    ( "open system, 3 workers",
      [
        [ 82; 0; 41; 83; 42; 154; 41; 113; 0 ];
        [ 84; 0; 42; 85; 43; 159; 42; 117; 0 ];
        [ 74; 0; 37; 74; 37; 178; 37; 141; 0 ];
      ] );
  ]

let test_metrics_pinned () =
  let rows (m : Metrics.t) =
    Array.to_list
      (Array.map
         (fun (w : Metrics.worker) ->
           [
             w.Metrics.tasks_run;
             w.tasks_run_stolen;
             w.puts;
             w.takes;
             w.take_empties;
             w.steal_attempts;
             w.steals;
             w.steal_empties;
             w.steal_aborts;
           ])
         m.Metrics.workers)
  in
  let dag workers =
    (Engine.run_timed
       { (engine_cfg "ff-the") with workers }
       (Dag.instantiate (Lazy.force fib_dag) ~name:"fib10"))
      .Engine.metrics
  in
  let open_system workers =
    (Open_system.run { open_cfg with Open_system.workers }).Open_system.metrics
  in
  let runs = [ dag 1; dag 3; open_system 1; open_system 3 ] in
  List.iter2
    (fun (name, expected) m ->
      Alcotest.(check (list (list int))) name expected (rows m))
    pinned_metrics runs

let () =
  Alcotest.run "runtime"
    [
      ( "dag",
        [
          Alcotest.test_case "leaf" `Quick test_dag_leaf;
          Alcotest.test_case "fork" `Quick test_dag_fork;
          Alcotest.test_case "seq" `Quick test_dag_seq;
          Alcotest.test_case "empty seq" `Quick test_dag_empty_seq;
          Alcotest.test_case "fib structure" `Quick test_dag_fib_structure;
          Alcotest.test_case "instantiate: every task once" `Quick
            test_dag_instantiate_runs_every_task_once;
          Alcotest.test_case "double-execution guard" `Quick
            test_dag_double_execution_guard;
          Alcotest.test_case "dependency order" `Quick test_dag_dependency_order;
        ] );
      ( "engine",
        (* DAG workloads require exactly-once extraction, so the idempotent
           queues are exercised through CAS-deduplicating workloads instead
           (see "idempotent + dynamic workload" below and test_workloads) *)
        List.map
          (fun q ->
            Alcotest.test_case
              (Printf.sprintf "fib to quiescence [%s]" q)
              `Quick (test_engine_runs_fib q))
          [ "the"; "chase-lev"; "chase-lev-dyn"; "abp"; "ff-the"; "ff-cl"; "thep"; "thep-sep" ]
        @ List.map
            (fun q ->
              Alcotest.test_case
                (Printf.sprintf "random mode [%s]" q)
                `Slow (test_engine_random_mode q))
            Ws_core.Registry.names
        @ [
            Alcotest.test_case "single worker" `Quick
              test_engine_single_worker_no_steals;
            Alcotest.test_case "determinism" `Quick test_engine_determinism;
            Alcotest.test_case "seed sensitivity" `Quick
              test_engine_seed_changes_schedule;
            Alcotest.test_case "metrics consistency" `Quick
              test_engine_metrics_consistency;
            Alcotest.test_case "parallel speedup" `Quick
              test_engine_parallel_speedup;
            Alcotest.test_case "idempotent + dynamic workload" `Quick
              test_engine_dynamic_workload_duplicates_tolerated;
            Alcotest.test_case "uniform workload" `Quick test_workload_uniform;
            Alcotest.test_case "workload init hook" `Quick
              test_workload_init_hook_runs;
            Alcotest.test_case "round-robin victims" `Quick test_victim_round_robin;
            QCheck_alcotest.to_alcotest random_dag_prop;
          ] );
      ( "open-system",
        [
          Alcotest.test_case "block completes all" `Quick
            test_open_system_block_completes_all;
          Alcotest.test_case "deterministic under seed" `Quick
            test_open_system_deterministic;
          Alcotest.test_case "drop sheds under overload" `Quick
            test_open_system_drop_under_overload;
          Alcotest.test_case "block backpressure" `Quick
            test_open_system_block_backpressure;
          Alcotest.test_case "counter JSON reproducible" `Quick
            test_open_system_counters_reproducible;
          Alcotest.test_case "stage attribution partitions sojourn" `Quick
            test_open_system_stage_attribution;
          Alcotest.test_case "windowed series deterministic" `Quick
            test_open_system_windowed_deterministic;
        ] );
      ( "loop",
        [
          Alcotest.test_case "per-worker metrics pinned" `Quick
            test_metrics_pinned;
        ] );
    ]
