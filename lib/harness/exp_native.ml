(* Silicon cross-check for the simulator, in two parts.

   Parity: the same fib / graph-reachability workloads run (a) through the
   discrete-event simulator (cycles) and (b) on the native OCaml 5 pool
   (wallclock). The absolute units differ by construction; what must agree
   is the shape — which workload is throughput-heavier, and by roughly what
   factor — so the table reports normalized tasks-per-unit-time for both
   and their fib/graph ratios side by side.

   Scenario replay: the open system the simulator also runs — a
   wsrepro-scenario/v1 load plan submitted from a non-worker domain
   (exercising the injector path), each request a chain of dependent
   stages, sojourn latency recorded into a telemetry histogram for
   p50/p99/p999. *)

type native_point = { tasks : int; seconds : float; tasks_per_sec : float }

type parity_row = {
  workload : string;
  sim_tasks : int;
  sim_makespan : float;  (* cycles *)
  sim_tasks_per_mcycle : float;
  native : native_point;
}

(* ------------------------------------------------------------------ *)
(* Native measurements                                                 *)
(* ------------------------------------------------------------------ *)

let timed_point pool f =
  let before = Ws_native.Pool.tasks_run pool in
  let t0 = Unix.gettimeofday () in
  f ();
  let seconds = Unix.gettimeofday () -. t0 in
  let tasks = Ws_native.Pool.tasks_run pool - before in
  let seconds = if seconds <= 0. then 1e-9 else seconds in
  { tasks; seconds; tasks_per_sec = float_of_int tasks /. seconds }

let native_fib ?domains ?backend ~n () =
  let pool = Ws_native.Pool.create ?domains ?backend () in
  let point =
    timed_point pool (fun () -> ignore (Ws_native.Pool.fib pool n))
  in
  Ws_native.Pool.shutdown pool;
  point

(* Native single-source reachability, the pool-side twin of the simulated
   transitive-closure workload: "visit u" CASes each neighbour's visited
   flag and spawns the winners, so each node is visited exactly once. *)
let native_graph ?domains ?backend ~nodes ~edges ~seed () =
  let g = Ws_workloads.Graph.random_graph ~nodes ~edges ~seed in
  let pool = Ws_native.Pool.create ?domains ?backend () in
  let visited = Array.init nodes (fun _ -> Atomic.make false) in
  let rec visit u () =
    Array.iter
      (fun v ->
        if
          (not (Atomic.get visited.(v)))
          && Atomic.compare_and_set visited.(v) false true
        then Ws_native.Pool.spawn pool (visit v))
      g.Ws_workloads.Graph.adj.(u)
  in
  Atomic.set visited.(0) true;
  let point =
    timed_point pool (fun () -> Ws_native.Pool.parallel_run pool [ visit 0 ])
  in
  Ws_native.Pool.shutdown pool;
  (* cross-check against a host BFS before trusting the numbers *)
  let expect = Ws_workloads.Graph.reachable_from g 0 in
  Array.iteri
    (fun i e ->
      if e <> Atomic.get visited.(i) then
        failwith
          (Printf.sprintf "native_graph: node %d visited=%b, BFS says %b" i
             (Atomic.get visited.(i)) e))
    expect;
  point

(* ------------------------------------------------------------------ *)
(* Simulated measurements                                              *)
(* ------------------------------------------------------------------ *)

let sim_fib ~machine ~n ~seed =
  let dag = Ws_runtime.Dag.of_comp (Ws_workloads.Cilk_suite.fib n) in
  let makespan =
    List.hd
      (Runner.run_dag machine Variants.the_baseline ~seeds:[ seed ] dag
         ~name:"native-parity-fib")
  in
  (Ws_runtime.Dag.size dag, makespan)

let sim_graph ~machine ~nodes ~edges ~seed =
  let g = Ws_workloads.Graph.random_graph ~nodes ~edges ~seed in
  let makespan, metrics =
    Runner.run_checked machine Variants.the_baseline ~seed (fun () ->
        Ws_workloads.Graph_workloads.transitive_closure g ~src:0 ())
  in
  (Ws_runtime.Metrics.total_tasks metrics, makespan)

(* ------------------------------------------------------------------ *)
(* Parity                                                              *)
(* ------------------------------------------------------------------ *)

let parity_row ~workload ~sim:(sim_tasks, sim_makespan) ~native =
  {
    workload;
    sim_tasks;
    sim_makespan;
    sim_tasks_per_mcycle = float_of_int sim_tasks /. (sim_makespan /. 1e6);
    native;
  }

let parity ?(machine = Machine_config.westmere_ex) ?domains ?backend
    ?(fib_n = 20) ?(graph_nodes = 2000) ?graph_edges ?(seed = 23) () =
  let graph_edges = Option.value graph_edges ~default:(4 * graph_nodes) in
  [
    parity_row ~workload:(Printf.sprintf "fib(%d)" fib_n)
      ~sim:(sim_fib ~machine ~n:fib_n ~seed)
      ~native:(native_fib ?domains ?backend ~n:fib_n ());
    parity_row
      ~workload:(Printf.sprintf "graph(%d,%d)" graph_nodes graph_edges)
      ~sim:(sim_graph ~machine ~nodes:graph_nodes ~edges:graph_edges ~seed)
      ~native:
        (native_graph ?domains ?backend ~nodes:graph_nodes ~edges:graph_edges
           ~seed ());
  ]

let render_parity rows =
  let table =
    Tablefmt.render
      ~header:
        [
          "workload";
          "sim tasks";
          "sim cycles";
          "sim tasks/Mcyc";
          "native tasks";
          "native ms";
          "native ktasks/s";
        ]
      (List.map
         (fun r ->
           [
             r.workload;
             string_of_int r.sim_tasks;
             Printf.sprintf "%.0f" r.sim_makespan;
             Tablefmt.f1 r.sim_tasks_per_mcycle;
             string_of_int r.native.tasks;
             Printf.sprintf "%.2f" (r.native.seconds *. 1e3);
             Tablefmt.f1 (r.native.tasks_per_sec /. 1e3);
           ])
         rows)
  in
  match rows with
  | [ a; b ] when b.sim_tasks_per_mcycle > 0. && b.native.tasks_per_sec > 0.
    ->
      table
      ^ Printf.sprintf
          "ratio %s : %s — simulated %.2f, native %.2f (relative throughput \
           shape)\n"
          a.workload b.workload
          (a.sim_tasks_per_mcycle /. b.sim_tasks_per_mcycle)
          (a.native.tasks_per_sec /. b.native.tasks_per_sec)
  | _ -> table

(* ------------------------------------------------------------------ *)
(* Scenario-driven native runs (`wsrepro native --scenario`)           *)
(* ------------------------------------------------------------------ *)

(* The fourth stage the three timestamps cannot see: how long a stolen
   task sat between its victim-side spawn and its thief-side run. The
   flight recorder's lineage join recovers it — every [Stolen] lineage
   pairs the spawn and run events of one migrated task. *)
let steal_delay_of_flight recorder =
  let module FR = Telemetry.Flight_recorder in
  let h = Telemetry.Histogram.create () in
  let lineages, _unresolved = FR.reconstruct recorder in
  List.iter
    (fun l ->
      match l.FR.origin with
      | FR.Stolen _ -> Telemetry.Histogram.observe h (l.FR.run_ts - l.FR.spawn_ts)
      | FR.Pop | FR.Injected -> ())
    lineages;
  h

(* The native half of a scenario: replay the same pre-drawn plan the
   timing model replays, with ticks mapped to wall time through the
   scenario's [tick_ns]. Arrivals follow an absolute schedule of due times
   (a late generator submits immediately rather than shifting the
   remaining arrivals), service burns wall-clock time, and the injector
   bound is enforced by [Pool.submit] under the scenario's drop/block
   policy — so overload shows up exactly where it does in the simulator:
   drops under Drop, arrival-side delay under Block. Every stamp is on
   the monotonic clock, and sojourn is timed from the due time, so a
   generator that falls behind its plan shows up as latency; its lateness
   at each submission is recorded beside it. *)

type scenario_result = {
  sn_injected : int;
  sn_dropped : int;
  sn_completed : int;
  sn_elapsed : float;  (* plan start to last completion, seconds *)
  sn_p50_ns : int;
  sn_p99_ns : int;
  sn_p999_ns : int;
  sn_sojourn : Telemetry.Histogram.t;
  sn_late : Telemetry.Histogram.t;  (* submission minus due time, ns *)
  sn_peak_injector : int;  (* max injector depth seen at submission *)
  sn_slots : Ws_native.Pool.worker_stats array;  (* after the join *)
  (* per-cell stage attribution from the pool (ns) *)
  sn_qwait : Telemetry.Histogram.t;
  sn_dispatch : Telemetry.Histogram.t;
  sn_service : Telemetry.Histogram.t;
  (* spawn-to-stolen-run delay (ns) from the flight-recorder lineage join *)
  sn_steal_delay : Telemetry.Histogram.t;
  (* request-level rotating sojourn windows, width = slo window (or the
     default) converted to ns through sc_tick_ns *)
  sn_windows : Telemetry.Windowed.t;
  sn_flight : Telemetry.Flight_recorder.t;
}

(* The simulated queue picks the native backend: Chase-Lev-family queues
   (CAS steals) map to the Chase-Lev deques, everything else to THE. *)
let backend_of_queue q =
  match q with
  | "chase-lev" | "chase-lev-dyn" | "abp" | "ff-cl" ->
      Ws_native.Pool.Chase_lev_deques
  | _ -> Ws_native.Pool.The_deques

let native_policy = function
  | Ws_runtime.Open_load.Drop -> Ws_native.Pool.Drop
  | Ws_runtime.Open_load.Block -> Ws_native.Pool.Block

(* Busy-wait for [ns] wall nanoseconds: scenario service times are real
   compute from the scheduler's point of view, so the worker must stay on
   core (sleeping would park the domain and understate contention). *)
let spin_ns ns =
  let fin = Telemetry.Clock.now_ns () + ns in
  while Telemetry.Clock.now_ns () < fin do
    Domain.cpu_relax ()
  done

(* The generator, by contrast, sleeps: it shares the host with the
   workers it feeds. *)
let rec sleep_until t =
  let d = t - Telemetry.Clock.now_ns () in
  if d > 0 then begin
    Unix.sleepf (float_of_int d *. 1e-9);
    sleep_until t
  end

let scenario_native (spec : Scenarios.open_spec) =
  let open Ws_runtime in
  let plan =
    Open_load.plan ~seed:spec.Scenarios.sc_seed
      ~requests:spec.Scenarios.sc_requests spec.Scenarios.sc_arrival
      spec.Scenarios.sc_service
  in
  let chain = spec.Scenarios.sc_chain in
  let tick_ns = spec.Scenarios.sc_tick_ns in
  let policy = native_policy spec.Scenarios.sc_policy in
  (* the window geometry the SLO block asks for, in wall nanoseconds *)
  let slo =
    Option.value spec.Scenarios.sc_slo ~default:Scenarios.default_slo
  in
  let window_ns = max 1 (slo.Scenarios.slo_window * tick_ns) in
  let window_slots = slo.Scenarios.slo_window_slots in
  let pool =
    Ws_native.Pool.create ~domains:spec.Scenarios.sc_workers
      ~backend:(backend_of_queue spec.Scenarios.sc_queue)
      ~injector_capacity:spec.Scenarios.sc_capacity ~attribution:true
      ~flight:true ~flight_capacity:(Scenarios.replay_flight_capacity spec) ()
  in
  let sojourn = Telemetry.Histogram.create () in
  let late = Telemetry.Histogram.create () in
  let windows =
    Telemetry.Windowed.create ~slots:window_slots ~width:window_ns ()
  in
  let hist_lock = Mutex.create () in
  let injected = ref 0 in
  let dropped = ref 0 in
  let peak_injector = ref 0 in
  let completed = Atomic.make 0 in
  let t0 = Telemetry.Clock.now_ns () in
  let due = ref t0 in
  for i = 0 to spec.Scenarios.sc_requests - 1 do
    (* Same stage split as the simulator: base + remainder spread over the
       first stages, so sim and native run identical per-stage demands. *)
    let s = plan.Open_load.services.(i) in
    let base = s / chain and rem = s mod chain in
    due := !due + (plan.Open_load.gaps.(i) * tick_ns);
    let born = !due in
    sleep_until born;
    Telemetry.Histogram.observe late (Telemetry.Clock.now_ns () - born);
    let rec stage k () =
      spin_ns ((base + if k < rem then 1 else 0) * tick_ns);
      if k < chain - 1 then Ws_native.Pool.spawn pool (stage (k + 1))
      else begin
        let fin = Telemetry.Clock.now_ns () in
        Mutex.lock hist_lock;
        Telemetry.Histogram.observe sojourn (fin - born);
        (* keyed by completion instant: the monotonic clock is system-wide,
           so the hist_lock-serialized stream is monotone up to inter-core
           skew (orders of magnitude below the window width) *)
        Telemetry.Windowed.observe windows ~now:fin (fin - born);
        Mutex.unlock hist_lock;
        Atomic.incr completed
      end
    in
    let depth = Ws_native.Pool.injector_depth pool in
    if depth > !peak_injector then peak_injector := depth;
    if Ws_native.Pool.submit ~policy pool (stage 0) then incr injected
    else incr dropped
  done;
  while Atomic.get completed < !injected do
    Domain.cpu_relax ()
  done;
  let elapsed = float_of_int (Telemetry.Clock.now_ns () - t0) *. 1e-9 in
  let recorder = Option.get (Ws_native.Pool.flight pool) in
  Ws_native.Pool.shutdown pool;
  (* read the counters and stage planes after the join: every worker has
     flushed *)
  let sn_qwait, sn_dispatch, sn_service = Ws_native.Pool.stage_hists pool in
  {
    sn_injected = !injected;
    sn_dropped = !dropped;
    sn_completed = Atomic.get completed;
    sn_elapsed = elapsed;
    sn_p50_ns = Telemetry.Histogram.percentile sojourn 0.5;
    sn_p99_ns = Telemetry.Histogram.percentile sojourn 0.99;
    sn_p999_ns = Telemetry.Histogram.percentile sojourn 0.999;
    sn_sojourn = sojourn;
    sn_late = late;
    sn_peak_injector = !peak_injector;
    sn_slots = Ws_native.Pool.worker_stats pool;
    sn_qwait;
    sn_dispatch;
    sn_service;
    sn_steal_delay = steal_delay_of_flight recorder;
    sn_windows = windows;
    sn_flight = recorder;
  }

let render_scenario_native (spec : Scenarios.open_spec) r =
  let module H = Telemetry.Histogram in
  let sum f = Array.fold_left (fun acc st -> acc + f st) 0 r.sn_slots in
  let base =
    Printf.sprintf
      "scenario=%s injected=%d dropped=%d completed=%d elapsed=%.3fs\n\
       sojourn p50=%dns p99=%dns p999=%dns\n\
       stages: qwait p99=%dns dispatch p99=%dns service p99=%dns\n\
       pool: peak_injector=%d steals=%d injector_runs=%d parks=%d\n"
      spec.Scenarios.sc_name r.sn_injected r.sn_dropped r.sn_completed
      r.sn_elapsed r.sn_p50_ns r.sn_p99_ns r.sn_p999_ns
      (H.percentile r.sn_qwait 0.99)
      (H.percentile r.sn_dispatch 0.99)
      (H.percentile r.sn_service 0.99)
      r.sn_peak_injector
      (sum (fun st -> st.Ws_native.Pool.steals))
      (sum (fun st -> st.Ws_native.Pool.injector_runs))
      (sum (fun st -> st.Ws_native.Pool.parks))
  in
  let late =
    Printf.sprintf "generator: late p99=%dns\n" (H.percentile r.sn_late 0.99)
  in
  let steal_delay =
    if H.total r.sn_steal_delay = 0 then ""
    else
      Printf.sprintf "steal-delay: p50=%dns p99=%dns (%d stolen)\n"
        (H.percentile r.sn_steal_delay 0.5)
        (H.percentile r.sn_steal_delay 0.99)
        (H.total r.sn_steal_delay)
  in
  base ^ late ^ steal_delay

(* Judge the native replay against the scenario's SLO. Budgets are stated
   in ticks; the native engine runs wall time, so each budget converts
   through sc_tick_ns. Window indices are absolute monotonic-ns values —
   meaningless across runs — so the table prints them relative to the
   first retained window. *)
let native_verdicts (spec : Scenarios.open_spec) (slo : Scenarios.slo) r =
  let module H = Telemetry.Histogram in
  let module W = Telemetry.Windowed in
  let tick_ns = spec.Scenarios.sc_tick_ns in
  let to_ns ticks = ticks * tick_ns in
  let row window metric actual budget ok =
    {
      Scenarios.vd_load = "native";
      vd_window = window;
      vd_metric = metric;
      vd_actual = actual;
      vd_budget = budget;
      vd_ok = ok;
    }
  in
  let window_rows =
    match slo.Scenarios.slo_p99_sojourn with
    | None -> []
    | Some budget_ticks ->
        let budget = to_ns budget_ticks in
        let ws = W.windows r.sn_windows in
        let base = match ws with [] -> 0 | (w, _) :: _ -> w in
        List.map
          (fun (w, h) ->
            let actual = H.percentile h 0.99 in
            row
              (string_of_int (w - base))
              "sojourn_p99" (string_of_int actual) (string_of_int budget)
              (actual <= budget))
          ws
  in
  let stage_row metric budget h =
    match budget with
    | None -> []
    | Some b ->
        let budget = to_ns b in
        let actual = H.percentile h 0.99 in
        [
          row "-" metric (string_of_int actual) (string_of_int budget)
            (actual <= budget);
        ]
  in
  let drop_row =
    match slo.Scenarios.slo_max_drop_rate with
    | None -> []
    | Some budget ->
        let offered = r.sn_injected + r.sn_dropped in
        let rate =
          if offered = 0 then 0.
          else float_of_int r.sn_dropped /. float_of_int offered
        in
        [
          row "-" "drop_rate"
            (Printf.sprintf "%.4f" rate)
            (Printf.sprintf "%.4f" budget)
            (rate <= budget);
        ]
  in
  window_rows
  @ stage_row "qwait_p99" slo.Scenarios.slo_qwait_p99 r.sn_qwait
  @ stage_row "dispatch_p99" slo.Scenarios.slo_dispatch_p99 r.sn_dispatch
  @ stage_row "service_p99" slo.Scenarios.slo_service_p99 r.sn_service
  @ drop_row

(* ------------------------------------------------------------------ *)
(* Flight recorder probe                                               *)
(* ------------------------------------------------------------------ *)

(* A workload that forces genuine steals deterministically: each round the
   probe task spawns a child onto its own deque and then busy-waits on a
   flag only the child sets. The probe's slot never pops (it is spinning),
   so the child can only ever run by being stolen — every round yields at
   least one Steal event with a reconstructable victim/thief pair. *)
let flight_probe ?domains ?backend ?(rounds = 8) () =
  let pool = Ws_native.Pool.create ?domains ?backend ~flight:true () in
  let probe () =
    for _ = 1 to rounds do
      let flag = Atomic.make false in
      Ws_native.Pool.spawn pool (fun () -> Atomic.set flag true);
      while not (Atomic.get flag) do
        Domain.cpu_relax ()
      done
    done
  in
  Ws_native.Pool.parallel_run pool [ probe ];
  let recorder = Option.get (Ws_native.Pool.flight pool) in
  Ws_native.Pool.shutdown pool;
  recorder

(* The recorder's wsrepro-flight/v1 report to [file], a Chrome trace next
   to it, and a one-line lineage summary on stdout. *)
let write_flight ~file recorder =
  Telemetry.Flight_recorder.write_report recorder file;
  let trace_file = Filename.remove_extension file ^ ".trace.json" in
  Telemetry.Chrome_trace.write
    (Telemetry.Flight_recorder.to_chrome recorder)
    trace_file;
  let lineages, unresolved = Telemetry.Flight_recorder.reconstruct recorder in
  let stolen =
    List.length
      (List.filter
         (fun l ->
           match l.Telemetry.Flight_recorder.origin with
           | Telemetry.Flight_recorder.Stolen _ -> true
           | _ -> false)
         lineages)
  in
  Printf.printf
    "flight: %d tasks reconstructed (%d stolen, %d unresolved), report %s, \
     chrome trace %s\n"
    (List.length lineages) stolen unresolved file trace_file

(* ------------------------------------------------------------------ *)
(* Entry points (the `wsrepro native` subcommand bodies)               *)
(* ------------------------------------------------------------------ *)

let replay ?flight_file (spec : Scenarios.open_spec) =
  Printf.printf "== Native scenario replay: %s (%d worker domains) ==\n"
    spec.Scenarios.sc_name spec.Scenarios.sc_workers;
  let r = scenario_native spec in
  print_string (render_scenario_native spec r);
  Option.iter (fun file -> write_flight ~file r.sn_flight) flight_file;
  match spec.Scenarios.sc_slo with
  | None -> true
  | Some slo ->
      let vs = native_verdicts spec slo r in
      print_string
        (Scenarios.render_verdicts ~name:spec.Scenarios.sc_name ~units:"ns" vs);
      Scenarios.verdicts_ok vs

let run ?(machine = Machine_config.westmere_ex) ?domains ?backend ?fib_n
    ?graph_nodes ?graph_edges ?flight_file ?(seed = 23) () =
  let d =
    match domains with
    | Some d -> d
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  Printf.printf
    "== Native vs simulated: same workloads, silicon cross-check (%d worker \
     domains) ==\n"
    d;
  print_string
    (render_parity
       (parity ~machine ~domains:d ?backend ?fib_n ?graph_nodes ?graph_edges
          ~seed ()));
  match flight_file with
  | None -> ()
  | Some file ->
      Printf.printf "== Flight recorder: steal-forcing probe ==\n";
      write_flight ~file (flight_probe ~domains:d ?backend ())
