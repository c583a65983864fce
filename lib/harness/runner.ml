let config (m : Machine_config.t) (v : Variants.t) ?workers ~seed () =
  {
    Ws_runtime.Engine.default_config with
    workers = Option.value ~default:m.Machine_config.workers workers;
    queue = Ws_core.Registry.find v.Variants.queue;
    delta = v.Variants.delta_of m;
    worker_fence = v.Variants.worker_fence;
    sb_capacity = m.Machine_config.reorder_bound;
    costs = m.Machine_config.costs;
    seed;
  }

let check_result label (r : Ws_runtime.Engine.result) =
  (match r.outcome with
  | Tso.Sched.Quiescent -> ()
  | Tso.Sched.Max_steps -> failwith (label ^ ": run exceeded the step budget")
  | Tso.Sched.Deadlock -> failwith (label ^ ": deadlock"));
  if r.lost > 0 then failwith (Printf.sprintf "%s: %d tasks lost" label r.lost)

let makespan (r : Ws_runtime.Engine.result) =
  match r.timing with
  | Some t -> float_of_int t.Tso.Timing.makespan
  | None -> invalid_arg "Runner.makespan: not a timed run"

let run_dag m v ?workers ~seeds ?sink ?tracer ?trace_pid dag ~name =
  List.map
    (fun seed ->
      let cfg = config m v ?workers ~seed () in
      let wl = Ws_runtime.Dag.instantiate dag ~name in
      let r = Ws_runtime.Engine.run_timed ?sink ?tracer ?trace_pid cfg wl in
      let label = Printf.sprintf "%s/%s/%s" m.name v.Variants.label name in
      check_result label r;
      if r.duplicates > 0 then
        failwith (Printf.sprintf "%s: %d tasks duplicated" label r.duplicates);
      makespan r)
    seeds

let forensics_report spec ?(progress = false) ?sink ~choices ~message () =
  let reporter =
    if progress then Some (Telemetry.Progress.create ~label:"shrink" ())
    else None
  in
  let r =
    Forensics.Report.build ?sink ?progress:reporter
      ~mk:(Scenarios.instance spec)
      ~config:(Scenarios.spec_json spec)
      ~choices ~message ()
  in
  Option.iter (fun rep -> Telemetry.Progress.finish rep) reporter;
  r

let run_checked m v ?workers ~seed mk =
  let cfg = config m v ?workers ~seed () in
  let checked = mk () in
  let r = Ws_runtime.Engine.run_timed cfg checked.Ws_workloads.Graph_workloads.workload in
  let label =
    Printf.sprintf "%s/%s/%s" m.name v.Variants.label
      checked.Ws_workloads.Graph_workloads.workload.Ws_runtime.Workload.name
  in
  check_result label r;
  (match checked.Ws_workloads.Graph_workloads.verify () with
  | Ok () -> ()
  | Error msg -> failwith (label ^ ": " ^ msg));
  (makespan r, r.metrics)
