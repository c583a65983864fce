(* Workload `sim`: a closed batch on the simulator, at 2 domains.

   One repetition is
   - the Fig. 10 grid on the simulated Haswell: the 11 Cilk benchmarks
     under THE and the 5 fence-free variants, one simulation seed, each
     grid point one Runner.run_dag, fanned out through Par_runner; then
   - an Open_system sweep of the poisson-1x scenario shape at 1x/2x/4x
     load, with more requests than the tracked scenario file.

   Simulated time is deterministic, so the rendered Fig. 10 table and the
   sweep report must equal the digests recorded below for the seed. *)

open Common
module H = Ws_harness

let jobs = 2
let machine = H.Machine_config.haswell
let variants = H.Variants.the_baseline :: H.Variants.fig10
let factors = [ 1.0; 2.0; 4.0 ]
let sweep_requests = 6000

(* The benchmark seed picks one of four recorded simulation inputs. *)
let input_index seed = seed land 3
let sim_seed seed = 11 + (100 * input_index seed)

let sweep_spec seed =
  {
    H.Scenarios.sc_name = "poisson-1x";
    sc_queue = "ff-the";
    sc_workers = 3;
    sc_requests = sweep_requests;
    sc_chain = 3;
    sc_seed = 7 + input_index seed;
    sc_capacity = 64;
    sc_policy = Ws_runtime.Open_load.Block;
    sc_tick_ns = 50;
    sc_arrival = Ws_runtime.Open_load.Poisson { rate = 1.5 };
    sc_service = Ws_runtime.Open_load.Exponential { mean = 400 };
    sc_slo = None;
  }

(* MD5 of the rendered Fig. 10 table and of the sweep report, per input
   index. Re-record with `main.exe --record` after an intended model
   change. *)
let expected_fig10 =
  [|
    "22ef1f2bd9d096ccc44d221b9ebf715a";
    "b4817922d56f619c32b78ca8a5a7d87e";
    "a8da7750e081372af2d5083a62d10c67";
    "f1342f5cb8d5015ec442647ac7190fe0";
  |]

let expected_sweep =
  [|
    "51ba3ef086a88c99ffc0e48ee57c4614";
    "6351dd2c3b05e867d2ae1269a5c51141";
    "579a9037590b483e30caf4421348e5c1";
    "19425983d6b658c16f16836f0d435ef0";
  |]

let build_dags () =
  List.map
    (fun (b : Ws_workloads.Cilk_suite.bench) ->
      (b, Ws_runtime.Dag.of_comp (b.comp ())))
    Ws_workloads.Cilk_suite.all

type rep = {
  grid_s : float;
  sweep_s : float;
  point_ns : int array;  (** host time of each grid point *)
  table : string;
  report : string;
  tasks : int;  (** DAG tasks plus request stages executed *)
  grid_sinks : Telemetry.Sink.t list;  (** traced repetition only *)
  sweep_sinks : Telemetry.Sink.t list;
  point_minor_words : float;
}

(* The grid is run point by point here rather than through
   Exp_fig10.compute, whose public interface takes no seed and gives no
   per-point hook: the benchmark needs each point's host time (p50_us,
   tail_us), a span around each Runner.run_dag, and one of four recorded
   seeds. --record checks that the table equals Exp_fig10.compute's on
   the seed the two share. Rows exactly as Exp_fig10.compute folds them
   for one seed. *)
let rows_of dags makespans =
  let nv = List.length variants in
  List.mapi
    (fun bi ((b : Ws_workloads.Cilk_suite.bench), _) ->
      let baseline = makespans.(bi * nv) in
      let cells =
        List.mapi
          (fun i (v : H.Variants.t) ->
            (v.H.Variants.label, 100.0 *. makespans.((bi * nv) + i + 1) /. baseline))
          H.Variants.fig10
      in
      { H.Exp_fig10.bench = b.name; baseline; cells })
    dags

let run_rep ~spans ~jobs ~traced ~seed dags =
  let points =
    Array.of_list
      (List.concat_map
         (fun (b, dag) -> List.map (fun v -> (b, dag, v)) variants)
         dags)
  in
  let n = Array.length points in
  let point_ns = Array.make n 0 in
  let minor = Array.make n 0.0 in
  let sink () = if traced then Some (Telemetry.Sink.create ()) else None in
  let grid_sinks = Array.init n (fun _ -> sink ()) in
  let makespans, grid_s =
    timed (fun () ->
        Perfbench.Spans.with_span spans "harness.fig10_grid" (fun grid ->
            Array.of_list
              (H.Par_runner.map ~jobs
                 (fun i ->
                   let (b : Ws_workloads.Cilk_suite.bench), dag, v = points.(i) in
                   Perfbench.Spans.with_span spans ~parent:grid "runtime.run_dag"
                     (fun id ->
                       let w0 = Gc.minor_words () in
                       let t0 = now_ns () in
                       let ms =
                         H.Runner.run_dag machine v ~seeds:[ sim_seed seed ]
                           ?sink:grid_sinks.(i) dag ~name:b.name
                       in
                       point_ns.(i) <- now_ns () - t0;
                       minor.(i) <- Gc.minor_words () -. w0;
                       Option.iter
                         (fun s -> Perfbench.Spans.count spans id "steps" s.Telemetry.Sink.steps)
                         grid_sinks.(i);
                       match ms with [ m ] -> m | _ -> assert false))
                 (List.init n Fun.id))))
  in
  let spec = sweep_spec seed in
  let sweep_sink = sink () in
  let sweep_points, sweep_s =
    timed (fun () ->
        Perfbench.Spans.with_span spans "runtime.open_system_sweep" (fun _ ->
            H.Exp_overload.run ~factors ~jobs ?sink:sweep_sink spec))
  in
  let grid_tasks =
    Array.fold_left (fun acc (_, dag, _) -> acc + Ws_runtime.Dag.size dag) 0 points
  in
  let stage_tasks =
    List.fold_left
      (fun acc (p : H.Exp_overload.point) ->
        acc + (p.ov_sim.Ws_runtime.Open_system.completed * spec.H.Scenarios.sc_chain))
      0 sweep_points
  in
  {
    grid_s;
    sweep_s;
    point_ns;
    table = H.Exp_fig10.render machine (rows_of dags makespans);
    report =
      Telemetry.Json.to_string (H.Exp_overload.report_json spec sweep_points);
    tasks = grid_tasks + stage_tasks;
    grid_sinks = List.filter_map Fun.id (Array.to_list grid_sinks);
    sweep_sinks = Option.to_list sweep_sink;
    point_minor_words = Array.fold_left ( +. ) 0.0 minor;
  }

let md5 s = Digest.to_hex (Digest.string s)

let check_rep c ~seed r =
  let i = input_index seed in
  check c (md5 r.table = expected_fig10.(i))
    "sim: Fig. 10 table digest %s, recorded %s" (md5 r.table) expected_fig10.(i);
  check c (md5 r.report = expected_sweep.(i))
    "sim: sweep report digest %s, recorded %s" (md5 r.report) expected_sweep.(i)

let wall r = r.grid_s +. r.sweep_s

let run ctx =
  let c = checks () in
  let untraced = Perfbench.Spans.create ~enabled:false in
  let dags, setup_host_s = setup ~reps:41 ~domains:jobs build_dags in
  let rep ?(spans = untraced) ?(jobs = jobs) ~traced () =
    let r = run_rep ~spans ~jobs ~traced ~seed:ctx.seed dags in
    check_rep c ~seed:ctx.seed r;
    r
  in
  let timed_rep () =
    let r, _ = timed_unit ~samples:3 ~domains:jobs (fun () -> rep ~traced:false ()) in
    (wall r, r.point_ns, r.tasks)
  in
  let stamp_common =
    [
      ("sim_seed", J.Int (sim_seed ctx.seed));
      ("sweep_seed", J.Int (sweep_spec ctx.seed).H.Scenarios.sc_seed);
      ("grid_points", J.Int (List.length dags * List.length variants));
    ]
  in
  if not ctx.trace then begin
    let reps = repeat ~seconds:ctx.seconds ~min_reps:1 timed_rep in
    let wall_s = at_ref (Perfbench.Quantile.median (List.map (fun (w, _, _) -> w) reps)) in
    let _, _, tasks = List.hd reps in
    let lat, lat_stamp =
      latency_metrics ~what:"grid point (one Runner.run_dag)"
        (List.map (fun (_, points, _) -> points) reps)
    in
    {
      correct = c.mismatches = [];
      attempted = List.length reps;
      failed = (if c.mismatches = [] then 0 else List.length reps);
      metrics =
        [ ("wall_s", wall_s); ("throughput_per_s", float_of_int tasks /. wall_s) ]
        @ lat
        @ [ ("setup_s", at_ref setup_host_s); ("peak_rss_mb", !reps_rss_mb) ];
      stamp =
        stamp_common
        @ [ ("reps", J.Int (List.length reps)); lat_stamp; check_stamp c ];
    }
  end
  else begin
    let base = rep ~traced:false () in
    let majors0 = major_collections () in
    let traced = rep ~spans:ctx.spans ~traced:true () in
    let majors = major_collections () - majors0 in
    let seq = rep ~jobs:1 ~traced:false () in
    let sum ?(sinks = traced.grid_sinks @ traced.sweep_sinks) f =
      List.fold_left (fun acc s -> acc + f s) 0 sinks
    in
    let grid_steps = sum ~sinks:traced.grid_sinks (fun s -> s.Telemetry.Sink.steps) in
    let steps = sum (fun s -> s.Telemetry.Sink.steps) in
    let point_ns = Array.map float_of_int traced.point_ns in
    let grid_busy_ns = Array.fold_left ( +. ) 0.0 point_ns in
    let point_ms = Perfbench.Quantile.summarize traced.point_ns in
    let metrics =
      set (idle_layers ())
        ([
           ("trace_overhead_pct", overhead_pct ~traced:(wall traced) ~untraced:(wall base));
           ("gc.major_collections", float_of_int majors);
           ("tso.steps", float_of_int steps);
           ("tso.ns_per_step", grid_busy_ns /. float_of_int grid_steps);
           ("tso.minor_words_per_step", traced.point_minor_words /. float_of_int grid_steps);
           ("core.fence_stall_cycles", float_of_int (sum (fun s -> s.Telemetry.Sink.fence_stall_cycles)));
           ("core.steal_aborts", float_of_int (sum (fun s -> s.Telemetry.Sink.steal_aborts)));
           ("runtime.engine_point_ms_p50", float_of_int point_ms.p50 /. 1e6);
           ("runtime.engine_point_ms_max", Array.fold_left Float.max 0.0 point_ns /. 1e6);
           ("runtime.open_system_ms", traced.sweep_s *. 1e3);
           ("workloads.dag_build_ms", setup_host_s *. 1e3);
           ("harness.par_efficiency", seq.grid_s /. (2.0 *. base.grid_s));
         ]
        @ Probes.all ())
    in
    {
      correct = c.mismatches = [];
      attempted = 3;
      failed = (if c.mismatches = [] then 0 else 3);
      metrics;
      stamp = stamp_common @ [ ("grid_steps", J.Int grid_steps); check_stamp c ];
    }
  end

(* Digests for every input index; the grid is cross-checked against the
   library's own Fig. 10 driver on the seed the two share. *)
let record () =
  let dags = build_dags () in
  let spans = Perfbench.Spans.create ~enabled:false in
  for i = 0 to 3 do
    let r = run_rep ~spans ~jobs ~traced:false ~seed:i dags in
    if i = 0 then begin
      let lib_table =
        H.Exp_fig10.render machine (H.Exp_fig10.compute machine ~repeats:1 ~jobs ())
      in
      if lib_table <> r.table then failwith "Fig. 10 table differs from Exp_fig10.compute"
    end;
    Printf.printf "sim input %d: fig10 %s sweep %s\n%!" i (md5 r.table) (md5 r.report)
  done
