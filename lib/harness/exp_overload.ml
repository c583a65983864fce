(* Heavy-traffic overload sweep: one scenario run at 1x/2x/4x its offered
   load, on the timing model and (optionally) on the native pool, with the
   tail latencies side by side. The sim sweep fans out over domains with a
   per-domain sink shard (Par_runner.map_sharded), so the queue-operation
   counters in the report come out of the sharded measurement plane merged
   at the join — identical totals to a sequential sweep, no shared
   counter cache line while it runs.

   Sim and native replay the same pre-drawn plan per point (the factor is
   applied to the arrival process before the plan is drawn, so a 2x point
   is the same seed under doubled rates, not a resampling). Sojourn units
   differ by engine — ticks on the timing model, nanoseconds native — and
   the table prints both rather than pretending one converts into the
   other; the comparison is of shapes (tail growth, drop onset), not
   absolute values. *)

module OL = Ws_runtime.Open_load
module J = Telemetry.Json

let schema = "wsrepro-overload/v1"
let default_factors = [ 1.0; 2.0; 4.0 ]

type point = {
  ov_label : string;  (* "1x", "2x", ... *)
  ov_offered : float;  (* arrivals per 1000 ticks after scaling *)
  ov_sim : Ws_runtime.Open_system.report;
  ov_native : Exp_native.scenario_result option;
}

let scale_arrival factor = function
  | OL.Poisson { rate } -> OL.Poisson { rate = rate *. factor }
  | OL.Bursty b ->
      OL.Bursty
        {
          b with
          rate_lo = b.rate_lo *. factor;
          rate_hi = b.rate_hi *. factor;
        }

let scale_spec (spec : Scenarios.open_spec) factor =
  {
    spec with
    Scenarios.sc_arrival = scale_arrival factor spec.Scenarios.sc_arrival;
  }

let label_of_factor f =
  if Float.is_integer f then Printf.sprintf "%.0fx" f
  else Printf.sprintf "%.1fx" f

let sim_point ?sink spec =
  Ws_runtime.Open_system.run ?sink (Scenarios.open_config spec)

let run ?(factors = default_factors) ?(native = false) ?(jobs = 1) ?sink
    (spec : Scenarios.open_spec) =
  let specs = List.map (fun f -> (f, scale_spec spec f)) factors in
  let sims =
    match sink with
    | None -> Par_runner.map ~jobs (fun (_, s) -> sim_point s) specs
    | Some into ->
        Par_runner.map_sharded ~jobs ~into
          (fun shard (_, s) -> sim_point ~sink:shard s)
          specs
  in
  (* Native points run one at a time: each spawns its own worker domains,
     and overlapping pools would contend for cores and corrupt the very
     tail latencies being measured. *)
  List.map2
    (fun (f, s) sim ->
      {
        ov_label = label_of_factor f;
        ov_offered = OL.mean_rate s.Scenarios.sc_arrival;
        ov_sim = sim;
        ov_native =
          (if native then Some (Exp_native.scenario_native s) else None);
      })
    specs sims

(* --- report JSON (byte-stable via Telemetry.Json) -------------------- *)

let outcome_str = function
  | Tso.Sched.Quiescent -> "quiescent"
  | Tso.Sched.Deadlock -> "deadlock"
  | Tso.Sched.Max_steps -> "max-steps"

let sim_json (r : Ws_runtime.Open_system.report) =
  let module H = Telemetry.Histogram in
  J.Obj
    [
      ("outcome", J.Str (outcome_str r.Ws_runtime.Open_system.outcome));
      ("injected", J.Int r.Ws_runtime.Open_system.injected);
      ("dropped", J.Int r.Ws_runtime.Open_system.dropped);
      ("completed", J.Int r.Ws_runtime.Open_system.completed);
      ("makespan_ticks", J.Int r.Ws_runtime.Open_system.makespan);
      ("p50_ticks", J.Int r.Ws_runtime.Open_system.p50);
      ("p99_ticks", J.Int r.Ws_runtime.Open_system.p99);
      ("p999_ticks", J.Int r.Ws_runtime.Open_system.p999);
      (* stage attribution: qwait + dispatch + service = sojourn *)
      ("qwait_p99_ticks", J.Int (H.percentile r.Ws_runtime.Open_system.qwait 0.99));
      ( "dispatch_p99_ticks",
        J.Int (H.percentile r.Ws_runtime.Open_system.dispatch 0.99) );
      ( "service_p99_ticks",
        J.Int (H.percentile r.Ws_runtime.Open_system.service 0.99) );
      ( "sojourn_windows",
        Telemetry.Windowed.to_json r.Ws_runtime.Open_system.sojourn_windows );
      ( "qwait_windows",
        Telemetry.Windowed.to_json r.Ws_runtime.Open_system.qwait_windows );
      ("peak_queue", J.Int r.Ws_runtime.Open_system.peak_queue);
      ("block_spins", J.Int r.Ws_runtime.Open_system.block_spins);
      ("achieved_per_ktick", J.Float r.Ws_runtime.Open_system.achieved_rate);
    ]

(* The pool's per-slot counters, in [Ws_native.Pool.worker_stats] field
   order; index 0 is the coordinator, which a replay never runs on. *)
let slot_fields =
  Ws_native.Pool.
    [
      ("spawns", fun st -> st.spawns);
      ("tasks_run", fun st -> st.tasks_run);
      ("tasks_stolen", fun st -> st.tasks_stolen);
      ("injector_runs", fun st -> st.injector_runs);
      ("steal_attempts", fun st -> st.steal_attempts);
      ("steals", fun st -> st.steals);
      ("take_empties", fun st -> st.take_empties);
      ("steal_empties", fun st -> st.steal_empties);
      ("steal_aborts", fun st -> st.steal_aborts);
      ("parks", fun st -> st.parks);
    ]

let slot_json st = J.Obj (List.map (fun (k, f) -> (k, J.Int (f st))) slot_fields)

let native_json (r : Exp_native.scenario_result) =
  let module H = Telemetry.Histogram in
  J.Obj
    [
      ("injected", J.Int r.Exp_native.sn_injected);
      ("dropped", J.Int r.Exp_native.sn_dropped);
      ("completed", J.Int r.Exp_native.sn_completed);
      ("elapsed_s", J.Float r.Exp_native.sn_elapsed);
      ("p50_ns", J.Int r.Exp_native.sn_p50_ns);
      ("p99_ns", J.Int r.Exp_native.sn_p99_ns);
      ("p999_ns", J.Int r.Exp_native.sn_p999_ns);
      (* per-cell stage attribution from the pool, in wall nanoseconds *)
      ("qwait_p99_ns", J.Int (H.percentile r.Exp_native.sn_qwait 0.99));
      ("dispatch_p99_ns", J.Int (H.percentile r.Exp_native.sn_dispatch 0.99));
      ("service_p99_ns", J.Int (H.percentile r.Exp_native.sn_service 0.99));
      ("qwait_ns", H.to_json r.Exp_native.sn_qwait);
      ("dispatch_ns", H.to_json r.Exp_native.sn_dispatch);
      ("service_ns", H.to_json r.Exp_native.sn_service);
      ( "sojourn_windows",
        Telemetry.Windowed.to_json r.Exp_native.sn_windows );
      ("peak_injector", J.Int r.Exp_native.sn_peak_injector);
      ( "slots",
        J.List (Array.to_list (Array.map slot_json r.Exp_native.sn_slots)) );
    ]

let point_json p =
  J.Obj
    (( [
         ("label", J.Str p.ov_label);
         ("offered_per_ktick", J.Float p.ov_offered);
         ("sim", sim_json p.ov_sim);
       ]
     @ match p.ov_native with
       | None -> []
       | Some n -> [ ("native", native_json n) ] ))

let report_json ?sink ?slo_ok (spec : Scenarios.open_spec) points =
  J.Obj
    ([
       ("schema", J.Str schema);
       ("scenario", Scenarios.open_spec_json spec);
       ("points", J.List (List.map point_json points));
     ]
    @ (match slo_ok with
      | None -> []
      | Some ok -> [ ("slo_ok", J.Bool ok) ])
    @
    match sink with
    | None -> []
    | Some s -> [ ("queue_counters", Telemetry.Sink.to_json s) ])

(* --- validation (for `wsrepro json-check`) --------------------------- *)

let ( let* ) = Result.bind

let need_int ctx obj k =
  match J.member k obj with
  | Some (J.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "%s: missing integer %S" ctx k)

let check_tail ctx obj =
  let* p50 = need_int ctx obj "p50_ticks" in
  let* p99 = need_int ctx obj "p99_ticks" in
  let* p999 = need_int ctx obj "p999_ticks" in
  if p50 <= p99 && p99 <= p999 then Ok ()
  else Error (Printf.sprintf "%s: percentiles not monotone" ctx)

let check_counts ctx obj =
  let* injected = need_int ctx obj "injected" in
  let* dropped = need_int ctx obj "dropped" in
  let* completed = need_int ctx obj "completed" in
  if completed <> injected then
    Error
      (Printf.sprintf "%s: completed %d <> injected %d" ctx completed injected)
  else if dropped < 0 then Error (Printf.sprintf "%s: negative drops" ctx)
  else Ok ()

(* Each rotating-window series must be an object with a positive width
   and per-window entries whose indices strictly increase (the emitter
   sorts oldest-first; equal or descending indices mean a corrupted
   merge). *)
let check_windows ctx obj k =
  match J.member k obj with
  | Some (J.Obj _ as w) -> (
      let* width =
        match J.member "width" w with
        | Some (J.Int i) when i > 0 -> Ok i
        | _ -> Error (Printf.sprintf "%s.%s: missing positive \"width\"" ctx k)
      in
      ignore width;
      match J.member "windows" w with
      | Some (J.List ws) ->
          let rec go prev = function
            | [] -> Ok ()
            | wj :: rest -> (
                match J.member "window" wj with
                | Some (J.Int i) when i > prev -> go i rest
                | Some (J.Int _) ->
                    Error
                      (Printf.sprintf "%s.%s: window indices not increasing"
                         ctx k)
                | _ ->
                    Error
                      (Printf.sprintf "%s.%s: window entry missing index" ctx
                         k))
          in
          go (-1) ws
      | _ -> Error (Printf.sprintf "%s.%s: missing array \"windows\"" ctx k))
  | _ -> Error (Printf.sprintf "%s: missing object %S" ctx k)

(* A [Histogram.to_json] object: a non-negative total and a bucket
   array. *)
let check_hist ctx obj k =
  let ctx = ctx ^ "." ^ k in
  match J.member k obj with
  | Some (J.Obj _ as h) -> (
      let* total = need_int ctx h "total" in
      match J.member "buckets" h with
      | Some (J.List _) when total >= 0 -> Ok ()
      | _ -> Error (ctx ^ ": needs a non-negative total and a bucket array"))
  | _ -> Error (Printf.sprintf "%s: missing object" ctx)

let rec iter_ok f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      iter_ok f rest

(* One object per pool slot, each carrying every counter, none negative. *)
let check_slots ctx obj =
  match J.member "slots" obj with
  | Some (J.List (_ :: _ as slots)) ->
      iter_ok
        (fun (i, st) ->
          let sctx = Printf.sprintf "%s.slots[%d]" ctx i in
          iter_ok
            (fun (k, _) ->
              let* v = need_int sctx st k in
              if v >= 0 then Ok ()
              else Error (Printf.sprintf "%s: negative %S" sctx k))
            slot_fields)
        (List.mapi (fun i st -> (i, st)) slots)
  | _ -> Error (ctx ^ ": missing non-empty array \"slots\"")

let check_stages ctx obj =
  let* q = need_int ctx obj "qwait_p99_ticks" in
  let* d = need_int ctx obj "dispatch_p99_ticks" in
  let* s = need_int ctx obj "service_p99_ticks" in
  if q >= 0 && d >= 0 && s >= 0 then Ok ()
  else Error (Printf.sprintf "%s: negative stage percentile" ctx)

let validate_point i p =
  let ctx = Printf.sprintf "points[%d]" i in
  let* () =
    match J.member "label" p with
    | Some (J.Str _) -> Ok ()
    | _ -> Error (ctx ^ ": missing string \"label\"")
  in
  let* sim =
    match J.member "sim" p with
    | Some (J.Obj _ as o) -> Ok o
    | _ -> Error (ctx ^ ": missing object \"sim\"")
  in
  let* () = check_counts (ctx ^ ".sim") sim in
  let* () = check_tail (ctx ^ ".sim") sim in
  let* () = check_stages (ctx ^ ".sim") sim in
  let* () = check_windows (ctx ^ ".sim") sim "sojourn_windows" in
  let* () = check_windows (ctx ^ ".sim") sim "qwait_windows" in
  match J.member "native" p with
  | None -> Ok ()
  | Some (J.Obj _ as n) ->
      let nctx = ctx ^ ".native" in
      let* () = check_counts nctx n in
      let* p50 = need_int nctx n "p50_ns" in
      let* p99 = need_int nctx n "p99_ns" in
      let* p999 = need_int nctx n "p999_ns" in
      let* () =
        if p50 <= p99 && p99 <= p999 then Ok ()
        else Error (nctx ^ ": percentiles not monotone")
      in
      let* q = need_int nctx n "qwait_p99_ns" in
      let* d = need_int nctx n "dispatch_p99_ns" in
      let* s = need_int nctx n "service_p99_ns" in
      let* () =
        if q >= 0 && d >= 0 && s >= 0 then Ok ()
        else Error (nctx ^ ": negative stage percentile")
      in
      let* () = check_hist nctx n "qwait_ns" in
      let* () = check_hist nctx n "dispatch_ns" in
      let* () = check_hist nctx n "service_ns" in
      let* () = check_slots nctx n in
      check_windows nctx n "sojourn_windows"
  | Some _ -> Error (ctx ^ ": \"native\" must be an object")

let validate j =
  let* () =
    match J.member "schema" j with
    | Some (J.Str s) when s = schema -> Ok ()
    | _ -> Error (Printf.sprintf "\"schema\" must be %S" schema)
  in
  let* () =
    match J.member "scenario" j with
    | Some sc -> Result.map (fun _ -> ()) (Scenarios.open_spec_of_json sc)
    | None -> Error "missing \"scenario\""
  in
  match J.member "points" j with
  | Some (J.List (_ :: _ as ps)) ->
      let rec go i = function
        | [] -> Ok ()
        | p :: rest ->
            let* () = validate_point i p in
            go (i + 1) rest
      in
      go 0 ps
  | Some (J.List []) -> Error "\"points\" must be non-empty"
  | _ -> Error "missing array \"points\""

(* --- rendering -------------------------------------------------------- *)

let render points =
  let header =
    [
      "load"; "offered/ktick"; "sim p50"; "sim p99"; "sim p999"; "sim drop";
      "peak q"; "nat p50us"; "nat p99us"; "nat p999us"; "nat drop";
    ]
  in
  let us ns = Printf.sprintf "%.1f" (float_of_int ns /. 1e3) in
  let rows =
    List.map
      (fun p ->
        let s = p.ov_sim in
        [
          p.ov_label;
          Tablefmt.f1 p.ov_offered;
          string_of_int s.Ws_runtime.Open_system.p50;
          string_of_int s.Ws_runtime.Open_system.p99;
          string_of_int s.Ws_runtime.Open_system.p999;
          string_of_int s.Ws_runtime.Open_system.dropped;
          string_of_int s.Ws_runtime.Open_system.peak_queue;
        ]
        @
        match p.ov_native with
        | None -> [ "-"; "-"; "-"; "-" ]
        | Some n ->
            [
              us n.Exp_native.sn_p50_ns;
              us n.Exp_native.sn_p99_ns;
              us n.Exp_native.sn_p999_ns;
              string_of_int n.Exp_native.sn_dropped;
            ])
      points
  in
  Tablefmt.render ~header rows

(* --- SLO verdicts ------------------------------------------------------ *)

(* Judge every sweep point against the scenario's SLO: the per-window
   sojourn p99 budget against each retained window of that point's
   sojourn ring, the stage budgets against the point's whole-run stage
   p99s, the drop-rate budget against dropped/offered. All inputs are
   deterministic sim output, so the verdict rows are cram-lockable. *)
let verdicts (slo : Scenarios.slo) points =
  let module H = Telemetry.Histogram in
  let module W = Telemetry.Windowed in
  let row load window metric actual budget ok =
    {
      Scenarios.vd_load = load;
      vd_window = window;
      vd_metric = metric;
      vd_actual = actual;
      vd_budget = budget;
      vd_ok = ok;
    }
  in
  List.concat_map
    (fun p ->
      let s = p.ov_sim in
      let load = p.ov_label in
      let window_rows =
        match slo.Scenarios.slo_p99_sojourn with
        | None -> []
        | Some budget ->
            List.map
              (fun (w, h) ->
                let actual = H.percentile h 0.99 in
                row load (string_of_int w) "sojourn_p99"
                  (string_of_int actual) (string_of_int budget)
                  (actual <= budget))
              (W.windows s.Ws_runtime.Open_system.sojourn_windows)
      in
      let stage_row metric budget h =
        match budget with
        | None -> []
        | Some b ->
            let actual = H.percentile h 0.99 in
            [
              row load "-" metric (string_of_int actual) (string_of_int b)
                (actual <= b);
            ]
      in
      let drop_row =
        match slo.Scenarios.slo_max_drop_rate with
        | None -> []
        | Some budget ->
            let offered =
              s.Ws_runtime.Open_system.injected
              + s.Ws_runtime.Open_system.dropped
            in
            let rate =
              if offered = 0 then 0.
              else
                float_of_int s.Ws_runtime.Open_system.dropped
                /. float_of_int offered
            in
            [
              row load "-" "drop_rate"
                (Printf.sprintf "%.4f" rate)
                (Printf.sprintf "%.4f" budget)
                (rate <= budget);
            ]
      in
      window_rows
      @ stage_row "qwait_p99" slo.Scenarios.slo_qwait_p99
          s.Ws_runtime.Open_system.qwait
      @ stage_row "dispatch_p99" slo.Scenarios.slo_dispatch_p99
          s.Ws_runtime.Open_system.dispatch
      @ stage_row "service_p99" slo.Scenarios.slo_service_p99
          s.Ws_runtime.Open_system.service
      @ drop_row)
    points

let section ?(factors = default_factors) ?(native = false) ?(jobs = 1) ?out
    (spec : Scenarios.open_spec) () =
  let sink = Telemetry.Sink.create () in
  let points = run ~factors ~native ~jobs ~sink spec in
  Printf.printf
    "== Heavy-traffic overload sweep: %s (sim ticks%s) ==\n%s"
    spec.Scenarios.sc_name
    (if native then " vs native wall time" else "")
    (render points);
  let slo_ok =
    match spec.Scenarios.sc_slo with
    | None -> None
    | Some slo ->
        let vs = verdicts slo points in
        print_string
          (Scenarios.render_verdicts ~name:spec.Scenarios.sc_name
             ~units:"sim ticks" vs);
        Some (Scenarios.verdicts_ok vs)
  in
  (match out with
  | None -> ()
  | Some file ->
      J.write_file file (report_json ~sink ?slo_ok spec points);
      Printf.printf "overload report written to %s\n" file);
  (* a scenario without an SLO block cannot fail its (absent) objectives *)
  Option.value ~default:true slo_ok
