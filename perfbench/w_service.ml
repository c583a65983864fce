(* Workload `native-service`: an open loop standing for independent users.

   Arrivals follow a seeded Poisson plan from Open_load.plan. The calling
   domain is the generator: it waits on Telemetry.Clock.now_ns until each
   request's due time and submits it through Pool.submit ~policy:Drop into
   a bounded injector. One worker domain serves; each request is a chain
   of [chain] dependent stages of [work] spin iterations. The pool runs
   with ~attribution and ~flight on, as the SLO tooling runs it.

   Sojourn is timed from the request's due time, not from when the
   generator got round to it, so a late generator shows up as latency,
   and the generator's own lateness is reported beside it.

   A round is [requests] at rate [lo], [requests] at rate [hi], then a
   bisection for capacity: the highest offered rate whose point passes
   [passes]. Rounds repeat while the budget lasts. Every request must
   either complete exactly once or be counted as dropped. *)

open Common
module P = Ws_native.Pool
module OL = Ws_runtime.Open_load
module Q = Perfbench.Quantile

let chain = 4
let work = 500
let lo = 20_000.
let hi = 80_000.
let requests = 20_000
let capacity_requests = 10_000
let injector_capacity = 16_384

(* Latency is summarised per window of consecutive requests, and the
   median over windows is reported: a pause of the whole host (small
   shared virtual machines pause for milliseconds) spoils the windows it
   falls in, not the run. End-to-end latency uses windows of
   [lat_window] requests, whose highest quantile with 10 samples beyond
   it is p90; capacity is judged on windows of [judge_window], where it
   is p99. *)
let lat_window = 100
let judge_window = 2_000

(* A point passes when nothing is dropped or lost, the median window p99
   sojourn is within [limit_ns], the last window's median is too (no
   backlog left growing at the end), and the generator kept to the plan
   (median window p99 lateness within [late_ns]). The limits sit above
   the millisecond-long vCPU pauses of small shared virtual machines:
   with a 1 ms limit and a 100 us lateness guard, runs of pauses failed
   probes at 12 % load and the capacity found moved by a factor of 10
   within a run. *)
let limit_ns = 5_000_000
let late_ns = 1_000_000
let capacity_lo = lo
let capacity_hi = 600_000.
let capacity_steps = 7

let spin iters =
  let x = ref 0 in
  for i = 1 to iters do
    x := !x + i
  done;
  ignore (Sys.opaque_identity !x)

(* Per-request stamps, allocated once and reused by every point. *)
type buffers = {
  due : int array;  (** absolute due time *)
  late : int array;  (** generator lateness *)
  submit : int array;  (** time inside Pool.submit *)
  returned : int array;  (** when Pool.submit returned *)
  started : int array;  (** first stage start *)
  finished : int array;  (** last stage end *)
  accepted : bool array;
}

let max_requests = max requests capacity_requests

let buffers () =
  let z () = Array.make max_requests 0 in
  {
    due = z ();
    late = z ();
    submit = z ();
    returned = z ();
    started = z ();
    finished = z ();
    accepted = Array.make max_requests false;
  }

type point = {
  rate : float;
  n : int;
  dropped : int;
  lost : int;  (** neither completed nor dropped: must be 0 *)
  service_p50 : int;  (** median first-stage start to last-stage end *)
  injector_peak : int;
  parks : int;
  lat : (int * int) list;  (** per latency window: sojourn p50, p90 *)
  p99s : int list;  (** per judging window: sojourn p99 *)
  last_p50 : int;  (** sojourn p50 of the last judging window *)
  late_p99s : int list;  (** per judging window: lateness p99 *)
  dispatch : Q.summary;  (** submit return to first stage start *)
  submit_p99 : int;
}

let parks pool =
  Array.fold_left (fun acc (w : P.worker_stats) -> acc + w.P.parks) 0 (P.worker_stats pool)

let sorted a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* [f] over each window of [size] requests, on the values [v i] of the
   requests [keep] admits; empty windows are skipped. *)
let per_window ~n ~size ~keep v f =
  let rec go w acc =
    if w * size >= n then List.rev acc
    else
      let vals =
        List.filter_map
          (fun k ->
            let i = (w * size) + k in
            if keep i then Some (v i) else None)
          (List.init size Fun.id)
      in
      let acc = if vals = [] then acc else f (sorted (Array.of_list vals)) :: acc in
      go (w + 1) acc
  in
  go 0 []

let run_point b pool unit_plan ~rate ~n =
  let scale = 1e6 /. rate in
  let completed = Atomic.make 0 in
  let dropped = ref 0 and peak = ref 0 in
  let parks0 = parks pool in
  let rec stage i k () =
    if k = 0 then b.started.(i) <- now_ns ();
    spin work;
    if k < chain - 1 then P.spawn pool (stage i (k + 1))
    else begin
      b.finished.(i) <- now_ns ();
      Atomic.incr completed
    end
  in
  let t0 = now_ns () + 100_000 in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + unit_plan.OL.gaps.(i);
    b.due.(i) <- t0 + int_of_float (float_of_int !acc *. scale)
  done;
  for i = 0 to n - 1 do
    let d = b.due.(i) in
    while now_ns () < d do
      Domain.cpu_relax ()
    done;
    let s = now_ns () in
    b.late.(i) <- s - d;
    let depth = P.injector_depth pool in
    if depth > !peak then peak := depth;
    let ok = P.submit ~policy:P.Drop pool (stage i 0) in
    let e = now_ns () in
    b.submit.(i) <- e - s;
    b.returned.(i) <- e;
    b.accepted.(i) <- ok;
    if not ok then incr dropped
  done;
  (* every accepted request must complete; give up after 30 s *)
  let deadline = now_ns () + 30_000_000_000 in
  while Atomic.get completed < n - !dropped && now_ns () < deadline do
    Domain.cpu_relax ()
  done;
  let ok i = b.accepted.(i) in
  let sojourn i = b.finished.(i) - b.due.(i) in
  let judged = per_window ~n ~size:judge_window ~keep:ok sojourn Fun.id in
  {
    rate;
    n;
    dropped = !dropped;
    lost = n - !dropped - Atomic.get completed;
    service_p50 =
      Q.at
        (sorted
           (Array.of_list
              (List.filter_map
                 (fun i -> if ok i then Some (b.finished.(i) - b.started.(i)) else None)
                 (List.init n Fun.id))))
        500;
    injector_peak = !peak;
    parks = parks pool - parks0;
    lat =
      per_window ~n ~size:lat_window ~keep:ok sojourn (fun s -> (Q.at s 500, Q.at s 900));
    p99s = List.map (fun s -> Q.at s 990) judged;
    last_p50 = (match List.rev judged with s :: _ -> Q.at s 500 | [] -> max_int);
    late_p99s = per_window ~n ~size:judge_window ~keep:(fun _ -> true) (fun i -> b.late.(i)) (fun s -> Q.at s 990);
    dispatch =
      Q.summarize
        (Array.of_list
           (List.filter_map
              (fun i -> if ok i then Some (max 0 (b.started.(i) - b.returned.(i))) else None)
              (List.init n Fun.id)));
    submit_p99 = Q.at (sorted (Array.sub b.submit 0 n)) 990;
  }

let median_int xs = Q.median (List.map float_of_int xs)

(* Worker busy time of a point: accepted requests times the median
   per-request service time. Unlike the point's makespan, which the
   arrival plan fixes, it is set by the pool's service path. *)
let busy_ns p = float_of_int ((p.n - p.dropped) * p.service_p50)

let passes p =
  p.dropped = 0 && p.lost = 0
  && median_int p.p99s <= float_of_int limit_ns
  && p.last_p50 <= limit_ns
  && median_int p.late_p99s <= float_of_int late_ns

(* Geometric bisection between a rate assumed to pass and one assumed to
   fail. A failing probe is repeated once before the rate counts as
   failed, so one host pause cannot pull the search down. *)
let capacity b pool unit_plan =
  let probe rate =
    let pt () = run_point b pool unit_plan ~rate ~n:capacity_requests in
    let p = pt () in
    if passes p then [ p ] else [ p; pt () ]
  in
  let rec go k ok bad probes =
    if k = 0 then (ok, probes)
    else
      let mid = sqrt (ok *. bad) in
      let ps = probe mid in
      if List.exists passes ps then go (k - 1) mid bad (ps @ probes)
      else go (k - 1) ok mid (ps @ probes)
  in
  go capacity_steps capacity_lo capacity_hi []

type round = { lo_pt : point; hi_pt : point; cap : float; probes : point list }

let round ?(spans = Perfbench.Spans.create ~enabled:false) b pool unit_plan =
  let sp name f = Perfbench.Spans.with_span spans name (fun _ -> f ()) in
  let point rate = run_point b pool unit_plan ~rate ~n:requests in
  let lo_pt = sp "service.point_lo" (fun () -> point lo) in
  let hi_pt = sp "service.point_hi" (fun () -> point hi) in
  let cap, probes = sp "service.capacity_search" (fun () -> capacity b pool unit_plan) in
  { lo_pt; hi_pt; cap; probes }

let check_round c r =
  List.iter
    (fun p ->
      check c (p.lost = 0)
        "native-service: %d of %d requests at %.0f/s neither completed nor dropped" p.lost
        p.n p.rate)
    (r.lo_pt :: r.hi_pt :: r.probes)

let create ~seed () =
  let unit_plan =
    OL.plan ~seed ~requests:max_requests (OL.Poisson { rate = 1.0 }) (OL.Fixed { ticks = 1 })
  in
  let pool = P.create ~domains:1 ~attribution:true ~flight:true ~injector_capacity () in
  (pool, unit_plan)

(* Window-median sojourn p50 / p90 over the latency windows of [points],
   and p99 over their judging windows, in us. *)
let window_medians points =
  let lat = List.concat_map (fun p -> p.lat) points in
  let us f = Q.median (List.map (fun x -> float_of_int (f x) /. 1e3) lat) in
  ( us fst,
    us snd,
    median_int (List.concat_map (fun p -> p.p99s) points) /. 1e3 )

let run ctx =
  let c = checks () in
  let (pool, unit_plan), setup_host_s =
    setup ~reps:41 ~domains:2 ~discard:(fun (pool, _) -> P.shutdown pool) (create ~seed:ctx.seed)
  in
  let b = buffers () in
  (* the pool's coordinator slot stays unused: the calling domain is the
     generator. A first point lets the worker domain and the heap settle. *)
  ignore (run_point b pool unit_plan ~rate:lo ~n:requests);
  let attempted rs = List.length rs * 2 * requests in
  let drops rs = List.fold_left (fun acc r -> acc + r.lo_pt.dropped + r.hi_pt.dropped) 0 rs in
  let stamp_common rs =
    let quantiles pts =
      let p50, p90, p99 = window_medians pts in
      J.Obj [ ("p50", J.Float p50); ("p90", J.Float p90); ("p99", J.Float p99) ]
    in
    [
      ("lo_rate", J.Float lo);
      ("hi_rate", J.Float hi);
      ("requests_per_point", J.Int requests);
      ("requests_per_capacity_probe", J.Int capacity_requests);
      ( "service_us_p50_lo",
        J.Float (median_int (List.map (fun r -> r.lo_pt.service_p50) rs) /. 1e3) );
      ("chain", J.Int chain);
      ("work_iters", J.Int work);
      ("limit_us", J.Int (limit_ns / 1000));
      ("rounds", J.Int (List.length rs));
      ("capacities", J.List (List.map (fun r -> J.Float r.cap) rs));
      ("drops_at_lo_hi", J.Int (drops rs));
      ("lo_window_quantiles_us", quantiles (List.map (fun r -> r.lo_pt) rs));
      ("hi_window_quantiles_us", quantiles (List.map (fun r -> r.hi_pt) rs));
      ( "gen_late_us_p99_lo",
        J.Float (median_int (List.concat_map (fun r -> r.lo_pt.late_p99s) rs) /. 1e3) );
    ]
  in
  let outcome =
    if not ctx.trace then begin
      let rs =
        repeat ~seconds:ctx.seconds ~min_reps:5 (fun () ->
            let r, _ = timed_unit ~domains:2 (fun () -> round b pool unit_plan) in
            check_round c r;
            r)
      in
      (* Everything is at the reference speed, as the host mode moved
         latency and capacity by 45 % and 37 % between batches of runs.
         Latencies are medians over every latency window of the run's lo
         points; busy time and capacity are medians over rounds (the
         capacity search sometimes lands on a lucky high rate, as a
         failing probe gets a second try). *)
      let k = host_factor () in
      let per_round f = List.map f rs in
      let p50, p90, _ = window_medians (per_round (fun r -> r.lo_pt)) in
      {
        correct = c.mismatches = [];
        attempted = attempted rs;
        failed = drops rs + List.length c.mismatches;
        metrics =
          [
            ("wall_s", Q.median (per_round (fun r -> busy_ns r.hi_pt *. 1e-9)) /. k);
            ("throughput_per_s", Q.median (per_round (fun r -> r.cap)) *. k);
            ("p50_us", p50 /. k);
            ("tail_us", p90 /. k);
            ("setup_s", at_ref setup_host_s);
            ("peak_rss_mb", !reps_rss_mb);
          ];
        stamp =
          stamp_common rs
          @ [
              ( "latency",
                J.Obj
                  [
                    ("of", J.Str "request sojourn at the lo rate, from due time");
                    ("samples_per_window", J.Int lat_window);
                    ("windows", J.Int (List.length rs * requests / lat_window));
                    ("tail_quantile", J.Str "p90");
                  ] );
              check_stamp c;
            ];
      }
    end
    else begin
      let base = round b pool unit_plan in
      check_round c base;
      let majors0 = major_collections () in
      let traced = round ~spans:ctx.spans b pool unit_plan in
      check_round c traced;
      let majors = major_collections () - majors0 in
      let rs = [ base; traced ] in
      let lo_pt = traced.lo_pt and hi_pt = traced.hi_pt in
      let _, _, lo_p99 = window_medians [ lo_pt ] in
      let _, _, hi_p99 = window_medians [ hi_pt ] in
      (* the spans wrap only the three phases of a round, never a
         request, so any overhead this shows is host noise *)
      let wall r = busy_ns r.lo_pt +. busy_ns r.hi_pt in
      let metrics =
        set (idle_layers ())
          ([
             ("trace_overhead_pct", overhead_pct ~traced:(wall traced) ~untraced:(wall base));
             ("gc.major_collections", float_of_int majors);
             ("pool.submit_ns_p99", float_of_int hi_pt.submit_p99);
             ("pool.dispatch_us_p50", us_of_ns lo_pt.dispatch.Q.p50);
             ("pool.dispatch_us_p99", us_of_ns lo_pt.dispatch.Q.tail);
             ("pool.parks_per_req", float_of_int lo_pt.parks /. float_of_int requests);
             ("pool.injector_peak", float_of_int hi_pt.injector_peak);
             ("service.p99_us_lo", lo_p99);
             ("service.p99_us_hi", hi_p99);
             ("gen.late_us_p99", median_int lo_pt.late_p99s /. 1e3);
           ]
          @ Probes.all ())
      in
      {
        correct = c.mismatches = [];
        attempted = attempted rs;
        failed = drops rs + List.length c.mismatches;
        metrics;
        stamp = stamp_common rs @ [ check_stamp c ];
      }
    end
  in
  P.shutdown pool;
  outcome
