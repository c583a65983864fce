(* Shared plumbing for the four workloads: the run context, the result
   record, timing helpers and the metric catalogue (names and units, which
   BENCHMARK.json repeats). *)

module J = Telemetry.Json

type ctx = {
  seed : int;
  seconds : float;  (** measurement budget of the timed phase *)
  trace : bool;
  spans : Perfbench.Spans.t;  (** enabled only for the traced repetition *)
}

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  stamp : (string * J.value) list;
      (** run facts that are not metrics: sample counts, quantiles used,
          recorded-vs-observed check details *)
}

(* Every workload reports every end-to-end metric (untraced runs) and
   every per-layer metric (traced runs). A per-layer count of 0 means the
   layer did no work on that workload. *)
let end_to_end =
  [
    ("wall_s", "s");
    ("throughput_per_s", "1/s");
    ("p50_us", "us");
    ("tail_us", "us");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("trace_overhead_pct", "%");
    ("host.factor", "ratio");
    ("gc.major_collections", "count");
    ("tso.steps", "count");
    ("tso.ns_per_step", "ns");
    ("tso.minor_words_per_step", "words");
    ("tso.fingerprint_ns", "ns");
    ("tso.snapshot_restore_ns", "ns");
    ("core.fence_stall_cycles", "cycles");
    ("core.steal_aborts", "count");
    ("runtime.engine_point_ms_p50", "ms");
    ("runtime.engine_point_ms_max", "ms");
    ("runtime.open_system_ms", "ms");
    ("workloads.dag_build_ms", "ms");
    ("harness.par_efficiency", "ratio");
    ("explore.runs", "count");
    ("explore.sleep_skips", "count");
    ("explore.memo_hits", "count");
    ("explore.us_per_run_stateless", "us");
    ("explore.us_per_run_memo", "us");
    ("explore.instance_builds", "count");
    ("explore.instance_build_us", "us");
    ("explore.minor_words_per_run", "words");
    ("native_deque.push_ns", "ns");
    ("native_deque.pop_ns", "ns");
    ("native_deque.steal_ns", "ns");
    ("pool.spawn_to_run_us_p50", "us");
    ("pool.spawn_to_run_us_p99", "us");
    ("pool.steal_success", "ratio");
    ("pool.parks_per_ktask", "count");
    ("pool.minor_words_per_task", "words");
    ("pool.submit_ns_p99", "ns");
    ("pool.dispatch_us_p50", "us");
    ("pool.dispatch_us_p99", "us");
    ("pool.parks_per_req", "count");
    ("pool.injector_peak", "count");
    ("service.p99_us_lo", "us");
    ("service.p99_us_hi", "us");
    ("telemetry.flight_event_ns", "ns");
    ("telemetry.windowed_record_ns", "ns");
    ("gen.late_us_p99", "us");
  ]

(* The per-layer catalogue with every metric at 0, for a workload to
   overwrite the layers it exercises. *)
let idle_layers () = List.map (fun (name, _) -> (name, 0.0)) per_layer

let set metrics updates =
  List.map
    (fun (name, v) ->
      match List.assoc_opt name updates with Some u -> (name, u) | None -> (name, v))
    metrics

let now_ns = Telemetry.Clock.now_ns
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* Host speed. The small shared virtual machines this benchmark runs on
   switch between a slow and a fast speed for tens of seconds to minutes
   at a time, as other tenants come and go; the simulator and the
   explorer run about 1.9 times as fast in the fast mode. Pointer chasing
   and plain integer loops barely notice the switch, but allocation and
   branchy library code do, by about as much as the workloads. So between
   timed units the benchmark times [cal_load], a fixed load of exactly
   that kind, on as many domains as the units run on, and reports times
   at the reference speed: host seconds divided by the run's host factor,
   its median calibration time over [cal_ref_s]. One factor serves the
   whole run: a mode usually outlasts a run, while one calibration is
   noisy by 10-20 %. The load runs in a child process (this executable
   with --calibrate), so the workload's heap, GC settings and pool cannot
   move it; only the host can. Every calibration time is in the stamp. *)
let cal_ref_s = 0.05

type cell = { key : int; next : cell option }

(* Short-lived allocation with some promotion and write-barrier work. *)
let cal_alloc () =
  let keep = Array.make 4096 None in
  for k = 1 to 400_000 do
    let c = { key = k; next = keep.(k land 4095) } in
    keep.(k land 4095) <- (if k land 15 = 0 then None else Some c)
  done;
  ignore (Sys.opaque_identity keep)

module Int_map = Map.Make (Int)

(* Hashing, a balanced tree, number formatting and a sort. *)
let cal_stdlib () =
  let h = Hashtbl.create 1024 in
  let m = ref Int_map.empty in
  for i = 1 to 60_000 do
    let k = (i * 7919) land 0xffff in
    Hashtbl.replace h k i;
    if i land 3 = 0 then m := Int_map.add k (string_of_int i) !m
  done;
  let l = List.init 20_000 (fun i -> (i * 104729) land 0xfffff) in
  ignore (Sys.opaque_identity (List.sort compare l, Hashtbl.length h, !m))

let cal_load () =
  cal_alloc ();
  cal_stdlib ()

(* Every calibration time of the run, newest first. *)
let cal_samples = ref []

(* [spawn2 f g] runs [f] on a new domain and [g] on this one, at once. *)
let spawn2 f g =
  let d = Domain.spawn f in
  let b = g () in
  (Domain.join d, b)

(* The body of the calibration child. After one untimed [cal_load] that
   warms its heap, it answers each request line "D S" on stdin with [S]
   timings of [cal_load] on [D] (1 or 2) domains, in seconds on one line,
   and exits at the end of its input. With two domains each sample is the
   harmonic mean of the two domains' times: work that two domains share
   finishes at the sum of their speeds, and the two vCPUs need not be in
   the same mode. *)
let calibrate_server () =
  let cal () = snd (timed cal_load) in
  let one domains =
    if domains = 1 then cal ()
    else
      let a, b = spawn2 cal cal in
      2. /. ((1. /. a) +. (1. /. b))
  in
  cal_load ();
  try
    while true do
      Scanf.sscanf (input_line stdin) "%d %d" (fun domains samples ->
          print_endline
            (String.concat " "
               (List.init samples (fun _ -> Printf.sprintf "%.9f" (one domains)))))
    done
  with End_of_file -> ()

(* The calibration child, started on first use (this executable with
   --calibrate) and stopped, and waited for, when the process exits. It
   is idle between requests. *)
let calibration_child =
  lazy
    (let exe = Sys.executable_name in
     let child_in, to_child = Unix.pipe ~cloexec:true () in
     let from_child, child_out = Unix.pipe ~cloexec:true () in
     let pid = Unix.create_process exe [| exe; "--calibrate" |] child_in child_out Unix.stderr in
     Unix.close child_in;
     Unix.close child_out;
     let oc = Unix.out_channel_of_descr to_child and ic = Unix.in_channel_of_descr from_child in
     at_exit (fun () ->
         close_out_noerr oc;
         close_in_noerr ic;
         ignore (Unix.waitpid [] pid));
     (oc, ic))

let calibration_times ~domains ~samples =
  let oc, ic = Lazy.force calibration_child in
  Printf.fprintf oc "%d %d\n%!" domains samples;
  List.map float_of_string (String.split_on_char ' ' (input_line ic))

(* Time [samples] calibrations on [domains] domains. *)
let calibrate ?(samples = 1) ~domains () =
  cal_samples := List.rev_append (calibration_times ~domains ~samples) !cal_samples

(* The run's host factor: its median calibration time over [cal_ref_s];
   above 1 on a host slower than the reference. Reported times are host
   times divided by it. *)
let host_factor () = Perfbench.Quantile.median !cal_samples /. cal_ref_s

let at_ref seconds = seconds /. host_factor ()

(* Every timed unit's host seconds, newest first. *)
let unit_samples = ref []

(* [f ()] timed in host seconds, with a calibration after it, so the
   run's calibrations are spread over its timed units. *)
let timed_unit ?samples ~domains f =
  let r, dt = timed f in
  unit_samples := dt :: !unit_samples;
  calibrate ?samples ~domains ();
  (r, dt)

(* Peak resident set size of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Peak RSS (MB) after the first [min_reps] repetitions (see [repeat]). *)
let reps_rss_mb = ref 0.0

(* Repeat [f] while the budget lasts: a further repetition starts only if
   the previous one's duration still fits, and at least [min_reps] run.
   The peak RSS is read after the first [min_reps] repetitions, so it
   covers the same work however many repetitions fit: over a whole run,
   GC timing on two domains made it wander by up to 20 %. *)
let repeat ~seconds ~min_reps f =
  let t0 = now_ns () in
  let rec go acc k last =
    if k >= min_reps && seconds_since t0 +. last > seconds then List.rev acc
    else begin
      let r, dt = timed f in
      if k + 1 = min_reps then reps_rss_mb := peak_rss_mb ();
      go (r :: acc) (k + 1) dt
    end
  in
  go [] 0 0.0

(* Every set-up time of the run (host seconds), newest first. *)
let setup_samples = ref []

(* Set-up is timed [reps] times, and calibrated once on the workload's
   [domains]. The first quarter of the set-ups run in a cold process and
   take up to three times as long as the rest, so they are not counted;
   the median of the rest, in host seconds, is returned beside the value
   of the last set-up, which the timed phase uses. [discard] tears down
   the set-ups that are not kept (e.g. shuts a pool down). *)
let setup ~reps ~domains ?(discard = ignore) f =
  let rec go k =
    let v, dt = timed f in
    setup_samples := dt :: !setup_samples;
    if k = reps then v
    else begin
      discard v;
      go (k + 1)
    end
  in
  let v = go 1 in
  calibrate ~domains ();
  let warm = List.filteri (fun i _ -> i < reps - (reps / 4)) !setup_samples in
  (v, Perfbench.Quantile.median warm)

(* Correctness checks collect mismatches instead of raising, so one run
   reports every failed check. *)
type checks = { mutable mismatches : string list }

let checks () = { mismatches = [] }

let check c ok fmt =
  Printf.ksprintf
    (fun msg -> if not ok then c.mismatches <- msg :: c.mismatches)
    fmt

let check_stamp c =
  ("mismatches", J.List (List.rev_map (fun m -> J.Str m) c.mismatches))

let us_of_ns ns = float_of_int ns /. 1e3

(* p50 / tail of raw samples (host ns) as end-to-end metrics in us at the
   reference speed, plus the stamp entry naming the tail quantile and the
   sample count. Each repetition is summarised on its own and the medians
   over repetitions are reported, so the quantile used never depends on
   how many repetitions fitted in the budget. *)
let latency_metrics ~what per_rep =
  let module Q = Perfbench.Quantile in
  let sums = List.map Q.summarize per_rep in
  let med f = at_ref (Q.median (List.map (fun s -> us_of_ns (f s)) sums)) in
  let first = List.hd sums in
  ( [ ("p50_us", med (fun s -> s.Q.p50)); ("tail_us", med (fun s -> s.Q.tail)) ],
    ( "latency",
      J.Obj
        [
          ("of", J.Str what);
          ("samples_per_rep", J.Int first.Q.n);
          ("reps", J.Int (List.length sums));
          ("tail_quantile", J.Str (Q.label first.Q.tail_pm));
        ] ) )

(* Seeded Fisher-Yates shuffle (SplitMix64 from the load generator). *)
let shuffle ~seed xs =
  let a = Array.of_list xs in
  let rng = Ws_runtime.Open_load.rng seed in
  for i = Array.length a - 1 downto 1 do
    let j = Ws_runtime.Open_load.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

let overhead_pct ~traced ~untraced = 100. *. (traced -. untraced) /. untraced
