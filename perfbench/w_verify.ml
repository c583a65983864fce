(* Workload `verify`: a closed batch of explorer runs to a verdict, each
   one Tso.Explore.search at 1 domain with source-DPOR and snapshots.

   Half of the batch is stateless (no memo) at preemption bound 2; the
   other half is memoised at bound 3 and includes two seeded bugs that
   must be reported. Explorer run counts are deterministic, so every
   search must reproduce its recorded verdict and exact run count. The
   seed only permutes the order of the searches. *)

open Common
module S = Ws_harness.Scenarios

type job = {
  label : string;
  spec : S.spec;
  pb : int;  (** preemption bound *)
  memo : bool;
  violation : bool;  (** recorded verdict *)
  runs : int;  (** recorded complete runs *)
}

(* `wsrepro explore` defaults: TSO[1], delta 2, 2 preloaded tasks, 1
   steal attempt, 1 client store, fenced baselines fenced. *)
let base queue =
  {
    S.default_spec with
    queue;
    sb_capacity = 1;
    delta = 2;
    preloaded = 2;
    steal_attempts = 1;
    client_stores = 1;
    worker_fence = true;
  }

let stateless label runs =
  { label; spec = base label; pb = 2; memo = false; violation = false; runs }

let memo ?(violation = false) label spec runs =
  { label; spec; pb = 3; memo = true; violation; runs }

let wider spec = { spec with S.preloaded = 3; steal_attempts = 2 }

let jobs =
  [
    stateless "chase-lev" 16420;
    stateless "chase-lev-dyn" 31194;
    stateless "ff-cl" 119104;
    memo "ff-the --tasks 3 --steals 2" (wider (base "ff-the")) 2090;
    memo "thep --tasks 3 --steals 2" (wider (base "thep")) 3745;
    memo "thep-sep" (base "thep-sep") 548;
    memo ~violation:true "the --fence=false --tasks 3 --steals 2"
      (wider { (base "the") with worker_fence = false })
      1162;
    memo ~violation:true "ff-the --sb 2 -d 1 --client-stores 0 --tasks 3"
      { (base "ff-the") with sb_capacity = 2; delta = 1; client_stores = 0; preloaded = 3 }
      218;
  ]

type result = {
  job : job;
  stats : Tso.Explore.stats;
  seconds : float;
  builds : int;
  build_ns : int;
  minor_words : float;
}

(* [traced] wraps the instance builder to count and time every call. *)
let search ~spans ~traced job =
  let builds = ref 0 and build_ns = ref 0 in
  let mk =
    let plain = S.instance job.spec in
    if not traced then plain
    else fun () ->
      let t0 = now_ns () in
      let i = plain () in
      build_ns := !build_ns + (now_ns () - t0);
      incr builds;
      i
  in
  Perfbench.Spans.with_span spans ("explore.search " ^ job.label) (fun id ->
      let w0 = Gc.minor_words () in
      let stats, seconds =
        timed (fun () ->
            Tso.Explore.search ~preemption_bound:(Some job.pb) ~memo:job.memo
              ~dpor:true ~snapshots:true ~mk ())
      in
      Perfbench.Spans.count spans id "runs" stats.Tso.Explore.runs;
      Perfbench.Spans.count spans id "memo_hits" stats.Tso.Explore.memo_hits;
      {
        job;
        stats;
        seconds;
        builds = !builds;
        build_ns = !build_ns;
        minor_words = Gc.minor_words () -. w0;
      })

let check_result c r =
  let found = Tso.Explore.failures_in_replay_order r.stats <> [] in
  check c (found = r.job.violation) "verify: %s verdict %s, recorded %s" r.job.label
    (if found then "VIOLATION" else "safe")
    (if r.job.violation then "VIOLATION" else "safe");
  check c (r.stats.Tso.Explore.runs = r.job.runs) "verify: %s ran %d runs, recorded %d"
    r.job.label r.stats.Tso.Explore.runs r.job.runs

(* Set-up: one fresh instance per scenario, then a small memoised search
   that warms the explorer's code paths and heap before timing. *)
let warm_up () =
  List.iter (fun j -> ignore (Sys.opaque_identity (S.instance j.spec ()))) jobs;
  ignore
    (Tso.Explore.search ~preemption_bound:(Some 3) ~memo:true ~dpor:true
       ~mk:(S.instance (base "ff-the")) ())

let run ctx =
  let c = checks () in
  let untraced = Perfbench.Spans.create ~enabled:false in
  let (), setup_host_s = setup ~reps:21 ~domains:1 warm_up in
  let order = shuffle ~seed:ctx.seed jobs in
  (* Each search starts from a compacted heap, so its memory and GC work
     do not depend on the searches the seed put before it. With
     [calibrated], three calibration samples follow each search: one
     batch takes 8-11 s, so a run holds only two, and single samples
     of the host factor were too few to pin it. *)
  let one ~spans ~traced ~calibrated j =
    Gc.compact ();
    if calibrated then
      fst (timed_unit ~samples:3 ~domains:1 (fun () -> search ~spans ~traced j))
    else search ~spans ~traced j
  in
  let batch ?(spans = untraced) ?(calibrated = false) ~traced () =
    let rs = List.map (one ~spans ~traced ~calibrated) order in
    List.iter (check_result c) rs;
    (rs, List.fold_left (fun acc r -> acc +. r.seconds) 0.0 rs)
  in
  let total_runs rs = List.fold_left (fun acc r -> acc + r.stats.Tso.Explore.runs) 0 rs in
  let stamp_common =
    [ ("order", J.List (List.map (fun j -> J.Str j.label) order)) ]
  in
  if not ctx.trace then begin
    let batches = repeat ~seconds:ctx.seconds ~min_reps:2 (batch ~calibrated:true ~traced:false) in
    let wall_s = at_ref (Perfbench.Quantile.median (List.map snd batches)) in
    let runs = total_runs (fst (List.hd batches)) in
    let lat, lat_stamp =
      latency_metrics ~what:"one search to its verdict"
        (List.map
           (fun (rs, _) ->
             Array.of_list (List.map (fun r -> int_of_float (r.seconds *. 1e9)) rs))
           batches)
    in
    let n = List.length batches * List.length jobs in
    {
      correct = c.mismatches = [];
      attempted = n;
      failed = List.length c.mismatches;
      metrics =
        [ ("wall_s", wall_s); ("throughput_per_s", float_of_int runs /. wall_s) ]
        @ lat
        @ [ ("setup_s", at_ref setup_host_s); ("peak_rss_mb", !reps_rss_mb) ];
      stamp = stamp_common @ [ ("batches", J.Int (List.length batches)); lat_stamp; check_stamp c ];
    }
  end
  else begin
    let _, base_wall = batch ~traced:false () in
    let majors0 = major_collections () in
    let rs, traced_wall = batch ~spans:ctx.spans ~traced:true () in
    let majors = major_collections () - majors0 in
    let sum ?(only = fun _ -> true) f =
      List.fold_left (fun acc r -> if only r then acc +. f r else acc) 0.0 rs
    in
    let stat f r = float_of_int (f r.stats) in
    let runs = sum (stat (fun s -> s.Tso.Explore.runs)) in
    let per_run ~memo =
      let only r = r.job.memo = memo in
      1e6 *. sum ~only (fun r -> r.seconds)
      /. sum ~only (stat (fun s -> s.Tso.Explore.runs))
    in
    let builds = sum (fun r -> float_of_int r.builds) in
    let metrics =
      set (idle_layers ())
        ([
           ("trace_overhead_pct", overhead_pct ~traced:traced_wall ~untraced:base_wall);
           ("gc.major_collections", float_of_int majors);
           ("explore.runs", runs);
           ("explore.sleep_skips", sum (stat (fun s -> s.Tso.Explore.sleep_skips)));
           ("explore.memo_hits", sum (stat (fun s -> s.Tso.Explore.memo_hits)));
           ("explore.us_per_run_stateless", per_run ~memo:false);
           ("explore.us_per_run_memo", per_run ~memo:true);
           ("explore.instance_builds", builds);
           ("explore.instance_build_us", sum (fun r -> float_of_int r.build_ns) /. builds /. 1e3);
           ("explore.minor_words_per_run", sum (fun r -> r.minor_words) /. runs);
         ]
        @ Probes.all ())
    in
    {
      correct = c.mismatches = [];
      attempted = 2 * List.length jobs;
      failed = List.length c.mismatches;
      metrics;
      stamp = stamp_common @ [ check_stamp c ];
    }
  end

let record () =
  let spans = Perfbench.Spans.create ~enabled:false in
  List.iter
    (fun j ->
      let r = search ~spans ~traced:false j in
      Printf.printf "verify %-48s %s runs %d (%.2f s)\n%!" j.label
        (if Tso.Explore.failures_in_replay_order r.stats <> [] then "VIOLATION" else "safe")
        r.stats.Tso.Explore.runs r.seconds)
    jobs
