(* wsrepro — CLI for the fence-free work stealing reproduction.

   One subcommand per experiment (fig1, fig7, fig8, fig10, fig11, table1,
   all), plus exploratory tools: [litmus] for a single Fig. 9 cell, [check]
   for randomized safety testing of any queue, and [explore] for bounded
   exhaustive model checking. *)

open Cmdliner

(* Converters that reject a bad value while parsing, so it ends in
   cmdliner's usage error (exit 124) rather than an uncaught exception deep
   in a run. *)
let named_conv ~what name all =
  let parse s =
    match List.find_opt (fun x -> String.equal (name x) s) all with
    | Some x -> Ok x
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown %s %S (expected %s)" what s
               (String.concat " | " (List.map name all))))
  in
  Arg.conv (parse, fun ppf x -> Format.pp_print_string ppf (name x))

let machine_conv =
  named_conv ~what:"machine"
    (fun (m : Ws_harness.Machine_config.t) -> m.name)
    Ws_harness.Machine_config.all

let queue_conv = named_conv ~what:"queue" Fun.id Ws_core.Registry.names

let bench_conv =
  named_conv ~what:"benchmark" Fun.id
    (List.map
       (fun (b : Ws_workloads.Cilk_suite.bench) -> b.name)
       Ws_workloads.Cilk_suite.all)

let pos_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok _ ->
        Error
          (`Msg
            (Printf.sprintf "invalid value '%s', expected a positive integer" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Format.pp_print_int)

let machine_arg =
  Arg.(
    value
    & opt machine_conv Ws_harness.Machine_config.haswell
    & info [ "machine"; "m" ] ~docv:"MACHINE"
        ~doc:"Simulated machine: westmere-ex or haswell.")

let repeats_arg =
  Arg.(
    value & opt pos_int 3
    & info [ "repeats"; "r" ] ~docv:"N" ~doc:"Runs per data point (median).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Base RNG seed.")

let queue_arg =
  let doc =
    Printf.sprintf "Queue algorithm: %s."
      (String.concat ", " Ws_core.Registry.names)
  in
  Arg.(value & opt queue_conv "ff-the" & info [ "queue"; "q" ] ~docv:"QUEUE" ~doc)

(* fig1 *)
let fig1_cmd =
  let run machine seed =
    print_endline
      "== Figure 1: single-threaded time without the take() fence ==";
    print_string (Ws_harness.Exp_fig1.render (Ws_harness.Exp_fig1.compute ~machine ~seed ()))
  in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Single-threaded fence-removal speedup (Figure 1)")
    Term.(const run $ machine_arg $ seed_arg)

(* fig7 *)
let fig7_cmd =
  Cmd.v
    (Cmd.info "fig7"
       ~doc:"Store-buffer capacity measurement (Figures 6 and 7)")
    Term.(const Ws_harness.Exp_fig7.run $ const ())

let fig_jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Fan the experiment's run grid across N OCaml domains. Output is \
           byte-identical to $(b,--jobs 1); only wall-clock time changes.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Maintain a live progress line on stderr. Stdout (tables, \
           verdicts) is byte-identical with or without this flag.")

(* fig8 *)
let fig8_cmd =
  let run runs tasks jobs progress =
    Ws_harness.Exp_fig8.run ~runs_per_l:runs ~tasks ~jobs ~progress ()
  in
  let runs =
    Arg.(
      value & opt int 40
      & info [ "runs" ] ~docv:"N" ~doc:"Runs per (L, delta) pair.")
  in
  let tasks =
    Arg.(
      value & opt int 192
      & info [ "tasks" ] ~docv:"N" ~doc:"Queue size of the litmus program.")
  in
  Cmd.v
    (Cmd.info "fig8" ~doc:"TSO[S] litmus campaign (Figures 8 and 9)")
    Term.(const run $ runs $ tasks $ fig_jobs_arg $ progress_arg)

(* fig10 *)
let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a machine-readable wsrepro-metrics/v1 JSON sidecar: per \
           (bench, variant), telemetry counters merged over the seeds plus \
           derived rates (fence-stall cycles per take, steal abort rate, \
           delta-checks per steal attempt).")

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:
          "Record one timed run per variant of the first benchmark as a \
           Chrome trace-event JSON file (load it in Perfetto or \
           chrome://tracing): per-core instruction spans, fence-stall \
           intervals, store-buffer residency of every store.")

let fig10_cmd =
  let run machine repeats jobs benches metrics trace progress =
    let benches = match benches with [] -> None | l -> Some l in
    Ws_harness.Exp_fig10.run machine ~repeats ?benches ~jobs
      ?metrics_file:metrics ?trace_file:trace ~progress ()
  in
  let benches =
    Arg.(
      value & pos_all bench_conv []
      & info [] ~docv:"BENCH" ~doc:"Subset of benchmarks (default: all).")
  in
  Cmd.v
    (Cmd.info "fig10" ~doc:"CilkPlus suite vs fence-free variants (Figure 10)")
    Term.(
      const run $ machine_arg $ repeats_arg $ fig_jobs_arg $ benches
      $ metrics_arg $ trace_json_arg $ progress_arg)

(* fig11 *)
let fig11_cmd =
  let run machine repeats jobs spanning progress =
    if spanning then begin
      (* the paper reports spanning-tree results "are similar"; verify that *)
      print_endline "== Figure 11 workload: spanning tree ==";
      print_string
        (Ws_harness.Exp_fig11.render
           (Ws_harness.Exp_fig11.compute ~machine ~repeats
              ~workload:`Spanning_tree ~jobs ()))
    end
    else Ws_harness.Exp_fig11.run ~machine ~repeats ~jobs ~progress ()
  in
  let spanning =
    Arg.(
      value & flag
      & info [ "spanning-tree" ]
          ~doc:"Run the spanning-tree workload instead of transitive closure.")
  in
  Cmd.v
    (Cmd.info "fig11"
       ~doc:"Graph benchmarks vs idempotent work stealing (Figure 11)")
    Term.(
      const run $ machine_arg $ repeats_arg $ fig_jobs_arg $ spanning
      $ progress_arg)

(* table1 *)
let table1_cmd =
  Cmd.v
    (Cmd.info "table1" ~doc:"Benchmark inventory and DAG statistics (Table 1)")
    Term.(const Ws_harness.Exp_table1.run $ const ())

(* all *)
let all_cmd =
  let run repeats jobs =
    Ws_harness.Exp_table1.run ();
    print_newline ();
    Ws_harness.Exp_fig1.run ();
    print_newline ();
    Ws_harness.Exp_fig7.run ();
    print_newline ();
    Ws_harness.Exp_fig8.run ~jobs ();
    print_newline ();
    List.iter
      (fun m ->
        Ws_harness.Exp_fig10.run m ~repeats ~jobs ();
        print_newline ())
      Ws_harness.Machine_config.primary;
    Ws_harness.Exp_fig11.run ~repeats ~jobs ()
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Every table and figure, in paper order")
    Term.(const run $ repeats_arg $ fig_jobs_arg)

(* scaling *)
let scaling_cmd =
  let run machine bench jobs =
    Ws_harness.Exp_scaling.run ~machine ~bench ~jobs ()
  in
  let bench =
    Arg.(value & opt bench_conv "Fib" & info [ "bench"; "b" ] ~docv:"BENCH" ~doc:"Benchmark.")
  in
  Cmd.v
    (Cmd.info "scaling" ~doc:"Worker-count speedup curves (THE vs THEP)")
    Term.(const run $ machine_arg $ bench $ fig_jobs_arg)

let memo_arg =
  Arg.(
    value & flag
    & info [ "memo" ]
        ~doc:
          "Memoize visited machine states, pruning interleavings that \
           converge to an already-explored state.")

let por_arg =
  Arg.(
    value & flag
    & info [ "por" ]
        ~doc:
          "Sleep-set partial-order reduction: skip interleavings that only \
           commute independent transitions of already-explored ones. \
           Verdicts and replayable failure prefixes are unchanged; the run \
           count typically drops by 5-100x.")

let dpor_arg =
  Arg.(
    value & flag
    & info [ "dpor" ]
        ~doc:
          "Source-DPOR (implies $(b,--por)): on top of sleep sets, track \
           races between executed transitions via their memory footprints \
           and backtrack only into interleavings that reverse an observed \
           race, instead of enumerating every non-sleeping sibling. \
           Verdicts and failure sets are unchanged; the run count and \
           (especially) the sleep-set skip work drop further.")

let memo_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "memo-file" ] ~docv:"PATH"
        ~doc:
          "Persistent visited-state store (implies $(b,--memo)): a \
           directory of fingerprint-sharded append-only entry files plus a \
           header pinning the scenario, bounds and reduction flags. A \
           missing PATH starts cold and is created on a completed search; \
           a PATH whose header does not match this run's configuration is \
           rejected. Warm reruns prune at every stored state and report \
           the stored failure set.")

let snapshots_arg =
  Arg.(
    value & opt bool true
    & info [ "snapshots" ] ~docv:"BOOL"
        ~doc:
          "Reach sibling branches by restoring machine snapshots instead of \
           replaying the schedule prefix from the root. Results are \
           byte-identical either way; $(b,--snapshots=false) is the replay \
           oracle the snapshot path is differentially tested against.")

(* classic x86-TSO litmus suite *)
let tso_litmus_cmd =
  let run memo por dpor memo_file snapshots =
    print_endline
      "== Classic x86-TSO litmus tests against the abstract machine ==";
    let memo = memo || memo_file <> None in
    let results =
      try
        Ws_litmus.Classic.run_all ~memo ~por ~dpor ?memo_dir:memo_file
          ~snapshots ()
      with Failure e ->
        (* keep stdout (the banner, any completed rows) ahead of the error
           even when both land in one pipe *)
        flush stdout;
        prerr_endline e;
        exit 2
    in
    List.iter (fun r -> Format.printf "%a@." Ws_litmus.Classic.pp_result r) results;
    (match memo_file with
    | Some dir ->
        let lookups, hits =
          List.fold_left
            (fun (l, h) (r : Ws_litmus.Classic.result) ->
              (l + r.memo_lookups, h + r.memo_hits))
            (0, 0) results
        in
        Printf.printf "memo store %s: %d lookups, %d hits (hit rate %.3f)\n"
          dir lookups hits
          (if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups)
    | None -> ());
    if List.exists (fun r -> not r.Ws_litmus.Classic.ok) results then exit 1
  in
  let memo_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "memo-file" ] ~docv:"PATH"
          ~doc:
            "Persistent visited-state store directory (implies \
             $(b,--memo)); each litmus test keeps its own store under \
             PATH, pinned to the test and this run's reduction flags. A \
             warm rerun prunes at every stored state; a mismatched or \
             corrupt store is rejected.")
  in
  Cmd.v
    (Cmd.info "tso-litmus"
       ~doc:"Validate the machine against the classic x86-TSO litmus tests")
    Term.(
      const run $ memo_arg $ por_arg $ dpor_arg $ memo_file $ snapshots_arg)

(* ablation *)
let ablation_cmd =
  let run machine jobs = Ws_harness.Exp_ablation.run ~machine ~jobs () in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Design-choice ablations: delta sweep, fence-cost sweep, THEP heartbeat placement")
    Term.(const run $ machine_arg $ fig_jobs_arg)

(* litmus: one cell of Fig. 8 *)
let litmus_cmd =
  let run l delta sb coalesce runs tasks seed =
    let bad = ref 0 in
    for r = 1 to runs do
      let o =
        Ws_litmus.Litmus_program.run ~tasks ~sb_capacity:sb ~coalesce ~l ~delta
          ~drain_weight:0.02 ~seed:(seed + r) ()
      in
      if not (Ws_litmus.Litmus_program.correct o) then incr bad
    done;
    Printf.printf
      "L=%d delta=%d sb=%d(+B) coalesce=%b: %d incorrect out of %d runs\n" l
      delta sb coalesce !bad runs;
    if !bad > 0 then exit 1
  in
  let l = Arg.(value & opt int 1 & info [ "l" ] ~docv:"L" ~doc:"Client stores between takes.") in
  let delta = Arg.(value & opt pos_int 4 & info [ "delta"; "d" ] ~docv:"D" ~doc:"Thief's delta.") in
  let sb = Arg.(value & opt pos_int 32 & info [ "sb" ] ~docv:"S" ~doc:"Store buffer entries.") in
  let coalesce = Arg.(value & flag & info [ "coalesce" ] ~doc:"Enable same-address coalescing in B.") in
  let runs = Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N" ~doc:"Number of runs.") in
  let tasks = Arg.(value & opt int 256 & info [ "tasks" ] ~docv:"N" ~doc:"Initial queue size.") in
  Cmd.v
    (Cmd.info "litmus" ~doc:"Run one (L, delta) cell of the Fig. 9 litmus test")
    Term.(const run $ l $ delta $ sb $ coalesce $ runs $ tasks $ seed_arg)

(* check: randomized safety testing through the runtime *)
let check_cmd =
  let run qname workers seeds sb delta =
    let cfg =
      {
        Ws_runtime.Engine.default_config with
        workers;
        queue = Ws_core.Registry.find qname;
        sb_capacity = sb;
        delta;
      }
    in
    let failures = ref 0 in
    let totals = Ws_runtime.Metrics.create workers in
    for seed = 1 to seeds do
      let wl =
        Ws_runtime.Workload.uniform ~name:"check" ~tasks:64 ~work:10 ()
      in
      let r = Ws_runtime.Engine.run_random { cfg with seed } wl in
      Ws_runtime.Metrics.merge ~into:totals r.Ws_runtime.Engine.metrics;
      let (module Q : Ws_core.Queue_intf.S) = Ws_core.Registry.find qname in
      let bad =
        r.Ws_runtime.Engine.outcome <> Tso.Sched.Quiescent
        || r.lost > 0
        || (r.duplicates > 0 && not Q.may_duplicate)
      in
      if bad then begin
        incr failures;
        Printf.printf "seed %d: outcome=%s lost=%d duplicates=%d\n" seed
          (match r.outcome with
          | Tso.Sched.Quiescent -> "quiescent"
          | Tso.Sched.Max_steps -> "max-steps"
          | Tso.Sched.Deadlock -> "deadlock")
          r.lost r.duplicates
      end
    done;
    Printf.printf "%s: %d failures in %d adversarial random runs\n" qname
      !failures seeds;
    Format.printf "aggregate: %a@." Ws_runtime.Metrics.pp totals;
    if !failures > 0 then exit 1
  in
  let workers = Arg.(value & opt int 3 & info [ "workers"; "w" ] ~docv:"N" ~doc:"Workers.") in
  let seeds = Arg.(value & opt int 50 & info [ "seeds" ] ~docv:"N" ~doc:"Random schedules to try.") in
  let sb = Arg.(value & opt pos_int 4 & info [ "sb" ] ~docv:"S" ~doc:"Store buffer entries.") in
  let delta = Arg.(value & opt pos_int 3 & info [ "delta"; "d" ] ~docv:"D" ~doc:"Delta for fence-free queues.") in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Randomized safety check of a queue under the runtime")
    Term.(const run $ queue_arg $ workers $ seeds $ sb $ delta)

(* delta: the §4 static analysis on the runtime's worker loop *)
let delta_cmd =
  let run machine client_stores =
    let g = Ws_core.Delta_analysis.worker_loop_cfg ~client_stores in
    let bound = machine.Ws_harness.Machine_config.reorder_bound in
    let x =
      Option.value ~default:0 (Ws_core.Delta_analysis.min_stores_between_takes g)
    in
    Printf.printf
      "machine %s: reorder bound S = %d\n\
       worker-loop CFG: min stores between takes x = %d\n\
       sound delta = ceil(S/(x+1)) = %d\n"
      machine.Ws_harness.Machine_config.name bound x
      (Ws_core.Delta_analysis.delta g ~bound)
  in
  let client_stores =
    Arg.(
      value & opt int 1
      & info [ "client-stores"; "x" ] ~docv:"N"
          ~doc:"Stores the client performs after each take.")
  in
  Cmd.v
    (Cmd.info "delta"
       ~doc:"Derive a sound delta from the worker loop's CFG (the §4 analysis)")
    Term.(const run $ machine_arg $ client_stores)

(* trace: watch one random schedule of a queue scenario *)
let trace_cmd =
  let run qname sb delta preloaded steals seed last =
    let spec =
      {
        Ws_harness.Scenarios.default_spec with
        queue = qname;
        sb_capacity = sb;
        delta;
        preloaded;
        steal_attempts = steals;
      }
    in
    let inst = Ws_harness.Scenarios.instance spec () in
    let trace = Tso.Trace.attach inst.Tso.Explore.machine in
    let rng = Random.State.make [| seed |] in
    (match
       Tso.Sched.run ~max_steps:100_000 inst.Tso.Explore.machine
         (Tso.Sched.weighted rng ~drain_weight:0.15)
     with
    | Tso.Sched.Quiescent -> ()
    | Tso.Sched.Max_steps -> print_endline "(truncated at 100k steps)"
    | Tso.Sched.Deadlock -> print_endline "DEADLOCK");
    print_string (Tso.Trace.render ?last trace);
    match inst.Tso.Explore.check () with
    | Ok () -> print_endline "run satisfied the safety check"
    | Error e ->
        Printf.printf "SAFETY VIOLATION: %s\n" e;
        exit 1
  in
  let sb = Arg.(value & opt pos_int 3 & info [ "sb" ] ~docv:"S" ~doc:"Store buffer entries.") in
  let delta = Arg.(value & opt pos_int 2 & info [ "delta"; "d" ] ~docv:"D" ~doc:"Delta.") in
  let preloaded = Arg.(value & opt int 3 & info [ "tasks" ] ~docv:"N" ~doc:"Preloaded tasks.") in
  let steals = Arg.(value & opt int 2 & info [ "steals" ] ~docv:"N" ~doc:"Thief attempts.") in
  let last =
    Arg.(value & opt (some int) None & info [ "last" ] ~docv:"N" ~doc:"Show only the last N events.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print the interleaving of one adversarial run of a queue scenario")
    Term.(const run $ queue_arg $ sb $ delta $ preloaded $ steals $ seed_arg $ last)

(* explore: bounded exhaustive model checking *)
let explore_cmd =
  let run qname sb delta preloaded steals client_stores max_runs pb fence memo
      por dpor memo_file metrics snapshots progress forensics trace_failure =
    let spec =
      {
        Ws_harness.Scenarios.default_spec with
        queue = qname;
        sb_capacity = sb;
        delta;
        preloaded;
        steal_attempts = steals;
        client_stores;
        worker_fence = fence;
      }
    in
    let memo = memo || memo_file <> None in
    let memo_store =
      match memo_file with
      | None -> None
      | Some path -> (
          (* the header pins everything that shapes the reduced tree: the
             scenario itself plus bounds and reduction flags *)
          let config =
            "explore "
            ^ Telemetry.Json.to_string ~indent:false
                (Telemetry.Json.Obj (Ws_harness.Scenarios.spec_json spec))
          in
          match
            Tso.Memo_store.open_ ~path ~config
              ~max_depth:Tso.Explore.default_max_depth
              ~preemption_bound:(Some pb) ~por ~dpor ()
          with
          | Ok store -> Some store
          | Error e ->
              (* the store's own diagnostics already carry the path *)
              Printf.eprintf "memo store: %s\n" e;
              exit 2)
    in
    let st, clean =
      Ws_harness.Scenarios.explore_check spec ~max_runs
        ~preemption_bound:(Some pb) ~memo ~por ~dpor ?memo_store ~snapshots
        ~progress ()
    in
    Printf.printf
      "%s: %d complete runs, %d truncated, %d deadlocks, %d pruned branches%s%s%s, \
       peak depth %d\n"
      qname st.Tso.Explore.runs st.truncated st.deadlocks st.pruned
      (if memo then
         Printf.sprintf ", %d memo hits (%.1f%% hit rate)" st.memo_hits
           (100.0 *. Tso.Explore.memo_hit_rate st)
       else "")
      (if por || dpor then
         Printf.sprintf ", %d sleep-set skips" st.sleep_skips
       else "")
      (match memo_store with
      | Some store ->
          Printf.sprintf ", memo store %d/%d warm hits"
            (Tso.Memo_store.hits store)
            (Tso.Memo_store.lookups store)
      | None -> "")
      st.Tso.Explore.peak_depth;
    Option.iter
      (fun file ->
        let module J = Telemetry.Json in
        let doc =
          J.Obj
            [
              ("schema", J.Str "wsrepro-explore/v2");
              ("scenario", J.Obj (Ws_harness.Scenarios.spec_json spec));
              ( "bounds",
                J.Obj
                  [
                    ("max_runs", J.Int max_runs);
                    ("preemption_bound", J.Int pb);
                    ("memo", J.Bool memo);
                    ("por", J.Bool (por || dpor));
                    ("dpor", J.Bool dpor);
                    ("snapshots", J.Bool snapshots);
                  ] );
              ( "stats",
                J.Obj
                  [
                    ("runs", J.Int st.Tso.Explore.runs);
                    ("truncated", J.Int st.truncated);
                    ("deadlocks", J.Int st.deadlocks);
                    ("pruned", J.Int st.pruned);
                    ("memo_hits", J.Int st.memo_hits);
                    ("sleep_skips", J.Int st.sleep_skips);
                    ("peak_depth", J.Int st.peak_depth);
                    ("failures", J.Int (List.length st.failures));
                    ("complete", J.Bool st.complete);
                  ] );
              ( "memo_store",
                match memo_store with
                | None -> J.Null
                | Some store ->
                    let lookups = Tso.Memo_store.lookups store in
                    let hits = Tso.Memo_store.hits store in
                    J.Obj
                      [
                        ("loaded_entries",
                         J.Int (Tso.Memo_store.loaded_entries store));
                        ("pending_entries",
                         J.Int (Tso.Memo_store.pending_entries store));
                        ("lookups", J.Int lookups);
                        ("hits", J.Int hits);
                        ( "hit_rate",
                          J.Float
                            (if lookups = 0 then 0.0
                             else float_of_int hits /. float_of_int lookups) );
                      ] );
            ]
        in
        J.write_file file doc;
        Printf.printf "metrics: %s\n" file)
      metrics;
    match Tso.Explore.failures_in_replay_order st with
    | [] when clean -> print_endline "no safety violation found"
    | [] ->
        let why =
          (if st.complete then []
           else [ Printf.sprintf "the run budget of %d runs stopped it" max_runs ])
          @
          if st.truncated = 0 then []
          else
            [
              Printf.sprintf "%d runs were cut at the depth bound (%d)"
                st.truncated Tso.Explore.default_max_depth;
            ]
        in
        Printf.printf
          "search not exhaustive: %s; no violation in the runs checked\n"
          (String.concat " and " why);
        exit 3
    | (choices, msg) :: _ ->
        Printf.printf "VIOLATION: %s\nreplayable choice prefix: [%s]\n" msg
          (String.concat "; " (List.map string_of_int choices));
        (if forensics <> None || trace_failure then begin
           match
             Ws_harness.Runner.forensics_report spec ~progress ~choices
               ~message:msg ()
           with
           | Error e -> Printf.printf "forensics failed: %s\n" e
           | Ok report ->
               print_newline ();
               print_string (Forensics.Report.summary report);
               if trace_failure then begin
                 print_endline "minimized interleaving:";
                 print_string report.Forensics.Report.replay.Forensics.Witness.timeline
               end;
               Option.iter
                 (fun file ->
                   Forensics.Report.write report file;
                   Printf.printf "forensics report: %s\n" file)
                 forensics
         end
         else begin
           (* no forensics requested: show the raw failing interleaving *)
           let inst = Ws_harness.Scenarios.instance spec () in
           let trace = Tso.Trace.attach inst.Tso.Explore.machine in
           List.iter
             (fun i ->
               match Tso.Explore.next_choices inst.Tso.Explore.machine with
               | [] -> ()
               | ts ->
                   ignore
                     (Tso.Machine.apply inst.Tso.Explore.machine (List.nth ts i)))
             choices;
           print_newline ();
           print_endline "interleaving:";
           print_string (Tso.Trace.render trace)
         end);
        exit 1
  in
  let sb = Arg.(value & opt pos_int 1 & info [ "sb" ] ~docv:"S" ~doc:"Store buffer entries.") in
  let delta = Arg.(value & opt pos_int 2 & info [ "delta"; "d" ] ~docv:"D" ~doc:"Delta.") in
  let preloaded = Arg.(value & opt int 2 & info [ "tasks" ] ~docv:"N" ~doc:"Preloaded tasks.") in
  let steals = Arg.(value & opt int 1 & info [ "steals" ] ~docv:"N" ~doc:"Thief attempts.") in
  let client_stores =
    Arg.(
      value & opt int 1
      & info [ "client-stores" ] ~docv:"N"
          ~doc:
            "Client stores the worker issues after each take. Fewer stores \
             between takes raise the delta a given buffer capacity needs \
             (delta = ceil(S / (stores + 1))).")
  in
  let max_runs = Arg.(value & opt int 200_000 & info [ "max-runs" ] ~docv:"N" ~doc:"Run budget.") in
  let pb = Arg.(value & opt int 3 & info [ "preemptions" ] ~docv:"N" ~doc:"CHESS preemption bound.") in
  let fence =
    Arg.(
      value & opt bool true
      & info [ "fence" ] ~docv:"BOOL"
          ~doc:"Worker fence for the fenced baselines (set false to watch the checker catch the bug).")
  in
  let forensics_arg =
    Arg.(
      value
      & opt ~vopt:(Some "forensics.json") (some string) None
      & info [ "forensics" ] ~docv:"FILE"
          ~doc:
            "On a violation, minimize the failing schedule (ddmin), extract \
             reorder witnesses, and write a $(b,wsrepro-forensics/v1) JSON \
             report to FILE (default $(b,forensics.json)).")
  in
  let trace_failure_arg =
    Arg.(
      value & flag
      & info [ "trace-failure" ]
          ~doc:
            "On a violation, print the minimized failing interleaving \
             (implies the forensics pass; combine with $(b,--forensics) to \
             also save the report).")
  in
  let explore_metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write a machine-readable $(b,wsrepro-explore/v2) JSON sidecar: \
             the scenario and bounds, the explorer statistics (with \
             $(b,complete), false when the run budget stopped the search) \
             and the persistent memo-store counters when $(b,--memo-file) \
             is set.")
  in
  let exits =
    Cmd.Exit.info 0
      ~doc:"the search was exhaustive within its bounds and found no violation."
    :: Cmd.Exit.info 1 ~doc:"the search found a safety violation."
    :: Cmd.Exit.info 2 ~doc:"the $(b,--memo-file) store could not be used."
    :: Cmd.Exit.info 3
         ~doc:
           "no violation was found, but the search was not exhaustive: the \
            run budget ($(b,--max-runs)) stopped it, or some runs were cut \
            at the depth bound."
    :: List.filter
         (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.ok)
         Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "explore" ~exits
       ~doc:"Bounded exhaustive model checking of a queue")
    Term.(
      const run $ queue_arg $ sb $ delta $ preloaded $ steals $ client_stores
      $ max_runs $ pb $ fence $ memo_arg $ por_arg $ dpor_arg $ memo_file_arg
      $ explore_metrics $ snapshots_arg $ progress_arg $ forensics_arg
      $ trace_failure_arg)

(* native: the pool on real silicon — sim-vs-native parity or a scenario replay *)
let backend_conv =
  Arg.enum
    [
      ("cl", Ws_native.Pool.Chase_lev_deques);
      ("the", Ws_native.Pool.The_deques);
    ]

let policy_conv =
  Arg.enum
    [
      ("random", Ws_native.Pool.Random_victim);
      ("round-robin", Ws_native.Pool.Round_robin_victim);
    ]

(* Load a wsrepro-scenario/v1 file, with --seed (when given) overriding
   the scenario's own seed — the one knob that threads through every
   arrival and service draw, sim and native alike. *)
let load_scenario_or_die file seed_override =
  match Ws_harness.Scenarios.load_open_spec file with
  | Error e ->
      Printf.eprintf "%s\n" e;
      exit 1
  | Ok spec -> (
      match seed_override with
      | Some s -> { spec with Ws_harness.Scenarios.sc_seed = s }
      | None -> spec)

let seed_override_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "RNG seed; with $(b,--scenario) it overrides the scenario \
           file's seed (one seed drives every arrival and service draw, \
           sim and native).")

let native_cmd =
  let run machine domains backend policy steal_half smoke fib_n graph_nodes
      serve_metrics flight scenario seed_opt =
    match scenario with
    | Some file ->
        let spec = load_scenario_or_die file seed_opt in
        (* exit nonzero when the replay violated the scenario's SLO *)
        if not (Ws_harness.Exp_native.replay ?serve_metrics spec) then exit 1
    | None ->
        if serve_metrics <> None then begin
          prerr_endline
            "wsrepro native: --serve-metrics scrapes the scenario replay's \
             pool; it needs --scenario FILE";
          exit 2
        end;
        if graph_nodes < 2 then begin
          Printf.eprintf
            "wsrepro native: --graph-nodes must be at least 2 (got %d)\n"
            graph_nodes;
          exit 2
        end;
        (* smoke shrinks every knob so CI finishes in seconds *)
        let pick full small = if smoke then small else full in
        Ws_harness.Exp_native.run ~machine ?domains ~backend ~policy
          ~steal_half
          ~fib_n:(pick fib_n (min fib_n 16))
          ~graph_nodes:(pick graph_nodes (min graph_nodes 400))
          ?flight_file:flight
          ~seed:(Option.value seed_opt ~default:1)
          ()
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains (default: recommended_domain_count - 1).")
  in
  let backend =
    Arg.(
      value
      & opt backend_conv Ws_native.Pool.Chase_lev_deques
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:"Deque backend: $(b,cl) (Chase-Lev) or $(b,the) (THE).")
  in
  let policy =
    Arg.(
      value
      & opt policy_conv Ws_native.Pool.Random_victim
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Victim selection: $(b,random) or $(b,round-robin).")
  in
  let steal_half =
    Arg.(
      value & flag
      & info [ "steal-half" ]
          ~doc:
            "Thieves take up to half the victim's queue per steal (requires \
             $(b,--backend the)).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Shrink all sizes for a seconds-long CI smoke run.")
  in
  let fib_n =
    Arg.(value & opt int 24 & info [ "fib" ] ~docv:"N" ~doc:"Fib input.")
  in
  let graph_nodes =
    Arg.(
      value & opt int 2000
      & info [ "graph-nodes" ] ~docv:"N"
          ~doc:"Graph nodes, at least 2 (edges default to 4x).")
  in
  let serve_metrics =
    Arg.(
      value
      & opt (some int) None
      & info [ "serve-metrics" ] ~docv:"PORT"
          ~doc:
            "With $(b,--scenario): serve live OpenMetrics scrapes of the \
             replay's pool on http://127.0.0.1:PORT/metrics for the \
             duration of the replay (0 picks a free port; the endpoint is \
             printed to stderr).")
  in
  let flight =
    Arg.(
      value
      & opt ~vopt:(Some "flight.json") (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Run the steal-forcing flight-recorder probe and write its \
             wsrepro-flight/v1 report to $(docv) (default flight.json), \
             plus a Chrome trace alongside.")
  in
  let scenario =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"FILE"
          ~doc:
            "Replay a wsrepro-scenario/v1 JSON file on the native pool \
             (replaces the parity section): same pre-drawn arrival gaps and \
             service demands the simulator replays, ticks mapped to wall \
             time via the scenario's tick_ns.")
  in
  Cmd.v
    (Cmd.info "native"
       ~doc:
         "Run the fib/graph workloads on the native OCaml 5 work-stealing \
          pool and cross-check against the simulator, or replay an \
          open-system scenario on it with sojourn-latency percentiles")
    Term.(
      const run $ machine_arg $ domains $ backend $ policy $ steal_half
      $ smoke $ fib_n $ graph_nodes $ serve_metrics $ flight $ scenario
      $ seed_override_arg)

(* top: a scenario replay under a live per-slot dashboard *)
let top_cmd =
  let run file serve_metrics interval seed_opt =
    Ws_harness.Exp_native.top ?serve_metrics ~interval
      (load_scenario_or_die file seed_opt)
  in
  let scenario =
    Arg.(
      required
      & opt (some string) None
      & info [ "scenario" ] ~docv:"FILE"
          ~doc:"wsrepro-scenario/v1 JSON file to replay on the native pool.")
  in
  let serve_metrics =
    Arg.(
      value
      & opt (some int) None
      & info [ "serve-metrics" ] ~docv:"PORT"
          ~doc:
            "Also serve OpenMetrics scrapes on \
             http://127.0.0.1:PORT/metrics while the dashboard runs.")
  in
  let interval =
    Arg.(
      value & opt float 0.25
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Dashboard refresh interval.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Replay a scenario on the native pool under a live, refreshing \
          per-slot dashboard (tasks run/stolen/injected, steal attempts \
          and aborts, parks, queue gauges, stage latencies) drawn on \
          stderr; stdout gets the final summary only")
    Term.(
      const run $ scenario $ serve_metrics $ interval $ seed_override_arg)

(* scenario: the heavy-traffic overload sweep over a scenario file *)
let scenario_cmd =
  let run file native jobs out seed_opt =
    let spec = load_scenario_or_die file seed_opt in
    if not (Ws_harness.Exp_overload.section ~native ~jobs ?out spec ()) then
      exit 1
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"wsrepro-scenario/v1 JSON file.")
  in
  let native =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Also replay each overload point on the native pool (one \
             point at a time) and add its tail latencies to the table.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Write the wsrepro-overload/v1 report (scenario, per-point \
             sim/native tails, merged queue counters) to $(docv).")
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Run a scenario's heavy-traffic overload sweep (1x/2x/4x offered \
          load) on the timing model — and natively with $(b,--native) — \
          reporting p50/p99/p999 sojourn, drops and peak queue depth per \
          point")
    Term.(
      const run $ file $ native $ fig_jobs_arg $ out $ seed_override_arg)

(* json-check: validate telemetry sidecars and traces without external tools *)
let json_check_cmd =
  let run file =
    match Telemetry.Json.parse_file file with
    | Ok j ->
        (* forensics reports get the full structural check, not just parsing *)
        (match Telemetry.Json.member "schema" j with
        | Some (Telemetry.Json.Str "wsrepro-forensics/v1") -> (
            match Forensics.Report.validate j with
            | Ok () -> ()
            | Error e ->
                Printf.printf "%s: INVALID: %s\n" file e;
                exit 1)
        | Some (Telemetry.Json.Str "wsrepro-flight/v1") -> (
            match Telemetry.Flight_recorder.validate j with
            | Ok () -> ()
            | Error e ->
                Printf.printf "%s: INVALID: %s\n" file e;
                exit 1)
        | Some (Telemetry.Json.Str "wsrepro-scenario/v1") -> (
            match Ws_harness.Scenarios.open_spec_of_json j with
            | Ok _ -> ()
            | Error e ->
                Printf.printf "%s: INVALID: %s\n" file e;
                exit 1)
        | Some (Telemetry.Json.Str "wsrepro-overload/v1") -> (
            match Ws_harness.Exp_overload.validate j with
            | Ok () -> ()
            | Error e ->
                Printf.printf "%s: INVALID: %s\n" file e;
                exit 1)
        | _ -> ());
        let schema =
          match Telemetry.Json.member "schema" j with
          | Some (Telemetry.Json.Str s) -> Printf.sprintf " (schema %s)" s
          | _ -> ""
        in
        Printf.printf "%s: valid JSON%s\n" file schema
    | Error e ->
        Printf.printf "%s: INVALID: %s\n" file e;
        exit 1
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSON file to validate.")
  in
  Cmd.v
    (Cmd.info "json-check"
       ~doc:
         "Parse a JSON file (e.g. a $(b,--metrics) sidecar or \
          $(b,--trace-json) trace) with the in-tree strict parser; exit 1 \
          if it is malformed")
    Term.(const run $ file)

let main =
  Cmd.group
    (Cmd.info "wsrepro" ~version:"1.0.0"
       ~doc:
         "Reproduction of 'Fence-Free Work Stealing on Bounded TSO \
          Processors' (ASPLOS 2014) on a simulated bounded-TSO machine")
    [
      fig1_cmd; fig7_cmd; fig8_cmd; fig10_cmd; fig11_cmd; table1_cmd; all_cmd;
      ablation_cmd; scaling_cmd; litmus_cmd; tso_litmus_cmd; check_cmd;
      explore_cmd; trace_cmd; delta_cmd; native_cmd; top_cmd; scenario_cmd;
      json_check_cmd;
    ]

let () = exit (Cmd.eval main)
