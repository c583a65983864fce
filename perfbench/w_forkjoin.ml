(* Workload `native-forkjoin`: a closed batch on a warm native pool,
   Pool.create ~domains:1 plus the calling domain.

   One job is Pool.fib followed by single-source reachability on a seeded
   random graph, where visiting a node CASes each neighbour's flag and
   spawns the winners. Jobs run in batches of [batch] and the pool is
   reused throughout, so the timed phase is owner push/pop and steals on
   real hardware; the injector is never touched. Each job's fib value
   must be exact and its visited set must equal a host BFS. *)

open Common
module P = Ws_native.Pool

let fib_n = 21
let nodes = 40_000
let edges = 4 * nodes
let batch = 10

let rec fib_ref n = if n < 2 then n else fib_ref (n - 1) + fib_ref (n - 2)

type state = {
  pool : P.t;
  graph : Ws_workloads.Graph.t;
  visited : bool Atomic.t array;
  spawned_at : int array;  (** traced jobs: spawn stamp per node *)
  ran_at : int array;
}

let create ~seed () =
  let graph = Ws_workloads.Graph.random_graph ~nodes ~edges ~seed in
  let pool = P.create ~domains:1 () in
  {
    pool;
    graph;
    visited = Array.init nodes (fun _ -> Atomic.make false);
    spawned_at = Array.make nodes 0;
    ran_at = Array.make nodes 0;
  }

let reach st ~traced =
  Array.iter (fun a -> Atomic.set a false) st.visited;
  let rec visit u () =
    if traced then st.ran_at.(u) <- now_ns ();
    Array.iter
      (fun v ->
        if
          (not (Atomic.get st.visited.(v)))
          && Atomic.compare_and_set st.visited.(v) false true
        then begin
          if traced then st.spawned_at.(v) <- now_ns ();
          P.spawn st.pool (visit v)
        end)
      st.graph.Ws_workloads.Graph.adj.(u)
  in
  Atomic.set st.visited.(0) true;
  if traced then st.spawned_at.(0) <- now_ns ();
  P.parallel_run st.pool [ visit 0 ]

type job = { seconds : float; tasks : int; fib : int }

let job st ~traced =
  let before = P.tasks_run st.pool in
  let (fib, ()), seconds =
    timed (fun () ->
        let f = P.fib st.pool fib_n in
        reach st ~traced;
        (f, ()))
  in
  { seconds; tasks = P.tasks_run st.pool - before; fib }

let check_job c st expect j =
  check c (j.fib = fib_ref fib_n) "native-forkjoin: fib %d = %d, expected %d" fib_n j.fib
    (fib_ref fib_n);
  let wrong = ref 0 in
  Array.iteri (fun i e -> if Atomic.get st.visited.(i) <> e then incr wrong) expect;
  check c (!wrong = 0) "native-forkjoin: %d nodes disagree with the host BFS" !wrong

let sum_stats st =
  Array.fold_left
    (fun (a, s, p) (w : P.worker_stats) ->
      (a + w.P.steal_attempts, s + w.P.steals, p + w.P.parks))
    (0, 0, 0) (P.worker_stats st.pool)

let run ctx =
  let c = checks () in
  let st, setup_host_s =
    setup ~reps:9 ~domains:2 ~discard:(fun st -> P.shutdown st.pool) (create ~seed:ctx.seed)
  in
  let expect = Ws_workloads.Graph.reachable_from st.graph 0 in
  let jobs n ~traced =
    List.init n (fun _ ->
        let j = job st ~traced in
        check_job c st expect j;
        j)
  in
  let reachable = Array.fold_left (fun n b -> if b then n + 1 else n) 0 expect in
  let stamp_common =
    [
      ("fib_n", J.Int fib_n);
      ("graph_nodes", J.Int nodes);
      ("graph_edges", J.Int edges);
      ("reachable", J.Int reachable);
    ]
  in
  let outcome =
    if not ctx.trace then begin
      let batches =
        repeat ~seconds:ctx.seconds ~min_reps:1 (fun () ->
            fst (timed_unit ~domains:2 (fun () -> jobs batch ~traced:false)))
      in
      let per_s js = List.fold_left (fun acc j -> acc + j.tasks) 0 js in
      let wall js = List.fold_left (fun acc j -> acc +. j.seconds) 0.0 js in
      let wall_s = at_ref (Perfbench.Quantile.median (List.map wall batches)) in
      let lat, lat_stamp =
        latency_metrics ~what:"one job (fib + reachability)"
          (List.map
             (fun js -> Array.of_list (List.map (fun j -> int_of_float (j.seconds *. 1e9)) js))
             batches)
      in
      let n = List.length batches * batch in
      {
        correct = c.mismatches = [];
        attempted = n;
        failed = List.length c.mismatches;
        metrics =
          [
            ("wall_s", wall_s);
            ( "throughput_per_s",
              Perfbench.Quantile.median
                (List.map (fun js -> float_of_int (per_s js) /. at_ref (wall js)) batches) );
          ]
          @ lat
          @ [ ("setup_s", at_ref setup_host_s); ("peak_rss_mb", !reps_rss_mb) ];
        stamp = stamp_common @ [ ("batches", J.Int (List.length batches)); lat_stamp; check_stamp c ];
      }
    end
    else begin
      let base = jobs batch ~traced:false in
      let a0, s0, p0 = sum_stats st in
      let words0 = (Gc.quick_stat ()).Gc.minor_words in
      let majors0 = major_collections () in
      let spawn_to_run = ref [] in
      let traced =
        Perfbench.Spans.with_span ctx.spans "native.forkjoin_batch" (fun parent ->
            List.init batch (fun _ ->
                let j =
                  Perfbench.Spans.with_span ctx.spans ~parent "native.job" (fun id ->
                      let j = job st ~traced:true in
                      Perfbench.Spans.count ctx.spans id "tasks" j.tasks;
                      j)
                in
                check_job c st expect j;
                let lat =
                  Array.of_list
                    (List.filter_map
                       (fun i ->
                         if Atomic.get st.visited.(i) then
                           Some (st.ran_at.(i) - st.spawned_at.(i))
                         else None)
                       (List.init nodes Fun.id))
                in
                spawn_to_run := lat :: !spawn_to_run;
                j))
      in
      let majors = major_collections () - majors0 in
      let words = (Gc.quick_stat ()).Gc.minor_words -. words0 in
      let a1, s1, p1 = sum_stats st in
      let tasks = float_of_int (List.fold_left (fun acc j -> acc + j.tasks) 0 traced) in
      let wall js = List.fold_left (fun acc j -> acc +. j.seconds) 0.0 js in
      let s2r = Perfbench.Quantile.summarize (Array.concat !spawn_to_run) in
      let metrics =
        set (idle_layers ())
          ([
             ("trace_overhead_pct", overhead_pct ~traced:(wall traced) ~untraced:(wall base));
             ("gc.major_collections", float_of_int majors);
             ("pool.spawn_to_run_us_p50", us_of_ns s2r.p50);
             ("pool.spawn_to_run_us_p99", us_of_ns s2r.tail);
             ("pool.steal_success", float_of_int (s1 - s0) /. float_of_int (max 1 (a1 - a0)));
             ("pool.parks_per_ktask", 1000. *. float_of_int (p1 - p0) /. tasks);
             ("pool.minor_words_per_task", words /. tasks);
           ]
          @ Probes.all ())
      in
      {
        correct = c.mismatches = [];
        attempted = 2 * batch;
        failed = List.length c.mismatches;
        metrics;
        stamp =
          stamp_common
          @ [
              ("spawn_to_run_samples", J.Int s2r.n);
              ("spawn_to_run_tail", J.Str (Perfbench.Quantile.label s2r.tail_pm));
              ("steal_attempts", J.Int (a1 - a0));
              ("steals", J.Int (s1 - s0));
              check_stamp c;
            ];
      }
    end
  in
  P.shutdown st.pool;
  outcome
