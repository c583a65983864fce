(* Tests for the Table-1 benchmark DAGs and the §8.2 graph workloads. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

open Ws_workloads

(* ------------------------------------------------------------------ *)
(* Cilk suite                                                          *)
(* ------------------------------------------------------------------ *)

let test_suite_inventory () =
  checki "eleven benchmarks, as in Table 1" 11 (List.length Cilk_suite.all);
  Alcotest.(check (list string))
    "Fig. 1 subset"
    [ "Fib"; "Jacobi"; "QuickSort"; "Matmul"; "Integrate"; "knapsack"; "cholesky" ]
    Cilk_suite.fig1_names;
  List.iter
    (fun n -> ignore (Cilk_suite.find n))
    Cilk_suite.fig1_names

let test_every_bench_builds b () =
  let dag = Cilk_suite.dag b in
  checkb "has tasks" true (Ws_runtime.Dag.size dag > 1);
  checkb "has work" true (Ws_runtime.Dag.total_work dag > 0);
  let t1 = Ws_runtime.Dag.total_work dag in
  let tinf = Ws_runtime.Dag.critical_path dag in
  checkb "critical path <= total work" true (tinf <= t1);
  checkb "exposes parallelism (T1/Tinf > 2)" true
    (float_of_int t1 /. float_of_int tinf > 2.0)

let test_dag_determinism () =
  (* identical DAG across two builds: every variant must schedule the same
     computation *)
  let b = Cilk_suite.find "QuickSort" in
  let d1 = Ws_runtime.Dag.of_comp (b.Cilk_suite.comp ()) in
  let d2 = Ws_runtime.Dag.of_comp (b.Cilk_suite.comp ()) in
  checki "same size" (Ws_runtime.Dag.size d1) (Ws_runtime.Dag.size d2);
  checki "same work" (Ws_runtime.Dag.total_work d1) (Ws_runtime.Dag.total_work d2);
  checki "same critical path" (Ws_runtime.Dag.critical_path d1)
    (Ws_runtime.Dag.critical_path d2)

let test_fib_task_count () =
  (* fib n has fib(n+1) leaves and fib(n+1)-1 internal forks, each fork
     contributing a fork and a join task *)
  let rec fib = function 0 -> 0 | 1 -> 1 | n -> fib (n - 1) + fib (n - 2) in
  let n = 10 in
  let d = Ws_runtime.Dag.of_comp (Cilk_suite.fib n) in
  let leaves = fib (n + 1) in
  checki "task count" (leaves + (2 * (leaves - 1))) (Ws_runtime.Dag.size d)

let test_jacobi_is_iterative () =
  (* one sweep of r rows -> critical path ~ iters * (fork + row + join) *)
  let d = Ws_runtime.Dag.of_comp (Cilk_suite.jacobi ~rows:8 ~iters:4 ~row_work:10) in
  checki "tasks: 4 * (fork + join + 8 rows)" 40 (Ws_runtime.Dag.size d);
  checki "critical path = 4 sweeps" (4 * (6 + 10 + 8)) (Ws_runtime.Dag.critical_path d)

let test_lud_tail_is_narrow () =
  (* the last wavefront has a single diagonal task: LUD's shallow tail *)
  let d = Ws_runtime.Dag.of_comp (Cilk_suite.lud ~blocks:4) in
  checkb "built" true (Ws_runtime.Dag.size d > 10)

(* ------------------------------------------------------------------ *)
(* Graph generators                                                    *)
(* ------------------------------------------------------------------ *)

let test_torus_degrees () =
  let g = Graph.torus ~width:8 ~height:6 in
  checki "nodes" 48 g.Graph.nodes;
  Alcotest.(check (list (pair int int)))
    "every torus node has degree 4"
    [ (4, 48) ]
    (Graph.degree_histogram g);
  checki "directed edges" (48 * 4) (Graph.edges g)

let test_torus_fully_reachable () =
  let g = Graph.torus ~width:5 ~height:5 in
  let r = Graph.reachable_from g 0 in
  checki "torus is connected" 25
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 r)

let test_k_graph_shape () =
  let g = Graph.k_graph ~nodes:1000 ~k:3 ~seed:1 in
  checki "nodes" 1000 g.Graph.nodes;
  let max_deg =
    Array.fold_left (fun a l -> max a (Array.length l)) 0 g.Graph.adj
  in
  checkb "degree bounded by k" true (max_deg <= 3);
  (* matchings can collide, so the average degree is close to but possibly
     below k *)
  let avg = float_of_int (Graph.edges g) /. 1000.0 in
  checkb "average degree near k" true (avg > 2.0 && avg <= 3.0)

let test_random_graph_shape () =
  let g = Graph.random_graph ~nodes:500 ~edges:1500 ~seed:2 in
  checki "nodes" 500 g.Graph.nodes;
  let e = Graph.edges g / 2 in
  checkb "close to requested edge count (dedup may drop a few)" true
    (e > 1400 && e <= 1500)

let test_generators_deterministic () =
  let g1 = Graph.random_graph ~nodes:100 ~edges:300 ~seed:9 in
  let g2 = Graph.random_graph ~nodes:100 ~edges:300 ~seed:9 in
  checkb "same seed, same graph" true (g1.Graph.adj = g2.Graph.adj);
  let g3 = Graph.random_graph ~nodes:100 ~edges:300 ~seed:10 in
  checkb "different seed, different graph" true (g1.Graph.adj <> g3.Graph.adj)

(* degenerate sizes are refused up front: random_graph at 1 node used to
   redraw self-loops forever, and 0 or negative sizes died on an array
   bound *)
let rejects name msg f =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ())))

let generator_errors =
  [
    rejects "random_graph: negative nodes"
      "Graph.random_graph: nodes must be non-negative" (fun () ->
        Graph.random_graph ~nodes:(-5) ~edges:0 ~seed:1);
    rejects "random_graph: negative edges"
      "Graph.random_graph: edges must be non-negative" (fun () ->
        Graph.random_graph ~nodes:10 ~edges:(-1) ~seed:1);
    rejects "random_graph: edges on one node"
      "Graph.random_graph: edges need at least 2 nodes" (fun () ->
        Graph.random_graph ~nodes:1 ~edges:4 ~seed:1);
    rejects "k_graph: odd nodes" "Graph.k_graph: nodes must be even" (fun () ->
        Graph.k_graph ~nodes:7 ~k:2 ~seed:1);
    rejects "k_graph: negative nodes" "Graph.k_graph: nodes must be non-negative"
      (fun () -> Graph.k_graph ~nodes:(-4) ~k:2 ~seed:1);
    rejects "k_graph: negative k" "Graph.k_graph: k must be non-negative"
      (fun () -> Graph.k_graph ~nodes:8 ~k:(-1) ~seed:1);
    rejects "torus: width 0" "Graph.torus: width must be at least 1" (fun () ->
        Graph.torus ~width:0 ~height:4);
    rejects "torus: height 0" "Graph.torus: height must be at least 1" (fun () ->
        Graph.torus ~width:4 ~height:0);
  ]

let test_empty_graphs () =
  checki "no nodes, no edges" 0
    (Array.length (Graph.random_graph ~nodes:0 ~edges:0 ~seed:1).Graph.adj);
  Alcotest.(check (array (array int)))
    "one node, no edges" [| [||] |]
    (Graph.random_graph ~nodes:1 ~edges:0 ~seed:1).Graph.adj

let test_reachability_oracle () =
  (* two disconnected triangles *)
  let g =
    {
      Graph.nodes = 6;
      adj =
        [|
          [| 1; 2 |]; [| 0; 2 |]; [| 0; 1 |]; [| 4; 5 |]; [| 3; 5 |]; [| 3; 4 |];
        |];
    }
  in
  let r = Graph.reachable_from g 0 in
  Alcotest.(check (array bool))
    "only the first triangle"
    [| true; true; true; false; false; false |]
    r

(* ------------------------------------------------------------------ *)
(* Graph oracle                                                        *)
(* ------------------------------------------------------------------ *)

(* The list-and-Set generators that the counting-sort ones replaced, kept
   as the reference: Graph must give exactly their adjacency arrays, seed
   for seed. *)
module Oracle = struct
  let of_edge_list nodes edge_list =
    let deg = Array.make nodes 0 in
    List.iter
      (fun (u, v) ->
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1)
      edge_list;
    let adj = Array.init nodes (fun u -> Array.make deg.(u) 0) in
    let fill = Array.make nodes 0 in
    List.iter
      (fun (u, v) ->
        adj.(u).(fill.(u)) <- v;
        fill.(u) <- fill.(u) + 1;
        adj.(v).(fill.(v)) <- u;
        fill.(v) <- fill.(v) + 1)
      edge_list;
    adj

  let dedup_pairs pairs =
    let module S = Set.Make (struct
      type t = int * int

      let compare = compare
    end) in
    let norm (u, v) = if u < v then (u, v) else (v, u) in
    S.elements
      (List.fold_left
         (fun s (u, v) -> if u = v then s else S.add (norm (u, v)) s)
         S.empty pairs)

  let k_graph ~nodes ~k ~seed =
    let rng = Random.State.make [| seed; nodes; k |] in
    let pairs = ref [] in
    for _ = 1 to k do
      let perm = Array.init nodes Fun.id in
      for i = nodes - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let tmp = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- tmp
      done;
      let i = ref 0 in
      while !i + 1 < nodes do
        pairs := (perm.(!i), perm.(!i + 1)) :: !pairs;
        i := !i + 2
      done
    done;
    of_edge_list nodes (dedup_pairs !pairs)

  let random_graph ~nodes ~edges ~seed =
    let rng = Random.State.make [| seed; nodes; edges |] in
    let pairs = ref [] in
    let made = ref 0 in
    while !made < edges do
      let u = Random.State.int rng nodes and v = Random.State.int rng nodes in
      if u <> v then begin
        pairs := (u, v) :: !pairs;
        incr made
      end
    done;
    of_edge_list nodes (dedup_pairs !pairs)

  let torus ~width ~height =
    let id x y = (((y + height) mod height) * width) + ((x + width) mod width) in
    let pairs = ref [] in
    for y = 0 to height - 1 do
      for x = 0 to width - 1 do
        pairs := (id x y, id (x + 1) y) :: (id x y, id x (y + 1)) :: !pairs
      done
    done;
    of_edge_list (width * height) (dedup_pairs !pairs)
end

type shape =
  | Random_graph of { nodes : int; edges : int; seed : int }
  | K_graph of { nodes : int; k : int; seed : int }
  | Torus of { width : int; height : int }

let shape_gen =
  QCheck.Gen.(
    oneof
      [
        (int_range 2 300 >>= fun nodes ->
         map2
           (fun edges seed -> Random_graph { nodes; edges; seed })
           (int_range 0 (3 * nodes))
           int);
        map3
          (fun half k seed -> K_graph { nodes = 2 * half; k; seed })
          (int_range 0 150) (int_range 0 4) int;
        map2
          (fun width height -> Torus { width; height })
          (int_range 1 30) (int_range 1 30);
      ])

let shape_print = function
  | Random_graph { nodes; edges; seed } ->
      Printf.sprintf "random_graph ~nodes:%d ~edges:%d ~seed:%d" nodes edges seed
  | K_graph { nodes; k; seed } ->
      Printf.sprintf "k_graph ~nodes:%d ~k:%d ~seed:%d" nodes k seed
  | Torus { width; height } ->
      Printf.sprintf "torus ~width:%d ~height:%d" width height

(* every list strictly ascending, in range, loop-free and mirrored *)
let well_formed (g : Graph.t) =
  Array.length g.Graph.adj = g.Graph.nodes
  && Array.for_all Fun.id
       (Array.mapi
          (fun u a ->
            Array.for_all Fun.id
              (Array.mapi
                 (fun i v ->
                   v >= 0 && v < g.Graph.nodes && v <> u
                   && (i = 0 || a.(i - 1) < v)
                   && Array.mem u g.Graph.adj.(v))
                 a))
          g.Graph.adj)

let matches_oracle =
  QCheck.Test.make ~name:"generators = list-and-Set oracle" ~count:300
    (QCheck.make ~print:shape_print shape_gen)
    (fun shape ->
      let g, expect =
        match shape with
        | Random_graph { nodes; edges; seed } ->
            ( Graph.random_graph ~nodes ~edges ~seed,
              Oracle.random_graph ~nodes ~edges ~seed )
        | K_graph { nodes; k; seed } ->
            (Graph.k_graph ~nodes ~k ~seed, Oracle.k_graph ~nodes ~k ~seed)
        | Torus { width; height } ->
            (Graph.torus ~width ~height, Oracle.torus ~width ~height)
      in
      well_formed g && g.Graph.adj = expect)

(* Adjacency.of_endpoints alone, on endpoint arrays no generator makes:
   dense repeats, self-loops and isolated nodes *)
let of_endpoints_matches_oracle =
  QCheck.Test.make ~name:"Adjacency.of_endpoints = Set dedup" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair int (list (pair int int)))
       QCheck.Gen.(
         int_range 1 40 >>= fun nodes ->
         map
           (fun pairs -> (nodes, pairs))
           (small_list (pair (int_bound (nodes - 1)) (int_bound (nodes - 1))))))
    (fun (nodes, pairs) ->
      let us = Array.of_list (List.map fst pairs)
      and vs = Array.of_list (List.map snd pairs) in
      let adj = Adjacency.of_endpoints ~nodes us vs in
      well_formed { Graph.nodes; adj }
      && adj = Oracle.of_edge_list nodes (Oracle.dedup_pairs pairs))

let adj_digest (g : Graph.t) =
  let b = Buffer.create (1 lsl 20) in
  Array.iter
    (fun a ->
      Array.iter
        (fun v ->
          Buffer.add_string b (string_of_int v);
          Buffer.add_char b ' ')
        a;
      Buffer.add_char b '\n')
    g.Graph.adj;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* perfbench's native-forkjoin graph, digests recorded with the
   list-and-Set generator: the benchmark's input cannot move silently *)
let test_forkjoin_graph_pinned () =
  List.iter
    (fun (seed, md5) ->
      let g = Graph.random_graph ~nodes:40_000 ~edges:160_000 ~seed in
      Alcotest.(check string) (Printf.sprintf "seed %d" seed) md5 (adj_digest g))
    [
      (1, "e06dfadc12ae2cbdd01d61cc427d6228");
      (2, "fe306a74782cdbce9589bf7fd602744f");
      (3, "efe695aa1418b19f47121957efece5d9");
      (4, "2ee2359e530fef31e4e922a6a8b610a2");
    ]

(* ------------------------------------------------------------------ *)
(* Graph workloads through the engine                                  *)
(* ------------------------------------------------------------------ *)

let run_workload qname checked =
  let cfg =
    {
      Ws_runtime.Engine.default_config with
      workers = 3;
      queue = Ws_core.Registry.find qname;
      delta = 3;
      sb_capacity = 6;
      seed = 77;
    }
  in
  let r =
    Ws_runtime.Engine.run_timed cfg checked.Graph_workloads.workload
  in
  checkb "quiescent" true (r.Ws_runtime.Engine.outcome = Tso.Sched.Quiescent);
  match checked.Graph_workloads.verify () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_tc_all_queues qname () =
  let g = Graph.random_graph ~nodes:300 ~edges:900 ~seed:3 in
  run_workload qname (Graph_workloads.transitive_closure g ~src:0 ())

let test_tc_disconnected () =
  (* visiting must stop at the component boundary; verify checks both
     directions (reachable => visited, unreachable => untouched) *)
  let g =
    {
      Graph.nodes = 6;
      adj =
        [|
          [| 1; 2 |]; [| 0; 2 |]; [| 0; 1 |]; [| 4; 5 |]; [| 3; 5 |]; [| 3; 4 |];
        |];
    }
  in
  run_workload "chase-lev" (Graph_workloads.transitive_closure g ~src:0 ())

let test_spanning_tree_all_queues qname () =
  let g = Graph.torus ~width:12 ~height:10 in
  run_workload qname (Graph_workloads.spanning_tree g ~src:5 ())

let test_spanning_tree_random_mode () =
  (* adversarial scheduling + idempotent queue: parents must still form a
     valid tree *)
  let g = Graph.torus ~width:6 ~height:6 in
  let checked = Graph_workloads.spanning_tree g ~src:0 () in
  let cfg =
    {
      Ws_runtime.Engine.default_config with
      workers = 2;
      queue = Ws_core.Registry.find "idempotent-fifo";
      sb_capacity = 4;
      seed = 5;
      max_steps = 5_000_000;
    }
  in
  let r =
    Ws_runtime.Engine.run_random ~drain_weight:0.1 cfg
      checked.Graph_workloads.workload
  in
  checkb "quiescent" true (r.Ws_runtime.Engine.outcome = Tso.Sched.Quiescent);
  match checked.Graph_workloads.verify () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* qcheck: TC visits exactly the reachable set on arbitrary random graphs *)
let tc_visits_reachable =
  QCheck.Test.make ~name:"transitive closure = host BFS on random graphs"
    ~count:25
    QCheck.(pair (int_range 10 120) (int_bound 1000))
    (fun (nodes, seed) ->
      let g = Graph.random_graph ~nodes ~edges:(2 * nodes) ~seed in
      let checked = Graph_workloads.transitive_closure g ~src:0 () in
      let cfg =
        {
          Ws_runtime.Engine.default_config with
          workers = 2;
          queue = Ws_core.Registry.find "ff-cl";
          delta = 2;
          sb_capacity = 4;
          seed;
        }
      in
      let r =
        Ws_runtime.Engine.run_timed cfg checked.Graph_workloads.workload
      in
      r.Ws_runtime.Engine.outcome = Tso.Sched.Quiescent
      && checked.Graph_workloads.verify () = Ok ())

let () =
  Alcotest.run "workloads"
    [
      ( "cilk-suite",
        [
          Alcotest.test_case "inventory" `Quick test_suite_inventory;
          Alcotest.test_case "dag determinism" `Quick test_dag_determinism;
          Alcotest.test_case "fib task count" `Quick test_fib_task_count;
          Alcotest.test_case "jacobi iterative shape" `Quick test_jacobi_is_iterative;
          Alcotest.test_case "lud builds" `Quick test_lud_tail_is_narrow;
        ]
        @ List.map
            (fun (b : Cilk_suite.bench) ->
              Alcotest.test_case
                (Printf.sprintf "builds [%s]" b.Cilk_suite.name)
                `Quick (test_every_bench_builds b))
            Cilk_suite.all );
      ( "graph-generators",
        [
          Alcotest.test_case "torus degrees" `Quick test_torus_degrees;
          Alcotest.test_case "torus connected" `Quick test_torus_fully_reachable;
          Alcotest.test_case "k-graph shape" `Quick test_k_graph_shape;
          Alcotest.test_case "random graph shape" `Quick test_random_graph_shape;
          Alcotest.test_case "determinism" `Quick test_generators_deterministic;
          Alcotest.test_case "reachability oracle" `Quick test_reachability_oracle;
          Alcotest.test_case "empty graphs" `Quick test_empty_graphs;
        ]
        @ generator_errors );
      ( "graph-oracle",
        [
          QCheck_alcotest.to_alcotest matches_oracle;
          QCheck_alcotest.to_alcotest of_endpoints_matches_oracle;
          Alcotest.test_case "native-forkjoin graph pinned" `Quick
            test_forkjoin_graph_pinned;
        ] );
      ( "graph-workloads",
        [
          Alcotest.test_case "disconnected boundary" `Quick test_tc_disconnected;
          Alcotest.test_case "spanning tree adversarial + idempotent" `Slow
            test_spanning_tree_random_mode;
          QCheck_alcotest.to_alcotest tc_visits_reachable;
        ]
        @ List.map
            (fun q ->
              Alcotest.test_case
                (Printf.sprintf "transitive closure [%s]" q)
                `Quick (test_tc_all_queues q))
            Ws_core.Registry.names
        @ List.map
            (fun q ->
              Alcotest.test_case
                (Printf.sprintf "spanning tree [%s]" q)
                `Quick (test_spanning_tree_all_queues q))
            Ws_core.Registry.names );
    ]
