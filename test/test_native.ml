(* Tests for the native (real OCaml 5 Atomic/Domain) deques and the
   work-stealing pool. Sequential semantics plus multi-domain stress with
   conservation checking. *)

let checki = Alcotest.check Alcotest.int

open Ws_native

(* ------------------------------------------------------------------ *)
(* Chase-Lev, sequential                                               *)
(* ------------------------------------------------------------------ *)

let test_cl_lifo_pop () =
  let q = Chase_lev.create () in
  List.iter (Chase_lev.push q) [ 1; 2; 3 ];
  let a = Chase_lev.pop q in
  let b = Chase_lev.pop q in
  let c = Chase_lev.pop q in
  let d = Chase_lev.pop q in
  Alcotest.(check (list (option int)))
    "pop LIFO"
    [ Some 3; Some 2; Some 1; None ]
    [ a; b; c; d ]

let test_cl_fifo_steal () =
  let q = Chase_lev.create () in
  List.iter (Chase_lev.push q) [ 1; 2; 3 ];
  let a = Chase_lev.steal q in
  let b = Chase_lev.steal q in
  let c = Chase_lev.steal q in
  let d = Chase_lev.steal q in
  Alcotest.(check (list (option int)))
    "steal FIFO"
    [ Some 1; Some 2; Some 3; None ]
    [ a; b; c; d ]

let test_cl_mixed_ends () =
  let q = Chase_lev.create () in
  List.iter (Chase_lev.push q) [ 1; 2; 3; 4 ];
  Alcotest.(check (option int)) "steal head" (Some 1) (Chase_lev.steal q);
  Alcotest.(check (option int)) "pop tail" (Some 4) (Chase_lev.pop q);
  Alcotest.(check (option int)) "steal next" (Some 2) (Chase_lev.steal q);
  Alcotest.(check (option int)) "pop last" (Some 3) (Chase_lev.pop q);
  Alcotest.(check (option int)) "empty pop" None (Chase_lev.pop q);
  Alcotest.(check (option int)) "empty steal" None (Chase_lev.steal q)

let test_cl_growth () =
  let q = Chase_lev.create ~capacity:4 () in
  let n = 10_000 in
  for i = 1 to n do
    Chase_lev.push q i
  done;
  checki "size" n (Chase_lev.size q);
  let sum = ref 0 in
  let rec drain () =
    match Chase_lev.pop q with
    | Some v ->
        sum := !sum + v;
        drain ()
    | None -> ()
  in
  drain ();
  checki "conserved across growth" (n * (n + 1) / 2) !sum

let test_cl_interleaved_sequential () =
  let q = Chase_lev.create ~capacity:4 () in
  let popped = ref 0 and pushed = ref 0 in
  for round = 1 to 50 do
    for i = 1 to 7 do
      Chase_lev.push q ((round * 100) + i);
      incr pushed
    done;
    for _ = 1 to 5 do
      match Chase_lev.pop q with Some _ -> incr popped | None -> ()
    done
  done;
  let rec drain () =
    match Chase_lev.pop q with Some _ -> incr popped; drain () | None -> ()
  in
  drain ();
  checki "nothing lost" !pushed !popped

(* ------------------------------------------------------------------ *)
(* Chase-Lev, concurrent stress                                        *)
(* ------------------------------------------------------------------ *)

let test_cl_concurrent_conservation () =
  (* owner pushes N and pops; two stealer domains compete; every element
     must be extracted exactly once *)
  let n = 20_000 in
  let q = Chase_lev.create () in
  let extracted = Array.make n 0 in
  let stop = Atomic.make false in
  let stealer () =
    while not (Atomic.get stop) do
      match Chase_lev.steal_retry q with
      | Some v -> extracted.(v) <- extracted.(v) + 1
      | None -> Domain.cpu_relax ()
    done
  in
  let d1 = Domain.spawn stealer in
  let d2 = Domain.spawn stealer in
  let owner_got = ref [] in
  for i = 0 to n - 1 do
    Chase_lev.push q i;
    if i mod 3 = 0 then
      match Chase_lev.pop q with
      | Some v -> owner_got := v :: !owner_got
      | None -> ()
  done;
  let rec drain () =
    match Chase_lev.pop q with
    | Some v ->
        owner_got := v :: !owner_got;
        drain ()
    | None -> if Chase_lev.size q > 0 then drain ()
  in
  drain ();
  (* wait for stealers to finish consuming anything they raced for *)
  Unix.sleepf 0.05;
  Atomic.set stop true;
  Domain.join d1;
  Domain.join d2;
  List.iter (fun v -> extracted.(v) <- extracted.(v) + 1) !owner_got;
  let dups = ref 0 and lost = ref 0 in
  Array.iter
    (fun c ->
      if c > 1 then incr dups;
      if c = 0 then incr lost)
    extracted;
  checki "no element extracted twice" 0 !dups;
  checki "no element lost" 0 !lost

(* ------------------------------------------------------------------ *)
(* THE queue (native)                                                  *)
(* ------------------------------------------------------------------ *)

let test_the_sequential () =
  let q = The_queue.create ~capacity:16 () in
  List.iter (The_queue.push q) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "pop tail" (Some 3) (The_queue.pop q);
  Alcotest.(check (option int)) "steal head" (Some 1) (The_queue.steal q);
  Alcotest.(check (option int)) "pop" (Some 2) (The_queue.pop q);
  Alcotest.(check (option int)) "empty" None (The_queue.pop q);
  Alcotest.(check (option int)) "empty steal" None (The_queue.steal q)

let test_the_concurrent_conservation () =
  let n = 20_000 in
  let q = The_queue.create ~capacity:(1 lsl 15) () in
  let counts = Array.make n 0 in
  let stop = Atomic.make false in
  let stolen = ref [] in
  let stealer =
    Domain.spawn (fun () ->
        let acc = ref [] in
        while not (Atomic.get stop) do
          match The_queue.steal q with
          | Some v -> acc := v :: !acc
          | None -> Domain.cpu_relax ()
        done;
        !acc)
  in
  let mine = ref [] in
  for i = 0 to n - 1 do
    The_queue.push q i;
    if i land 1 = 0 then
      match The_queue.pop q with Some v -> mine := v :: !mine | None -> ()
  done;
  let rec drain () =
    match The_queue.pop q with
    | Some v ->
        mine := v :: !mine;
        drain ()
    | None -> if The_queue.size q > 0 then drain ()
  in
  drain ();
  Unix.sleepf 0.05;
  Atomic.set stop true;
  stolen := Domain.join stealer;
  List.iter (fun v -> counts.(v) <- counts.(v) + 1) !mine;
  List.iter (fun v -> counts.(v) <- counts.(v) + 1) !stolen;
  let dups = Array.fold_left (fun a c -> if c > 1 then a + 1 else a) 0 counts in
  let lost = Array.fold_left (fun a c -> if c = 0 then a + 1 else a) 0 counts in
  checki "no duplicates" 0 dups;
  checki "no losses" 0 lost

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_fib () =
  let pool = Pool.create ~domains:3 () in
  checki "fib 20" 6765 (Pool.fib pool 20);
  checki "fib 25 (reuse)" 75025 (Pool.fib pool 25);
  Pool.shutdown pool

let test_pool_parallel_sum () =
  let pool = Pool.create ~domains:2 () in
  let acc = Atomic.make 0 in
  Pool.parallel_run pool
    (List.init 100 (fun i () -> ignore (Atomic.fetch_and_add acc (i + 1))));
  Pool.shutdown pool;
  checki "sum 1..100" 5050 (Atomic.get acc)

let test_pool_nested_spawn () =
  let pool = Pool.create ~domains:2 () in
  let acc = Atomic.make 0 in
  Pool.parallel_run pool
    [
      (fun () ->
        for _ = 1 to 10 do
          Pool.spawn pool (fun () ->
              Pool.spawn pool (fun () -> ignore (Atomic.fetch_and_add acc 1)))
        done);
    ];
  Pool.shutdown pool;
  checki "nested spawns all ran" 10 (Atomic.get acc)

exception Boom of int

(* Headline bug 1: a raising task used to kill its worker domain and leak
   the in_flight count, hanging parallel_run forever. Now the run must
   complete, re-raise the first failure at the join point, and leave the
   pool usable. *)
let test_pool_raising_tasks () =
  let pool = Pool.create ~domains:3 () in
  let ran = Atomic.make 0 in
  let tasks =
    List.init 500 (fun i () ->
        ignore (Atomic.fetch_and_add ran 1);
        (* ~10% of tasks raise, spread across all workers *)
        if i mod 10 = 3 then raise (Boom i))
  in
  (match Pool.parallel_run pool tasks with
  | () -> Alcotest.fail "expected parallel_run to re-raise a task failure"
  | exception Boom _ -> ());
  checki "every task ran despite the failures" 500 (Atomic.get ran);
  (* the pool survived: a clean run still works *)
  checki "pool reusable after failure" 75025 (Pool.fib pool 25);
  Pool.shutdown pool

let test_pool_nested_raise () =
  (* the failure can come from a nested spawn on a worker domain, not just
     a root task *)
  let pool = Pool.create ~domains:2 () in
  (match
     Pool.parallel_run pool
       [
         (fun () ->
           for i = 1 to 50 do
             Pool.spawn pool (fun () -> if i = 25 then raise (Boom i))
           done);
       ]
   with
  | () -> Alcotest.fail "expected the nested failure to surface"
  | exception Boom _ -> ());
  Pool.shutdown pool

(* Headline bug 2: spawn from a non-worker domain used to push onto deque 0
   concurrently with the coordinator — a Chase-Lev single-owner violation.
   Now external spawns go through the injector; hammer it from several
   domains at once (debug mode turns any ownership violation into a hard
   failure). *)
let test_pool_external_spawns () =
  let pool = Pool.create ~domains:3 ~debug:true () in
  let per_domain = 2_000 and spawners = 3 in
  let acc = Atomic.make 0 in
  let externals =
    List.init spawners (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Pool.spawn pool (fun () -> ignore (Atomic.fetch_and_add acc 1))
            done))
  in
  List.iter Domain.join externals;
  (* shutdown drains everything still queued *)
  Pool.shutdown pool;
  checki "every external spawn executed" (per_domain * spawners)
    (Atomic.get acc)

let test_pool_shutdown_drains () =
  (* tasks spawned but never joined by a parallel_run must still run *)
  let pool = Pool.create ~domains:2 () in
  let acc = Atomic.make 0 in
  for _ = 1 to 1_000 do
    Pool.spawn pool (fun () -> ignore (Atomic.fetch_and_add acc 1))
  done;
  Pool.shutdown pool;
  checki "shutdown executed the queued tasks" 1_000 (Atomic.get acc);
  (* idempotent: a second shutdown is a no-op, and use-after-shutdown is
     an error rather than a hang *)
  Pool.shutdown pool;
  (match Pool.spawn pool (fun () -> ()) with
  | () -> Alcotest.fail "spawn after shutdown should raise"
  | exception Invalid_argument _ -> ())

(* The THE deques have a fixed capacity (8192). Each worker's first
   steal holds it on the gate, so the root's 10,000 pushes overflow its
   deque: the surplus spills to the injector instead of raising, and every
   cell still runs. *)
let test_pool_the_backend () =
  let pool = Pool.create ~domains:3 ~backend:Pool.The_deques () in
  let gate = Atomic.make false and ran = Atomic.make 0 in
  let cell () =
    while not (Atomic.get gate) do
      Domain.cpu_relax ()
    done;
    Atomic.incr ran
  in
  Pool.parallel_run pool
    [
      (fun () ->
        for _ = 1 to 10_000 do
          Pool.spawn pool cell
        done;
        Atomic.set gate true);
    ];
  checki "every cell ran" 10_000 (Atomic.get ran);
  Alcotest.(check bool)
    "the overflow ran from the injector" true
    (Array.exists (fun st -> st.Pool.injector_runs > 0) (Pool.worker_stats pool));
  checki "fib on THE" 6765 (Pool.fib pool 20);
  Pool.shutdown pool

(* At quiescence the per-slot counters are exact: Pool.fib 16 runs the
   whole call tree, 2 * fib 17 - 1 = 3193 tasks, each spawned once (the
   root by parallel_run on the coordinator slot) and run once. *)
let test_pool_stats_at_quiescence () =
  let pool = Pool.create ~domains:2 () in
  ignore (Pool.fib pool 16);
  let sum f = Array.fold_left (fun a st -> a + f st) 0 in
  let check_exact what stats =
    checki (what ^ ": one copy per slot, coordinator included")
      (Pool.worker_count pool + 1)
      (Array.length stats);
    checki (what ^ ": tasks run") 3193 (sum (fun st -> st.Pool.tasks_run) stats);
    checki (what ^ ": tasks spawned") 3193 (sum (fun st -> st.Pool.spawns) stats);
    checki (what ^ ": no injector runs") 0
      (sum (fun st -> st.Pool.injector_runs) stats)
  in
  checki "tasks_run agrees" 3193 (Pool.tasks_run pool);
  check_exact "after parallel_run" (Pool.worker_stats pool);
  checki "nothing in flight" 0 (Pool.in_flight pool);
  checki "nothing pending" 0 (Pool.pending pool);
  Pool.shutdown pool;
  check_exact "after shutdown" (Pool.worker_stats pool)

(* The termination sums mid-run: the only worker holds the first
   submission on a gate, so the next four wait in the injector. In flight
   counts all five, pending exactly the four queued cells; once the gate
   opens and they finish, both are 0 again. *)
let test_pool_in_flight_and_pending () =
  let pool = Pool.create ~domains:1 () in
  let gate = Atomic.make false and started = Atomic.make false in
  let ran = Atomic.make 0 in
  ignore
    (Pool.submit pool (fun () ->
         Atomic.set started true;
         while not (Atomic.get gate) do
           Domain.cpu_relax ()
         done;
         Atomic.incr ran));
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Atomic.get started)) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool)
    "the worker holds the first cell" true (Atomic.get started);
  for _ = 1 to 4 do
    ignore (Pool.submit pool (fun () -> Atomic.incr ran))
  done;
  checki "the backlog waits in the injector" 4 (Pool.injector_depth pool);
  checki "pending counts the queued cells" 4 (Pool.pending pool);
  checki "in flight counts the running cell too" 5 (Pool.in_flight pool);
  Atomic.set gate true;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Pool.in_flight pool > 0 && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  checki "every cell ran" 5 (Atomic.get ran);
  checki "nothing in flight once they finish" 0 (Pool.in_flight pool);
  checki "nothing pending" 0 (Pool.pending pool);
  Pool.shutdown pool

(* The flight recording and the slot counters are two accounts of one
   run. With no ring overwritten, each slot's ring holds one Spawn per
   spawn, one Run per task run, one Steal per steal, one Steal_abort per
   lost race and a Park/Unpark pair per park; the external ring holds one
   Inject per submission, and every submitted cell ran once, either from
   the injector on a slot or in shutdown's drain (an external Run). *)
let test_pool_flight_matches_stats () =
  let module FR = Telemetry.Flight_recorder in
  let pool =
    Pool.create ~domains:2 ~flight:true ~flight_capacity:(1 lsl 15) ()
  in
  checki "fib on a recording pool" 610 (Pool.fib pool 15);
  let ran = Atomic.make 0 in
  for _ = 1 to 20 do
    ignore (Pool.submit pool (fun () -> Atomic.incr ran))
  done;
  Pool.shutdown pool;
  checki "every submission ran" 20 (Atomic.get ran);
  let r =
    match Pool.flight pool with
    | Some r -> r
    | None -> Alcotest.fail "flight pool returned no recorder"
  in
  Array.iteri
    (fun i d -> checki (Printf.sprintf "ring %d overwrote nothing" i) 0 d)
    (FR.dropped r);
  let count slot kind =
    List.length
      (List.filter
         (fun (e : FR.event) -> e.kind = kind)
         (FR.events_of_slot r slot))
  in
  let stats = Pool.worker_stats pool in
  Array.iteri
    (fun slot (st : Pool.worker_stats) ->
      let agree what kind n =
        checki (Printf.sprintf "slot %d: %s" slot what) n (count slot kind)
      in
      agree "spawns" FR.Spawn st.spawns;
      agree "runs" FR.Run st.tasks_run;
      agree "steals" FR.Steal st.steals;
      agree "steal aborts" FR.Steal_abort st.steal_aborts;
      agree "parks" FR.Park st.parks;
      agree "unparks" FR.Unpark st.parks)
    stats;
  checki "one Inject per submission" 20 (count (-1) FR.Inject);
  checki "each submission ran from the injector or in the drain" 20
    (count (-1) FR.Run
    + Array.fold_left (fun a st -> a + st.Pool.injector_runs) 0 stats)

(* Forced-steal schedule on the live pool: each round the probe task spawns
   a child onto its own deque and spins (never popping) until the child
   flips a flag — the child can only arrive at an executor by a genuine
   steal, so the flight recording must reconstruct stolen lineage. *)
let test_pool_flight_lineage () =
  let module FR = Telemetry.Flight_recorder in
  let pool = Pool.create ~domains:2 ~flight:true () in
  Pool.parallel_run pool
    [
      (fun () ->
        for _ = 1 to 4 do
          let flag = Atomic.make false in
          Pool.spawn pool (fun () -> Atomic.set flag true);
          while not (Atomic.get flag) do
            Domain.cpu_relax ()
          done
        done);
    ];
  Pool.shutdown pool;
  let r =
    match Pool.flight pool with
    | Some r -> r
    | None -> Alcotest.fail "flight pool returned no recorder"
  in
  let lineages, unresolved = FR.reconstruct r in
  checki "every run resolved to its spawn" 0 unresolved;
  let stolen =
    List.filter
      (fun (l : FR.lineage) ->
        match l.origin with FR.Stolen _ -> true | _ -> false)
      lineages
  in
  Alcotest.(check bool)
    "the spinning owner forced at least one steal" true
    (List.length stolen >= 1);
  List.iter
    (fun (l : FR.lineage) ->
      match l.origin with
      | FR.Stolen victim ->
          Alcotest.(check bool)
            "thief is not its own victim" true (victim <> l.run_slot);
          checki "victim is the spawning slot" l.spawn_slot victim;
          Alcotest.(check bool)
            "stolen lineage has positive depth" true (l.steal_depth >= 1)
      | _ -> ())
    lineages;
  match FR.validate (FR.report r) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "live-pool report failed validation: %s" e

(* Stage attribution: every cell executed by a worker contributes exactly
   one observation to each of the three stage histograms (qwait, dispatch,
   service), and no stage ever goes negative (the four stamps come from
   one monotonic clock). *)
let test_pool_stage_attribution () =
  let module H = Telemetry.Histogram in
  let pool = Pool.create ~domains:1 ~attribution:true () in
  let ran = Atomic.make 0 in
  for _ = 1 to 50 do
    ignore (Pool.submit pool (fun () -> Atomic.incr ran))
  done;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get ran < 50 && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  checki "all submissions ran" 50 (Atomic.get ran);
  let qw, dp, sv = Pool.stage_hists pool in
  checki "one qwait observation per cell" 50 (H.total qw);
  checki "one dispatch observation per cell" 50 (H.total dp);
  checki "one service observation per cell" 50 (H.total sv);
  checki "no negative qwait" 0 (H.negative qw);
  checki "no negative dispatch" 0 (H.negative dp);
  checki "no negative service" 0 (H.negative sv);
  (* a plain pool keeps the whole plane empty — the off-path is free *)
  let plain = Pool.create ~domains:1 () in
  ignore (Pool.submit plain (fun () -> ()));
  Pool.shutdown plain;
  let pq, _, _ = Pool.stage_hists plain in
  checki "no attribution without the flag" 0 (H.total pq);
  Pool.shutdown pool

(* Bounded-injector backpressure: submit is the open-system front door and
   must honor [injector_capacity]; spawn-side admission is unconditional.
   One worker is parked on a gate so admissions sit in the injector. *)
let test_pool_submit_backpressure () =
  let pool = Pool.create ~domains:1 ~injector_capacity:1 () in
  let gate = Atomic.make false in
  let ran = Atomic.make 0 in
  let task () =
    while not (Atomic.get gate) do
      Domain.cpu_relax ()
    done;
    Atomic.incr ran
  in
  Alcotest.(check bool) "first submit admitted" true (Pool.submit pool task);
  (* wait for the worker to move it from the injector onto its deque *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Pool.injector_depth pool > 0 && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  checki "injector drained to the busy worker" 0 (Pool.injector_depth pool);
  Alcotest.(check bool)
    "second admitted up to capacity" true
    (Pool.submit ~policy:Pool.Drop pool task);
  Alcotest.(check bool)
    "third refused at the full injector" false
    (Pool.submit ~policy:Pool.Drop pool (fun () -> Atomic.incr ran));
  checki "refusal counted" 1 (Pool.injector_drops pool);
  Atomic.set gate true;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get ran < 2 && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  checki "both admitted tasks ran, the refused one did not" 2
    (Atomic.get ran);
  Pool.shutdown pool

(* A submission racing shutdown is either refused or run, never accepted
   and lost. One domain submits in a loop until the pool refuses it, while
   the main domain shuts the pool down as soon as the first submission is
   in; over many trials, every accepted task must have run. The injector
   bound is above what one submitter can leave behind, so a lost task
   cannot also block the submitter's spin. *)
let test_pool_submit_races_shutdown () =
  let trials = 3000 in
  let lost = ref 0 in
  for _ = 1 to trials do
    let pool = Pool.create ~domains:1 ~injector_capacity:4 () in
    let ran = Atomic.make 0 in
    let started = Atomic.make false in
    let submitter =
      Domain.spawn (fun () ->
          let accepted = ref 0 in
          (try
             while true do
               if
                 Pool.submit ~policy:Pool.Block pool (fun () ->
                     Atomic.incr ran)
               then incr accepted;
               Atomic.set started true
             done
           with Invalid_argument _ -> ());
          !accepted)
    in
    while not (Atomic.get started) do
      Domain.cpu_relax ()
    done;
    Pool.shutdown pool;
    let accepted = Domain.join submitter in
    lost := !lost + (accepted - Atomic.get ran)
  done;
  checki "every accepted submission ran" 0 !lost

(* Exact termination and wake-up: parallel_run must return only when every
   task has finished, and then nothing may be left in flight or queued.
   Seeded random task trees; some runs start after every worker has
   parked, and in some a domain outside the pool spawns extra trees while
   the run is live (a root task holds the run open until it is done). *)
let test_pool_exact_termination backend () =
  let max_depth = 7 in
  let hash k = ((k * 0x2545F491) + 0x6C8E9CF5) land 0x3FFFFFFF in
  let kids key depth = if depth >= max_depth then 0 else hash key mod 4 in
  let child key i = hash ((key * 4) + i + 1) in
  let rec size key depth =
    let n = ref 1 in
    for i = 0 to kids key depth - 1 do
      n := !n + size (child key i) (depth + 1)
    done;
    !n
  in
  let pool = Pool.create ~domains:2 ~backend () in
  let spawned = Atomic.make 0 and finished = Atomic.make 0 in
  let rec node key depth () =
    for i = 0 to kids key depth - 1 do
      Atomic.incr spawned;
      Pool.spawn pool (node (child key i) (depth + 1))
    done;
    for _ = 1 to hash key mod 200 do
      Domain.cpu_relax ()
    done;
    Atomic.incr finished
  in
  let rng = Random.State.make [| 0x5eed |] in
  for run = 1 to 300 do
    Atomic.set spawned 0;
    Atomic.set finished 0;
    let root = Random.State.bits rng in
    let expected = ref (size root 0) in
    if run mod 3 = 0 then begin
      let deadline = Unix.gettimeofday () +. 2.0 in
      while
        Pool.sleeper_count pool < Pool.worker_count pool
        && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.0005
      done
    end;
    let roots =
      if run mod 4 <> 1 then [ node root 0 ]
      else begin
        let ext_roots = List.init 3 (fun i -> hash (root + i + 1)) in
        List.iter (fun k -> expected := !expected + size k 1) ext_roots;
        let ext_done = Atomic.make false in
        let outsider =
          Domain.spawn (fun () ->
              List.iter
                (fun k ->
                  Atomic.incr spawned;
                  Pool.spawn pool (node k 1))
                ext_roots;
              Atomic.set ext_done true)
        in
        let gate () =
          while not (Atomic.get ext_done) do
            Domain.cpu_relax ()
          done;
          Domain.join outsider
        in
        [ node root 0; gate ]
      end
    in
    Atomic.incr spawned;
    Pool.parallel_run pool roots;
    checki
      (Printf.sprintf "run %d: every task finished before the return" run)
      !expected (Atomic.get finished);
    checki
      (Printf.sprintf "run %d: tasks run = tasks spawned" run)
      (Atomic.get spawned) (Atomic.get finished);
    checki (Printf.sprintf "run %d: nothing in flight" run) 0
      (Pool.in_flight pool);
    checki (Printf.sprintf "run %d: nothing pending" run) 0 (Pool.pending pool)
  done;
  Pool.shutdown pool

(* qcheck: random sequential op sequences vs a reference deque *)
let cl_matches_reference =
  QCheck.Test.make ~name:"native chase-lev matches reference deque (sequential)"
    ~count:200
    QCheck.(list (int_bound 2))
    (fun ops ->
      let q = Chase_lev.create ~capacity:4 () in
      let reference = ref ([] : int list) (* head first *) in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
              let v = List.length !reference in
              Chase_lev.push q v;
              reference := !reference @ [ v ];
              true
          | 1 -> (
              let got = Chase_lev.pop q in
              match List.rev !reference with
              | [] -> got = None
              | last :: rev_init ->
                  reference := List.rev rev_init;
                  got = Some last)
          | _ -> (
              let got = Chase_lev.steal q in
              match !reference with
              | [] -> got = None
              | first :: rest ->
                  reference := rest;
                  got = Some first))
        ops)

let () =
  Alcotest.run "native"
    [
      ( "chase-lev",
        [
          Alcotest.test_case "pop LIFO" `Quick test_cl_lifo_pop;
          Alcotest.test_case "steal FIFO" `Quick test_cl_fifo_steal;
          Alcotest.test_case "mixed ends" `Quick test_cl_mixed_ends;
          Alcotest.test_case "buffer growth" `Quick test_cl_growth;
          Alcotest.test_case "interleaved sequential" `Quick
            test_cl_interleaved_sequential;
          Alcotest.test_case "concurrent conservation" `Slow
            test_cl_concurrent_conservation;
          QCheck_alcotest.to_alcotest cl_matches_reference;
        ] );
      ( "the-queue",
        [
          Alcotest.test_case "sequential" `Quick test_the_sequential;
          Alcotest.test_case "concurrent conservation" `Slow
            test_the_concurrent_conservation;
        ] );
      ( "pool",
        [
          Alcotest.test_case "fib" `Slow test_pool_fib;
          Alcotest.test_case "parallel sum" `Quick test_pool_parallel_sum;
          Alcotest.test_case "nested spawn" `Quick test_pool_nested_spawn;
          Alcotest.test_case "raising tasks do not hang the run" `Slow
            test_pool_raising_tasks;
          Alcotest.test_case "nested raise surfaces" `Quick
            test_pool_nested_raise;
          Alcotest.test_case "external-domain spawn hammer" `Slow
            test_pool_external_spawns;
          Alcotest.test_case "shutdown drains and is idempotent" `Quick
            test_pool_shutdown_drains;
          Alcotest.test_case "THE backend and its overflow spill" `Slow
            test_pool_the_backend;
          Alcotest.test_case "stats exact at quiescence" `Quick
            test_pool_stats_at_quiescence;
          Alcotest.test_case "in flight and pending count a held backlog"
            `Quick test_pool_in_flight_and_pending;
          Alcotest.test_case "flight recording agrees with the slot counters"
            `Quick test_pool_flight_matches_stats;
          Alcotest.test_case "flight recorder stolen lineage" `Quick
            test_pool_flight_lineage;
          Alcotest.test_case "stage attribution covers every cell" `Quick
            test_pool_stage_attribution;
          Alcotest.test_case "bounded injector backpressure" `Quick
            test_pool_submit_backpressure;
          Alcotest.test_case "submit racing shutdown is never lost" `Slow
            test_pool_submit_races_shutdown;
          Alcotest.test_case "exact termination and wake-up (Chase-Lev)"
            `Slow
            (test_pool_exact_termination Pool.Chase_lev_deques);
          Alcotest.test_case "exact termination and wake-up (THE)" `Slow
            (test_pool_exact_termination Pool.The_deques);
        ] );
    ]
