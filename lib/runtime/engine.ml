open Tso

type victim_policy =
  | Random_victim
  | Round_robin_victim

type config = {
  workers : int;
  queue : Ws_core.Registry.impl;
  queue_capacity : int;
  delta : int;
  worker_fence : bool;
  sb_capacity : int;
  costs : Timing.cost_model;
  seed : int;
  client_stores : int;
  idle_backoff : int;
  victim : victim_policy;
  max_steps : int;
}

let default_config =
  {
    workers = 4;
    queue = Ws_core.Registry.find "chase-lev";
    queue_capacity = 1 lsl 14;
    delta = 1;
    worker_fence = true;
    sb_capacity = 16;
    costs = Timing.default_costs;
    seed = 42;
    client_stores = 1;
    idle_backoff = 64;
    victim = Random_victim;
    max_steps = 50_000_000;
  }

type result = {
  outcome : Sched.outcome;
  timing : Timing.report option;
  metrics : Metrics.t;
  executions : int array;
  duplicates : int;
  lost : int;
}

type source = {
  live : unit -> bool;
  victim : int -> int;
  run : int -> from:int -> int -> unit;
}

let no_victim = -1

let machine_and_deques ~sb_capacity ~workers impl params =
  (* Room for one more deque (the open system's front door) and a few
     cells per worker besides, so a run's memory is allocated once
     instead of doubling its way through the task arrays. *)
  let mem =
    Memory.create
      ~cells:((workers + 1) * (params.Ws_core.Queue_intf.capacity + 16))
      ()
  in
  let machine = Machine.create ~mem (Machine.abstract_config ~sb_capacity) in
  let deques =
    Array.init workers (fun w ->
        Ws_core.Registry.create impl machine
          { params with Ws_core.Queue_intf.tag = Printf.sprintf "q%d" w })
  in
  (machine, deques)

(* The CilkPlus worker loop (§8): drain the own deque with [take]; when it
   is empty, hunt — probe the queue the source names, backing off
   [idle_backoff] cycles after each failed probe — until a task turns up
   or no work is live. *)
let schedule metrics queues ~idle_backoff src w =
  let m = metrics.Metrics.workers.(w) in
  let workers = Array.length metrics.Metrics.workers in
  let run ~from t =
    m.Metrics.tasks_run <- m.Metrics.tasks_run + 1;
    (* Only a task taken from another worker's deque is a stolen run; a
       queue no worker owns (the open system's front door) is not. *)
    if from <> w && from < workers then
      m.Metrics.tasks_run_stolen <- m.Metrics.tasks_run_stolen + 1;
    src.run w ~from t
  in
  let rec own_loop () =
    if src.live () then begin
      m.Metrics.takes <- m.Metrics.takes + 1;
      match Ws_core.Queue_intf.take queues.(w) with
      | `Task t ->
          run ~from:w t;
          own_loop ()
      | `Empty ->
          m.Metrics.take_empties <- m.Metrics.take_empties + 1;
          hunt ()
    end
  and hunt () =
    if src.live () then begin
      let v = src.victim w in
      if v = no_victim then begin
        Program.spin_pause ();
        own_loop ()
      end
      else begin
        m.Metrics.steal_attempts <- m.Metrics.steal_attempts + 1;
        match Ws_core.Queue_intf.steal queues.(v) with
        | `Task t ->
            m.Metrics.steals <- m.Metrics.steals + 1;
            run ~from:v t;
            own_loop ()
        | `Empty ->
            m.Metrics.steal_empties <- m.Metrics.steal_empties + 1;
            Program.work idle_backoff;
            hunt ()
        | `Abort ->
            m.Metrics.steal_aborts <- m.Metrics.steal_aborts + 1;
            Program.work idle_backoff;
            hunt ()
      end
    end
  in
  own_loop ()

type shared = {
  cfg : config;
  wl : Workload.t;
  queues : Ws_core.Queue_intf.packed array;
  scratch : Addr.t array;  (* per-worker cell for the post-take client stores *)
  metrics : Metrics.t;
  (* Per task id, dense: sized from [expected_total], grown by doubling
     past it. *)
  mutable executions : int array;  (* completions *)
  mutable enqueued : int array;  (* puts *)
  mutable in_flight : int;  (* puts not yet matched by a completion *)
}

(* [a] with room for index [id], its new cells 0. *)
let room a id =
  if id < Array.length a then a
  else begin
    let b = Array.make (max (id + 1) (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let bump_enqueued st id =
  st.enqueued <- room st.enqueued id;
  st.enqueued.(id) <- st.enqueued.(id) + 1

(* Termination accounting that tolerates duplicate extraction (idempotent
   queues): every put increments [in_flight]; a completion decrements it
   only while the task's completion count has not yet caught up with its put
   count, so a doubly-extracted entry cannot drive [in_flight] negative and
   end the run while real work remains. *)
let enqueue st w id =
  bump_enqueued st id;
  st.in_flight <- st.in_flight + 1;
  let m = st.metrics.Metrics.workers.(w) in
  m.Metrics.puts <- m.Metrics.puts + 1;
  Ws_core.Queue_intf.put st.queues.(w) id

let exec_task st w id =
  (* The client store(s) CilkPlus does after removing a task (§4, §7.3). *)
  for i = 1 to st.cfg.client_stores do
    Program.store st.scratch.(w) (id + i)
  done;
  let spawned = st.wl.Workload.execute ~worker:w id in
  List.iter (fun t -> enqueue st w t) spawned;
  st.executions <- room st.executions id;
  let done_count = st.executions.(id) + 1 in
  st.executions.(id) <- done_count;
  let put_count = if id < Array.length st.enqueued then st.enqueued.(id) else 0 in
  if done_count <= put_count then st.in_flight <- st.in_flight - 1

(* A worker's next victim, never itself. A lone worker has none: it
   pauses until its own (already-extracted) last task completes. *)
let victims cfg =
  let n = cfg.workers in
  let rngs =
    Array.init n (fun w -> Random.State.make [| cfg.seed; w; 0x5eed |])
  in
  let last = Array.init n Fun.id in
  fun w ->
    if n = 1 then no_victim
    else
      match cfg.victim with
      | Random_victim ->
          let v = Random.State.int rngs.(w) (n - 1) in
          if v >= w then v + 1 else v
      | Round_robin_victim ->
          let v = (last.(w) + 1) mod n in
          last.(w) <- (if v = w then (v + 1) mod n else v);
          last.(w)

let setup cfg wl =
  let machine, queues =
    machine_and_deques ~sb_capacity:cfg.sb_capacity ~workers:cfg.workers
      cfg.queue
      {
        Ws_core.Queue_intf.capacity = cfg.queue_capacity;
        delta = cfg.delta;
        worker_fence = cfg.worker_fence;
        tag = "";
      }
  in
  let mem = Machine.memory machine in
  let scratch =
    Array.init cfg.workers (fun w ->
        Memory.alloc mem ~name:(Printf.sprintf "scratch%d" w) ~init:0)
  in
  wl.Workload.init machine;
  let tasks = Option.value ~default:1024 wl.Workload.expected_total in
  let st =
    {
      cfg;
      wl;
      queues;
      scratch;
      metrics = Metrics.create cfg.workers;
      executions = Array.make tasks 0;
      enqueued = Array.make tasks 0;
      in_flight = List.length wl.Workload.roots;
    }
  in
  List.iter (bump_enqueued st) wl.Workload.roots;
  let src =
    {
      live = (fun () -> st.in_flight > 0);
      victim = victims cfg;
      run = (fun w ~from:_ id -> exec_task st w id);
    }
  in
  let m0 = st.metrics.Metrics.workers.(0) in
  for w = 0 to cfg.workers - 1 do
    ignore
      (Machine.spawn machine ~name:(Printf.sprintf "worker%d" w) (fun () ->
           (* Roots were pre-counted above (so workers that start first do
              not see in_flight = 0 and exit); worker 0 only puts them. *)
           if w = 0 then
             List.iter
               (fun t ->
                 m0.Metrics.puts <- m0.Metrics.puts + 1;
                 Ws_core.Queue_intf.put queues.(0) t)
               wl.Workload.roots;
           schedule st.metrics queues ~idle_backoff:cfg.idle_backoff src w))
  done;
  (machine, st)

let summarize st outcome timing =
  let duplicates =
    Array.fold_left (fun acc c -> if c > 1 then acc + 1 else acc) 0 st.executions
  in
  let lost =
    match st.wl.Workload.expected_total with
    | None -> 0
    | Some n ->
        let missing = ref 0 in
        for id = 0 to n - 1 do
          if id >= Array.length st.executions || st.executions.(id) = 0 then
            incr missing
        done;
        !missing
  in
  {
    outcome;
    timing;
    metrics = st.metrics;
    executions = st.executions;
    duplicates;
    lost;
  }

let run_timed ?sink ?tracer ?trace_pid cfg wl =
  let machine, st = setup cfg wl in
  let report =
    Timing.run ~max_steps:cfg.max_steps ?sink ?tracer ?trace_pid machine
      cfg.costs
  in
  Option.iter (Metrics.fold_into_sink st.metrics) sink;
  summarize st report.Timing.outcome (Some report)

let run_random ?(drain_weight = 0.1) cfg wl =
  let machine, st = setup cfg wl in
  let rng = Random.State.make [| cfg.seed; 0xca5e |] in
  let outcome =
    Sched.run ~max_steps:cfg.max_steps machine (Sched.weighted rng ~drain_weight)
  in
  summarize st outcome None
