open Tso

(* Open-system mode for the timing model (the paper's benchmarks are
   closed fork/join DAGs; the heavy-traffic experiments need arrivals).

   Topology: W workers plus one dedicated injector thread, each a
   simulated core. The injector owns deque W and only ever [put]s into it
   — single-owner discipline intact — so workers absorb arrivals by
   {e stealing} from the injector's deque, exactly how the native pool's
   workers drain its submission queue. Inter-arrival gaps are modelled as
   [work] instructions on the injector's core, which the timing engine
   charges cycle-for-cycle, so a plan drawn by {!Open_load} reproduces the
   same arrival timeline on every run.

   Each request is a chain of [chain] dependent stages; non-final stages
   re-[put] onto the executing worker's own deque, so the closed-system
   put/take/steal hot paths stay exercised under open load. The workers
   run the DAG engine's loop ({!Engine.schedule}); this module is only
   its task source, the injector, backpressure and the stage stamps.

   Backpressure: the injector tracks the depth of its deque host-side
   (puts minus successful steals — exact, because the simulator
   interleaves at instruction granularity on one host thread). At
   [capacity] it either drops the arrival (Drop) or spins until a worker
   makes room (Block), burning simulated pause cycles that show up in the
   makespan — an overloaded Block run is visibly slower, not silently
   lossy. *)

type config = {
  workers : int;
  queue : Ws_core.Registry.impl;
  queue_capacity : int;
  delta : int;
  worker_fence : bool;
  sb_capacity : int;
  costs : Timing.cost_model;
  seed : int;
  requests : int;
  chain : int;  (* dependent stages per request *)
  arrival : Open_load.arrival;
  service : Open_load.service;
  capacity : int;  (* injector backpressure bound *)
  policy : Open_load.policy;
  idle_backoff : int;
  max_steps : int;
  window : int;  (* ticks per latency-attribution window *)
  window_slots : int;  (* windows retained in each rotating ring *)
}

let default_config =
  {
    workers = 3;
    queue = Ws_core.Registry.find "ff-the";
    queue_capacity = 1 lsl 14;
    delta = 1;
    worker_fence = true;
    sb_capacity = 16;
    costs = Timing.default_costs;
    seed = 1;
    requests = 500;
    chain = 3;
    arrival = Open_load.Poisson { rate = 2.0 };
    service = Open_load.Exponential { mean = 400 };
    capacity = 64;
    policy = Open_load.Block;
    idle_backoff = 64;
    max_steps = 200_000_000;
    window = 8192;
    window_slots = 16;
  }

type report = {
  injected : int;
  dropped : int;
  completed : int;
  makespan : int;
  steps : int;
  outcome : Sched.outcome;
  p50 : int;  (* sojourn percentiles, ticks *)
  p99 : int;
  p999 : int;
  sojourn : Telemetry.Histogram.t;
  (* Stage attribution, in ticks. The three stages partition each
     completed request's sojourn exactly:
       qwait    = arrival (post-gap, pre-backpressure-spin) -> inject
       dispatch = inject -> stage-0 dequeue
       service  = stage-0 dequeue -> final-stage completion
     so qwait + dispatch + service = sojourn, request by request. *)
  qwait : Telemetry.Histogram.t;
  dispatch : Telemetry.Histogram.t;
  service : Telemetry.Histogram.t;
  (* Rotating-window series (width [cfg.window] ticks, last
     [cfg.window_slots] windows). Sojourn is keyed by completion tick;
     queue wait is keyed by the request's arrival tick, so a burst's
     extra waiting lands in the burst's own windows. *)
  sojourn_windows : Telemetry.Windowed.t;
  qwait_windows : Telemetry.Windowed.t;
  peak_queue : int;  (* max injector deque depth observed *)
  block_spins : int;  (* injector pause instructions while blocked *)
  offered_rate : float;  (* configured long-run arrivals per 1000 ticks *)
  achieved_rate : float;  (* completions per 1000 ticks of makespan *)
  metrics : Metrics.t;
}

let run ?sink cfg =
  if cfg.workers < 1 then invalid_arg "Open_system.run: workers must be >= 1";
  if cfg.chain < 1 then invalid_arg "Open_system.run: chain must be >= 1";
  if cfg.capacity < 1 then invalid_arg "Open_system.run: capacity must be >= 1";
  if cfg.capacity >= cfg.queue_capacity then
    invalid_arg "Open_system.run: capacity must be below queue_capacity";
  let plan =
    Open_load.plan ~seed:cfg.seed ~requests:cfg.requests cfg.arrival
      cfg.service
  in
  (* The front door (queue [inj], past the worker deques) is always the
     plain lock-based THE queue, like the native pool's mutex FIFO
     injector — NOT the scenario's worker queue. The δ-relaxed queues
     (ff-the, thep) can never certify the last item to a thief (ABORT
     subsumes EMPTY, §4), which is fine for worker deques (the owner's
     take drains them) but would strand the final arrival forever in a
     deque whose owner only ever puts. *)
  let params =
    {
      Ws_core.Queue_intf.capacity = cfg.queue_capacity;
      delta = cfg.delta;
      worker_fence = cfg.worker_fence;
      tag = "inj";
    }
  in
  let machine, deques =
    Engine.machine_and_deques ~sb_capacity:cfg.sb_capacity
      ~workers:cfg.workers cfg.queue params
  in
  let inj = cfg.workers in
  let queues =
    Array.append deques
      [| Ws_core.Registry.create (Ws_core.Registry.find "the") machine params |]
  in
  let clk = Timing.clock () in
  let metrics = Metrics.create cfg.workers in
  (* Every simulated thread runs on this one host thread, so one histogram
     and one ring per series take every observation. *)
  let sojourn = Telemetry.Histogram.create () in
  let qwait = Telemetry.Histogram.create () in
  let dispatch = Telemetry.Histogram.create () in
  let service = Telemetry.Histogram.create () in
  let sojourn_windows =
    Telemetry.Windowed.create ~slots:cfg.window_slots ~width:cfg.window ()
  in
  let qwait_windows =
    Telemetry.Windowed.create ~slots:cfg.window_slots ~width:cfg.window ()
  in
  let arrive = Array.make cfg.requests 0 in
  let inject_t = Array.make cfg.requests 0 in
  let dequeue_t = Array.make cfg.requests 0 in
  let stage_ticks = Array.make (cfg.requests * cfg.chain) 0 in
  for i = 0 to cfg.requests - 1 do
    let s = plan.Open_load.services.(i) in
    let base = s / cfg.chain and rem = s mod cfg.chain in
    for k = 0 to cfg.chain - 1 do
      stage_ticks.((i * cfg.chain) + k) <- (base + if k < rem then 1 else 0)
    done
  done;
  let injected = ref 0 in
  let dropped = ref 0 in
  let completed = ref 0 in
  let in_flight = ref 0 in
  let in_queue = ref 0 in
  let peak_queue = ref 0 in
  let block_spins = ref 0 in
  let injector_done = ref false in
  let injector_body () =
    for i = 0 to cfg.requests - 1 do
      let gap = plan.Open_load.gaps.(i) in
      if gap > 0 then Program.work gap;
      (* Arrival is stamped before any backpressure spin, so queue wait
         (and hence sojourn) charges the time a Block policy makes the
         request wait at the front door. *)
      arrive.(i) <- Timing.now clk;
      (match cfg.policy with
      | Open_load.Block ->
          while !in_queue >= cfg.capacity do
            incr block_spins;
            Program.spin_pause ()
          done
      | Open_load.Drop -> ());
      if !in_queue >= cfg.capacity then incr dropped
      else begin
        incr injected;
        incr in_flight;
        incr in_queue;
        if !in_queue > !peak_queue then peak_queue := !in_queue;
        Ws_core.Queue_intf.put queues.(inj) (i * cfg.chain);
        inject_t.(i) <- Timing.now clk
      end
    done;
    injector_done := true
  in
  let rngs =
    Array.init cfg.workers (fun w ->
        Open_load.rng (cfg.seed + ((w + 1) * 0x9e37)))
  in
  let src =
    {
      Engine.live = (fun () -> !in_flight > 0 || not !injector_done);
      (* Drain the front door first, like the native pool: arrivals wait
         in the injector's deque and only steals move them on. *)
      victim =
        (fun w ->
          if !in_queue > 0 || cfg.workers = 1 then inj
          else
            let v = Open_load.int rngs.(w) (cfg.workers - 1) in
            if v >= w then v + 1 else v);
      run =
        (fun w ~from t ->
          if from = inj then decr in_queue;
          let stage = t mod cfg.chain in
          let i = t / cfg.chain in
          if stage = 0 then begin
            (* Stage-0 dequeue closes the first two stages. The injector
               queue is FIFO and its thieves take its lock in turn, so
               stage-0 dequeues see non-decreasing arrival ticks, as the
               arrival-keyed queue-wait ring requires. *)
            let now = Timing.now clk in
            dequeue_t.(i) <- now;
            let qw = inject_t.(i) - arrive.(i) in
            Telemetry.Histogram.observe qwait qw;
            Telemetry.Windowed.observe qwait_windows ~now:arrive.(i) qw;
            Telemetry.Histogram.observe dispatch (now - inject_t.(i))
          end;
          let ticks = stage_ticks.(t) in
          if ticks > 0 then Program.work ticks;
          if stage < cfg.chain - 1 then begin
            let m = metrics.Metrics.workers.(w) in
            m.Metrics.puts <- m.Metrics.puts + 1;
            Ws_core.Queue_intf.put queues.(w) (t + 1)
          end
          else begin
            let now = Timing.now clk in
            let soj = now - arrive.(i) in
            Telemetry.Histogram.observe sojourn soj;
            Telemetry.Histogram.observe service (now - dequeue_t.(i));
            Telemetry.Windowed.observe sojourn_windows ~now soj;
            incr completed;
            decr in_flight
          end);
    }
  in
  for w = 0 to cfg.workers - 1 do
    ignore
      (Machine.spawn machine ~name:(Printf.sprintf "worker%d" w) (fun () ->
           Engine.schedule metrics queues ~idle_backoff:cfg.idle_backoff src w))
  done;
  ignore (Machine.spawn machine ~name:"injector" injector_body);
  let timing =
    Timing.run ~max_steps:cfg.max_steps ~clock:clk ?sink machine cfg.costs
  in
  Option.iter (Metrics.fold_into_sink metrics) sink;
  let makespan = timing.Timing.makespan in
  {
    injected = !injected;
    dropped = !dropped;
    completed = !completed;
    makespan;
    steps = timing.Timing.steps;
    outcome = timing.Timing.outcome;
    p50 = Telemetry.Histogram.percentile sojourn 0.5;
    p99 = Telemetry.Histogram.percentile sojourn 0.99;
    p999 = Telemetry.Histogram.percentile sojourn 0.999;
    sojourn;
    qwait;
    dispatch;
    service;
    sojourn_windows;
    qwait_windows;
    peak_queue = !peak_queue;
    block_spins = !block_spins;
    offered_rate = Open_load.mean_rate cfg.arrival;
    achieved_rate =
      (if makespan = 0 then 0.
       else 1000. *. float_of_int !completed /. float_of_int makespan);
    metrics;
  }
