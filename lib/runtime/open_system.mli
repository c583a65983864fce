(** Open-system mode for the timing model: Poisson or bursty
    (Markov-modulated) arrivals feed a dedicated injector thread whose own
    deque is drained by worker steals — the simulated twin of the native
    pool's injector front door. The front-door deque is always the plain
    lock-based THE queue (like the native injector's mutex FIFO): a
    δ-relaxed queue can never hand its last item to a thief (ABORT
    subsumes EMPTY), which would strand the final arrival in a deque whose
    owner only puts. Each request runs as a chain of dependent stages on
    the worker deques (which do use [config.queue]), through the same
    worker loop as DAG runs ({!Engine.schedule}); sojourn latency
    (arrival to last-stage completion, in ticks) is reported as
    p50/p99/p999.

    Fully deterministic: the load is a pre-drawn {!Open_load.plan}, worker
    victim choice uses the same seeded generator, and the timing engine
    breaks ties lexicographically — equal configs give byte-equal
    reports. *)

type config = {
  workers : int;
  queue : Ws_core.Registry.impl;
  queue_capacity : int;
  delta : int;
  worker_fence : bool;
  sb_capacity : int;
  costs : Tso.Timing.cost_model;
  seed : int;
  requests : int;
  chain : int;  (** dependent stages per request (>= 1) *)
  arrival : Open_load.arrival;
  service : Open_load.service;
  capacity : int;  (** injector backpressure bound (< queue_capacity) *)
  policy : Open_load.policy;
  idle_backoff : int;
  max_steps : int;
  window : int;  (** ticks per latency-attribution window (> 0) *)
  window_slots : int;  (** windows retained per rotating ring (> 0) *)
}

val default_config : config
(** 3 ff-the workers, Poisson 2.0/ktick, exponential 400-tick services in
    3 stages, capacity 64, Block. *)

type report = {
  injected : int;
  dropped : int;  (** arrivals refused at a full injector (Drop policy) *)
  completed : int;
  makespan : int;
  steps : int;
  outcome : Tso.Sched.outcome;
  p50 : int;  (** sojourn percentiles, ticks *)
  p99 : int;
  p999 : int;
  sojourn : Telemetry.Histogram.t;
  qwait : Telemetry.Histogram.t;
      (** arrival (post-gap, pre-backpressure-spin) -> inject, ticks *)
  dispatch : Telemetry.Histogram.t;  (** inject -> stage-0 dequeue, ticks *)
  service : Telemetry.Histogram.t;
      (** stage-0 dequeue -> final-stage completion, ticks. The three
          stages partition each completed request's sojourn exactly:
          qwait + dispatch + service = sojourn, request by request. *)
  sojourn_windows : Telemetry.Windowed.t;
      (** rotating-window sojourn series ([window] ticks wide,
          [window_slots] retained), keyed by completion tick *)
  qwait_windows : Telemetry.Windowed.t;
      (** queue-wait series keyed by {e arrival} tick, so a burst's extra
          waiting lands in the burst's own windows *)
  peak_queue : int;  (** max injector deque depth observed *)
  block_spins : int;  (** injector pause instructions while blocked *)
  offered_rate : float;  (** configured long-run arrivals per 1000 ticks *)
  achieved_rate : float;  (** completions per 1000 ticks of makespan *)
  metrics : Metrics.t;
}

val run : ?sink:Telemetry.Sink.t -> config -> report
(** Run to quiescence. With [sink], the run's machine and queue counters
    accumulate in it, and task-level metrics are folded in at the end. *)
