(** The work-stealing runtime: P simulated workers, one queue each, executing
    a {!Workload.t} to quiescence (the CilkPlus-runtime stand-in of §8).

    Each worker drains its own queue with [take]; when empty it turns thief
    and steals from uniformly random victims. As in CilkPlus, the worker
    performs [client_stores] plain stores after every (successful) take —
    the x of §4 that makes δ = ⌈S/(x+1)⌉ valid and prevents same-address
    store coalescing (§7.3).

    Termination uses host-level completion counting: workers exit once every
    spawned task has completed at least once. Duplicate extractions (possible
    with the idempotent queues) are recorded and do not double-count.

    The worker loop itself ({!schedule}) is the only one in the simulator:
    {!Open_system} runs its workers on it too, with a different
    {!source}. *)

type victim_policy =
  | Random_victim  (** uniformly random victim ≠ self (ABP's policy) *)
  | Round_robin_victim  (** cycle over the other workers *)

type config = {
  workers : int;
  queue : Ws_core.Registry.impl;
  queue_capacity : int;
  delta : int;  (** δ for the fence-free queues; [max_int] = ∞ *)
  worker_fence : bool;  (** fenced baselines only; see {!Ws_core.Queue_intf.params} *)
  sb_capacity : int;  (** S of the simulated machine *)
  costs : Tso.Timing.cost_model;
  seed : int;
  client_stores : int;  (** plain stores after each take (default 1) *)
  idle_backoff : int;  (** cycles a thief backs off after a failed attempt *)
  victim : victim_policy;
  max_steps : int;
}

val default_config : config
(** 4 workers, chase-lev queue, S = 16, δ = 1, default costs. *)

type result = {
  outcome : Tso.Sched.outcome;
  timing : Tso.Timing.report option;  (** present for timed runs *)
  metrics : Metrics.t;
  executions : int array;
      (** times each task id was executed, indexed by id; an id never
          executed reads 0, and the array may run past the highest id *)
  duplicates : int;  (** tasks executed more than once *)
  lost : int;  (** expected tasks never executed (needs [expected_total]) *)
}

val run_timed :
  ?sink:Telemetry.Sink.t ->
  ?tracer:Telemetry.Chrome_trace.t ->
  ?trace_pid:int ->
  config ->
  Workload.t ->
  result
(** Deterministic discrete-event run under the timing model; this is what
    the performance figures use. [sink]/[tracer]/[trace_pid] are passed to
    {!Tso.Timing.run}; additionally, with a sink attached the run's
    {!Metrics} task aggregates are folded into it on completion. *)

val run_random : ?drain_weight:float -> config -> Workload.t -> result
(** Adversarially scheduled run on the abstract machine (drains delayed with
    [drain_weight], default 0.1); this is what the correctness tests use. *)

(** {1 The scheduler loop} *)

type source = {
  live : unit -> bool;  (** some task is still outstanding *)
  victim : int -> int;
      (** [victim w]: the queue worker [w] probes when its own deque is
          empty, or {!no_victim} to pause instead *)
  run : int -> from:int -> int -> unit;
      (** [run w ~from t]: worker [w] executes task [t], taken from its own
          deque ([from = w]) or stolen from queue [from] *)
}

val no_victim : int

val machine_and_deques :
  sb_capacity:int ->
  workers:int ->
  Ws_core.Registry.impl ->
  Ws_core.Queue_intf.params ->
  Tso.Machine.t * Ws_core.Queue_intf.packed array
(** A fresh abstract-buffer machine and one deque per worker on it, tagged
    [q0], [q1], … in worker order ([params]' own tag is not used). Its
    memory is allocated up front with room for one more deque and a few
    cells per worker, so a run's task arrays are laid out without
    regrowing it. *)

val schedule :
  Metrics.t ->
  Ws_core.Queue_intf.packed array ->
  idle_backoff:int ->
  source ->
  int ->
  unit
(** [schedule metrics queues ~idle_backoff src w]: worker [w]'s loop, run
    inside its simulated thread until [src.live ()] is false. It takes
    from [queues.(w)]; when that is empty it steals from
    [queues.(src.victim w)], working [idle_backoff] cycles after each
    failed steal. It counts its takes, steals and runs in [metrics]; a run
    is stolen only when it came from another worker's deque, not from a
    queue past the workers' (the open system's front door). Puts are the
    source's to count. *)
