(** Discrete-event performance model of a bounded-TSO multicore.

    Each simulated thread is a core with a cycle clock. Instruction classes
    have configurable costs; buffered stores drain to memory in the
    background, one every [drain_latency] cycles per core. A fence (or an
    atomic RMW) cannot execute until the issuing core's buffer has drained,
    so its cost is [base cost + remaining drain time] — exactly the stall the
    paper's fence-free algorithms eliminate. Events (instruction executions
    and drains) are processed in global time order, so a load observes
    precisely the stores that have drained by the time it executes.

    The engine requires the [Abstract] buffer model (the egress/coalescing
    quirk matters for correctness litmus tests, not for timing). *)

type cost_model = {
  load_cost : int;  (** L1-hit load *)
  store_cost : int;  (** issue into the store buffer *)
  rmw_cost : int;  (** CAS / fetch-add, once the buffer has drained *)
  fence_cost : int;  (** fence base cost, once the buffer has drained *)
  drain_latency : int;  (** cycles for one buffered store to reach memory *)
  pause_cost : int;  (** spin-loop pause hint *)
}

val default_costs : cost_model
(** Loads/stores 1 cycle, RMW 24, fence base 24, drain 16, pause 4 — in the
    ballpark of published x86 figures; the harness's machine configs refine
    these per simulated CPU. *)

type thread_stats = {
  finish_time : int;  (** cycle at which the thread completed *)
  instructions : int;
  loads : int;
  stores : int;
  rmws : int;
  fences : int;
  fence_stall : int;  (** cycles spent waiting for drains before fences/RMWs *)
  work_cycles : int;  (** cycles of client [work] executed *)
}

type report = {
  makespan : int;  (** max finish time over all threads *)
  outcome : Sched.outcome;
  steps : int;
  threads : thread_stats array;
}

type clock
(** A run's simulated "now". Formerly a module-global ref, which made any
    two concurrent timed runs corrupt each other's time; each run now owns
    (or is handed) its clock, so {!run} is safe to call from several
    domains at once. *)

val clock : unit -> clock
(** A fresh clock at time 0. *)

val now : clock -> int
(** The simulated time the clock has reached. Host-level code embedded in
    thread programs may read the clock it passed to {!run} to timestamp
    events (e.g. the runtime's metrics). *)

val run :
  ?max_steps:int ->
  ?clock:clock ->
  ?sink:Telemetry.Sink.t ->
  ?shards:Telemetry.Shards.t ->
  ?tracer:Telemetry.Chrome_trace.t ->
  ?trace_pid:int ->
  Machine.t ->
  cost_model ->
  report
(** Drive a machine (with all threads spawned) to quiescence under the
    timing model. Deterministic: ties are broken by (kind, thread id).
    [clock] defaults to a fresh private clock; pass one explicitly when
    thread programs need to observe simulated time mid-run.

    The engine is event-driven: each core caches the time of its next
    drain and the time its pending instruction can execute, recomputed
    only after an event on that core (its instruction step or its drain),
    and each step takes the least cached event. [Machine.quiescent] is
    consulted only when no event is feasible (quiescence vs deadlock) or
    the step budget is spent. The cache is exact by a locality invariant:
    a core's next events depend only on its own thread's pending request,
    its own store buffer and its own clocks. Memory values never gate
    timing, and no event of one core changes another core's request,
    buffer or clocks. A future cross-core timing effect (a shared bus,
    coherence traffic delaying another core's drains, ...) breaks that
    invariant, and must refresh every core it touches.

    [sink], if given, is attached to the machine (so its per-instruction
    counters fill in) and additionally receives the stall attribution only
    the timing engine can compute: [fence_stall_cycles] (drain waits before
    fences/RMWs) and [drain_stall_cycles] (stores waiting on a full
    buffer). [shards] (with [sink]) attaches the sharded counter plane
    instead: each simulated thread accumulates into shard [tid mod n],
    stall attribution lands in the stalled thread's shard, and the run's
    end is the quiescence point where the shards are batch-merged into
    [sink] — totals byte-identical to an unsharded run, with no shared
    counter writes while the run executes. [tracer] records a Chrome trace
    of the run — one span per
    instruction on its simulated core's track, "fence-stall" spans for the
    drain waits, async "sb-store" intervals for each store's residency in
    the store buffer, and an "sb-entries" counter track. [trace_pid]
    (default 0) labels the process id of every traced event, letting a
    harness overlay several runs in one trace. Neither option costs
    anything when omitted. *)
