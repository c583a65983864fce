(** Silicon cross-check: the simulator's fib / graph workloads re-run on
    the native OCaml 5 work-stealing pool ({!Ws_native.Pool}), plus the
    native replay of an open-system scenario (the same load plan the
    timing model replays, submitted through the injector, with
    sojourn-latency percentiles). Surfaced as [wsrepro native]. *)

val steal_delay_of_flight :
  Telemetry.Flight_recorder.t -> Telemetry.Histogram.t
(** Join the recorder's reconstructed lineages with their run records and
    histogram [run_ts - spawn_ts] over the [Stolen] ones: how long each
    migrated task waited between its victim-side spawn and its thief-side
    dequeue. *)

type scenario_result = {
  sn_injected : int;
  sn_dropped : int;  (** submissions refused at a full injector (Drop) *)
  sn_completed : int;
  sn_elapsed : float;  (** plan start to last completion, seconds *)
  sn_p50_ns : int;
  sn_p99_ns : int;
  sn_p999_ns : int;
  sn_sojourn : Telemetry.Histogram.t;  (** due time to last stage, ns *)
  sn_late : Telemetry.Histogram.t;
      (** generator lateness: submission minus due time, ns, one sample
          per submission (dropped ones included) *)
  sn_peak_injector : int;  (** max injector depth seen at submission *)
  sn_slots : Ws_native.Pool.worker_stats array;
      (** per-slot pool counters, read after the pool's shutdown *)
  sn_qwait : Telemetry.Histogram.t;  (** per-cell stage histograms, ns *)
  sn_dispatch : Telemetry.Histogram.t;
  sn_service : Telemetry.Histogram.t;
  sn_steal_delay : Telemetry.Histogram.t;
      (** spawn-to-stolen-run ns, from {!steal_delay_of_flight} *)
  sn_windows : Telemetry.Windowed.t;
      (** request-level rotating sojourn windows; width = the SLO block's
          window (ticks, default geometry when absent) times [sc_tick_ns] *)
  sn_flight : Telemetry.Flight_recorder.t;
      (** the replay pool's flight recording, one ring per slot sized to
          hold the whole plan *)
}

val backend_of_queue : string -> Ws_native.Pool.backend
(** Map a simulated-queue registry name to the native backend that models
    it: the Chase-Lev family (CAS steals) to [Chase_lev_deques], everything
    else to [The_deques]. *)

val scenario_native : Scenarios.open_spec -> scenario_result
(** Replay a scenario's pre-drawn load plan ({!Ws_runtime.Open_load.plan})
    on the native pool: the same inter-arrival gaps and per-stage service
    demands the timing model replays, with ticks mapped to wall time
    through [sc_tick_ns]. Each request's due time is the start plus its
    cumulative gaps, on {!Telemetry.Clock}; the generator sleeps until it,
    records its lateness, and submits through {!Ws_native.Pool.submit}
    under the scenario's injector bound and drop/block policy. Sojourn
    (due time to last chain stage) feeds the returned histogram. The pool
    runs with attribution and flight recording on, so the result carries
    the stage histograms, the per-slot counters, the steal-delay join and
    the recording itself. Each flight ring holds
    [sc_requests * (6 * sc_chain + 2) + 2] events (rounded up to a power
    of two), more than a slot can record in the run, so the recording
    covers the whole of it; its per-ring [dropped] counts confirm it. *)

val render_scenario_native : Scenarios.open_spec -> scenario_result -> string

val native_verdicts :
  Scenarios.open_spec ->
  Scenarios.slo ->
  scenario_result ->
  Scenarios.verdict list
(** Judge the native replay against the scenario's SLO, tick budgets
    converted to nanoseconds through [sc_tick_ns]: per-window sojourn p99
    over the request-level ring (window indices printed relative to the
    first retained window), whole-run stage p99s, dropped/offered. *)

val flight_probe :
  ?domains:int ->
  ?backend:Ws_native.Pool.backend ->
  ?rounds:int ->
  unit ->
  Telemetry.Flight_recorder.t
(** Run the deterministic steal-forcing workload on a flight-recording
    pool and return the recorder (pool already shut down). Each of the
    [rounds] (default 8) spawns a child the spinning owner cannot pop, so
    the child arrives at its executor by a genuine steal — the recording
    is guaranteed to contain stolen lineage. *)

val replay : ?flight_file:string -> Scenarios.open_spec -> bool
(** Print a native replay of the scenario ({!scenario_native}), judged
    against the scenario's SLO block when it has one (verdict table
    printed, budgets converted to ns). [flight_file] writes the replay's
    own wsrepro-flight/v1 report there, with a Chrome trace next to it
    ([.trace.json]). Returns [false] iff an SLO budget was violated — the
    CLI exit status. *)

val run :
  ?machine:Machine_config.t ->
  ?domains:int ->
  ?backend:Ws_native.Pool.backend ->
  ?fib_n:int ->
  ?graph_nodes:int ->
  ?graph_edges:int ->
  ?flight_file:string ->
  ?seed:int ->
  unit ->
  unit
(** Print the parity table. [flight_file] appends a second section: the
    steal-forcing flight-recorder probe, its wsrepro-flight/v1 report
    written to the given path (Chrome trace alongside). *)
