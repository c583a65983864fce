(** Silicon cross-check: the simulator's fib / graph workloads re-run on
    the native OCaml 5 work-stealing pool ({!Ws_native.Pool}), plus the
    native replay of an open-system scenario (the same load plan the
    timing model replays, submitted through the injector, with
    sojourn-latency percentiles). Surfaced as [wsrepro native] and
    [wsrepro top]. *)

type native_point = {
  tasks : int;
  seconds : float;
  tasks_per_sec : float;
}

type parity_row = {
  workload : string;
  sim_tasks : int;
  sim_makespan : float;  (** simulated cycles *)
  sim_tasks_per_mcycle : float;
  native : native_point;
}

val steal_delay_of_flight :
  Telemetry.Flight_recorder.t -> Telemetry.Histogram.t
(** Join the recorder's reconstructed lineages with their run records and
    histogram [run_ts - spawn_ts] over the [Stolen] ones: how long each
    migrated task waited between its victim-side spawn and its thief-side
    dequeue. *)

val native_fib :
  ?domains:int ->
  ?backend:Ws_native.Pool.backend ->
  ?policy:Ws_native.Pool.victim_policy ->
  ?steal_half:bool ->
  n:int ->
  unit ->
  native_point

val native_graph :
  ?domains:int ->
  ?backend:Ws_native.Pool.backend ->
  ?policy:Ws_native.Pool.victim_policy ->
  ?steal_half:bool ->
  nodes:int ->
  edges:int ->
  seed:int ->
  unit ->
  native_point
(** Pool-side single-source reachability; the visited set is verified
    against a host BFS before the timing is returned. *)

val parity :
  ?machine:Machine_config.t ->
  ?domains:int ->
  ?backend:Ws_native.Pool.backend ->
  ?policy:Ws_native.Pool.victim_policy ->
  ?steal_half:bool ->
  ?fib_n:int ->
  ?graph_nodes:int ->
  ?graph_edges:int ->
  ?seed:int ->
  unit ->
  parity_row list

val render_parity : parity_row list -> string

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
  sn_steals : int;
  sn_injector_runs : int;
  sn_parks : int;
  sn_qwait : Telemetry.Histogram.t;  (** per-cell stage histograms, ns *)
  sn_dispatch : Telemetry.Histogram.t;
  sn_service : Telemetry.Histogram.t;
  sn_steal_delay : Telemetry.Histogram.t;
      (** spawn-to-stolen-run ns, from {!steal_delay_of_flight} *)
  sn_windows : Telemetry.Windowed.t;
      (** request-level rotating sojourn windows; width = the SLO block's
          window (ticks, default geometry when absent) times [sc_tick_ns] *)
}

val backend_of_queue : string -> Ws_native.Pool.backend
(** Map a simulated-queue registry name to the native backend that models
    it: the Chase-Lev family (CAS steals) to [Chase_lev_deques], everything
    else to [The_deques]. *)

val scenario_native :
  ?monitor:(Ws_native.Pool.t -> unit -> unit) ->
  Scenarios.open_spec ->
  scenario_result
(** Replay a scenario's pre-drawn load plan ({!Ws_runtime.Open_load.plan})
    on the native pool: the same inter-arrival gaps and per-stage service
    demands the timing model replays, with ticks mapped to wall time
    through [sc_tick_ns]. Each request's due time is the start plus its
    cumulative gaps, on {!Telemetry.Clock}; the generator sleeps until it,
    records its lateness, and submits through {!Ws_native.Pool.submit}
    under the scenario's injector bound and drop/block policy. Sojourn
    (due time to last chain stage) feeds the returned histogram. The pool
    runs with attribution and flight recording on, so the result carries
    the stage histograms and the steal-delay join.

    [monitor], if given, is called with the running pool before the first
    request and must return a teardown thunk, invoked after the last
    request completes but before the pool shuts down — the hook the
    metrics server and the [wsrepro top] dashboard attach through. *)

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

val pool_metrics : Ws_native.Pool.t -> Telemetry.Openmetrics.metric list
(** One live {!Ws_native.Pool.scrape} rendered as OpenMetrics families:
    per-slot counters (labelled [slot="i"]), pool gauges, and — on
    [~attribution] pools with observations — one cumulative-bucket
    histogram family per stage (qwait, dispatch, service). *)

val metrics_body : Ws_native.Pool.t -> unit -> string
(** [pool_metrics] composed with {!Telemetry.Openmetrics.render}; the
    [body] callback for {!Telemetry.Metrics_server.start} (fresh scrape per
    HTTP request). *)

val serve_metrics_monitor :
  ?quiet:bool -> port:int -> Ws_native.Pool.t -> unit -> unit
(** Start a metrics server scraping the pool and return its stop thunk
    (a {!scenario_native} monitor). Prints the bound endpoint to stderr
    unless [quiet]. *)

val flight_probe :
  ?domains:int ->
  ?backend:Ws_native.Pool.backend ->
  ?rounds:int ->
  ?flight_capacity:int ->
  unit ->
  Telemetry.Flight_recorder.t
(** Run the deterministic steal-forcing workload on a flight-recording
    pool and return the recorder (pool already shut down). Each of the
    [rounds] (default 8) spawns a child the spinning owner cannot pop, so
    the child arrives at its executor by a genuine steal — the recording
    is guaranteed to contain stolen lineage. *)

val flight_section :
  file:string ->
  ?domains:int ->
  ?backend:Ws_native.Pool.backend ->
  ?rounds:int ->
  unit ->
  unit
(** {!flight_probe}, then write the wsrepro-flight/v1 report to [file] and
    a Chrome trace next to it ([file] with extension [.trace.json]), and
    print a one-line summary to stdout. *)

val top : ?serve_metrics:int -> ?interval:float -> Scenarios.open_spec -> unit
(** {!scenario_native} under a refreshing per-slot dashboard (stderr, ANSI
    block redraw via {!Telemetry.Progress}, every [interval] seconds,
    default 0.25); stdout gets only the final {!render_scenario_native}
    summary. [serve_metrics] additionally serves OpenMetrics on that port
    for the duration. *)

val replay : ?serve_metrics:int -> Scenarios.open_spec -> bool
(** Print a native replay of the scenario ({!scenario_native}), judged
    against the scenario's SLO block when it has one (verdict table
    printed, budgets converted to ns). [serve_metrics] serves live
    OpenMetrics scrapes of the replay's pool on the given port (0 picks a
    free one; endpoint printed to stderr). Returns [false] iff an SLO
    budget was violated — the CLI exit status. *)

val run :
  ?machine:Machine_config.t ->
  ?domains:int ->
  ?backend:Ws_native.Pool.backend ->
  ?policy:Ws_native.Pool.victim_policy ->
  ?steal_half:bool ->
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
