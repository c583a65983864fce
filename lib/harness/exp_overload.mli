(** Heavy-traffic overload sweep: a scenario run at 1x/2x/4x its offered
    load on the timing model and (optionally) the native pool, tail
    latencies side by side, written as a [wsrepro-overload/v1] report.
    Surfaced as [wsrepro scenario]. The sim sweep fans out with
    {!Par_runner.map_sharded}, so the report's queue counters come out of
    the sharded measurement plane merged at the join. *)

val schema : string
(** ["wsrepro-overload/v1"] *)

val default_factors : float list
(** [[1.0; 2.0; 4.0]] *)

type point = {
  ov_label : string;  (** "1x", "2x", ... *)
  ov_offered : float;  (** arrivals per 1000 ticks after scaling *)
  ov_sim : Ws_runtime.Open_system.report;
  ov_native : Exp_native.scenario_result option;
}

val scale_spec : Scenarios.open_spec -> float -> Scenarios.open_spec
(** Multiply the arrival rate(s) by the factor — same seed, same service
    mix, denser arrivals. Burst switching probabilities are untouched. *)

val sim_point :
  ?sink:Telemetry.Sink.t ->
  Scenarios.open_spec ->
  Ws_runtime.Open_system.report
(** One timing-model run of the scenario ({!Scenarios.open_config} +
    {!Ws_runtime.Open_system.run}). *)

val run :
  ?factors:float list ->
  ?native:bool ->
  ?jobs:int ->
  ?sink:Telemetry.Sink.t ->
  Scenarios.open_spec ->
  point list
(** The sweep. Sim points fan out over [jobs] domains; with [sink] each
    domain accumulates into a private shard, merged into [sink] at the
    join. Native points (when [native]) run strictly one at a time after
    the sim sweep — each owns its worker domains, and overlapping pools
    would corrupt the tail latencies being measured. *)

val report_json :
  ?sink:Telemetry.Sink.t ->
  ?slo_ok:bool ->
  Scenarios.open_spec ->
  point list ->
  Telemetry.Json.value
(** Byte-stable report: schema tag, the scenario (round-trippable through
    {!Scenarios.open_spec_of_json}), per-point sim/native blocks (the sim
    block carries stage p99s and the sojourn/qwait window series; the
    native block also carries the three stage histograms in full and
    every pool slot's {!Ws_native.Pool.worker_stats} counters), the SLO
    outcome when one was judged, and — with [sink] — the merged queue
    counters. *)

val validate : Telemetry.Json.value -> (unit, string) result
(** Structural check for [wsrepro json-check]: schema tag, valid embedded
    scenario, non-empty points, per-point completed = injected, monotone
    p50 <= p99 <= p999 (sim and native), non-negative stage p99s,
    window series with strictly increasing window indices, and in a
    native block the three stage histograms and one object per pool slot
    carrying every counter. *)

val verdicts : Scenarios.slo -> point list -> Scenarios.verdict list
(** Judge every sweep point: the per-window sojourn p99 budget against
    each retained window of the point's sojourn ring, stage budgets
    against whole-run stage p99s, the drop budget against
    dropped/offered. Deterministic, hence cram-lockable. *)

val render : point list -> string
(** The sim-vs-native comparison table. Units stay per-engine (ticks vs
    microseconds): the comparison is of shapes — tail growth, drop onset —
    not absolute values. *)

val section :
  ?factors:float list ->
  ?native:bool ->
  ?jobs:int ->
  ?out:string ->
  Scenarios.open_spec ->
  unit ->
  bool
(** CLI body: run the sweep, print the table (plus the SLO verdict table
    when the scenario carries an [slo] block), and with [out] write the
    [wsrepro-overload/v1] report (queue counters included). Returns false
    iff an SLO budget was violated — the CLI exit status. *)
