(** Shared experiment plumbing: one timed run of a workload on a simulated
    machine under a queue variant. *)

val config :
  Machine_config.t ->
  Variants.t ->
  ?workers:int ->
  seed:int ->
  unit ->
  Ws_runtime.Engine.config
(** Engine configuration for the machine/variant pair ([workers] overrides
    the machine's core count, e.g. Fig. 1's single-threaded runs and the
    torus's 2 threads). *)

val run_dag :
  Machine_config.t ->
  Variants.t ->
  ?workers:int ->
  seeds:int list ->
  ?sink:Telemetry.Sink.t ->
  ?tracer:Telemetry.Chrome_trace.t ->
  ?trace_pid:int ->
  Ws_runtime.Dag.t ->
  name:string ->
  float list
(** Makespans (cycles) over the seeds. Raises [Failure] if a run does not
    reach quiescence or loses/duplicates a task — the experiments must only
    report numbers from provably-complete runs. [sink] accumulates counters
    over every seed's run; [tracer]/[trace_pid] record Chrome-trace spans
    (see {!Ws_runtime.Engine.run_timed}). *)

val forensics_report :
  Scenarios.spec ->
  ?progress:bool ->
  ?sink:Telemetry.Sink.t ->
  choices:int list ->
  message:string ->
  unit ->
  (Forensics.Report.t, string) result
(** Full counterexample forensics for one recorded failure of a scenario:
    ddmin-minimize the choice sequence (oracle: replay on a fresh
    {!Scenarios.instance} must reproduce [message]), then replay the
    minimized schedule with reorder-witness extraction. The report's
    [config] is {!Scenarios.spec_json}. With [progress], a live shrink
    status line is maintained on stderr. *)

val run_checked :
  Machine_config.t ->
  Variants.t ->
  ?workers:int ->
  seed:int ->
  (unit -> Ws_workloads.Graph_workloads.checked) ->
  float * Ws_runtime.Metrics.t
(** One run of a self-verifying (graph) workload: makespan and metrics.
    Raises [Failure] if the run fails verification. *)
