(** Small worker/thief scenarios over a single queue, packaged as
    {!Tso.Explore.instance}s so they can be driven three ways: exhaustively
    (bounded model checking), by random schedules (litmus-style), or replayed
    from a failing choice sequence. Used by the [check]/[explore] CLI
    commands and throughout the test suite. *)

type spec = {
  queue : string;  (** registry name *)
  sb_capacity : int;
  buffer_model : Tso.Store_buffer.model;
  delta : int;
  worker_fence : bool;
  preloaded : int;  (** items in the queue at the start *)
  puts : int;  (** items the worker puts before it starts taking *)
  steal_attempts : int;  (** thief tries, each counted even on Abort/Empty *)
  thieves : int;
  client_stores : int;  (** worker stores between takes *)
}

val default_spec : spec
(** ff-the on TSO[2], δ=1, 2 preloaded, 1 put, 1 thief with 2 attempts —
    small enough to explore exhaustively. *)

val spec_json : spec -> (string * Telemetry.Json.value) list
(** The spec as JSON fields, for embedding in a forensics report's
    [config] object. Deterministic field order. *)

val task_capacity : spec -> int
(** The size of the scenario queue's task array: the smallest power of two
    of at least [max 8 (preloaded + puts + 1)] cells. Every task fits with
    a cell to spare, and 8 keeps chase-lev-dyn's initial buffer. *)

val instance : spec -> unit -> Tso.Explore.instance
(** [instance spec] looks the queue up and does the rest of the per-spec
    work once (@raise Not_found for a queue not in the registry), and
    returns the builder: each call makes a fresh machine + threads + safety
    check. The check verifies, at quiescence: no task extracted twice
    (unless the queue is idempotent), no task lost (worker drains to
    Empty), and no Abort from queues that must not abort. *)

val random_check :
  spec -> seeds:int list -> ?drain_weight:float -> unit -> (unit, string) result
(** Run the scenario once per seed under adversarial random scheduling;
    first failure wins. *)

val explore_check :
  spec ->
  ?max_runs:int ->
  ?max_depth:int ->
  ?preemption_bound:int option ->
  ?memo:bool ->
  ?dpor:bool ->
  ?progress:bool ->
  unit ->
  Tso.Explore.stats * bool
(** Bounded exhaustive exploration of the scenario. [memo] enables the
    visited-state cache; [dpor] enables source-DPOR with sleep sets (same
    verdicts and failure prefixes, fewer runs). With [progress] a live
    status line (runs/s, depth frontier, memo hit rate) is maintained on
    stderr. Defaults: [memo = false], [dpor = false], [progress = false].
    Returns the explorer statistics and a clean-verdict flag, true iff the
    search completed within its run budget, found no failure and cut no
    run at the depth bound. *)

(** {1 Open-system scenarios}

    One JSON description ([wsrepro-scenario/v1]) drives both engines: the
    timing model replays the pre-drawn load plan in simulated ticks, the
    native pool replays the {e same} plan with ticks mapped to wall time
    through [sc_tick_ns]. Parsing is strict: unknown fields are rejected
    (top level and inside the nested arrival/service objects), so a
    typo'd knob fails loudly instead of silently running a default. *)

(** Service-level objective for a scenario, all budgets in simulated
    ticks (the native replay converts through [sc_tick_ns]).
    [slo_p99_sojourn] is judged against the p99 of {e each} retained
    window of the sojourn ring; the stage budgets against the whole-run
    stage p99s; [slo_max_drop_rate] against dropped/offered. JSON form:
    [slo: {p99_sojourn, max_drop_rate,
    stage_budgets: {qwait, dispatch, service}, window, windows}], every
    budget optional (absent = not judged). *)
type slo = {
  slo_p99_sojourn : int option;  (** per-window p99 budget, ticks *)
  slo_max_drop_rate : float option;  (** dropped / offered, in [0, 1] *)
  slo_qwait_p99 : int option;  (** whole-run stage p99 budgets, ticks *)
  slo_dispatch_p99 : int option;
  slo_service_p99 : int option;
  slo_window : int;  (** window width, ticks *)
  slo_window_slots : int;  (** windows retained (and judged) *)
}

val default_slo : slo
(** No budgets (nothing judged), 8192-tick windows, 16 retained. *)

type open_spec = {
  sc_name : string;
  sc_queue : string;  (** registry name *)
  sc_workers : int;
  sc_requests : int;
  sc_chain : int;  (** dependent stages per request *)
  sc_seed : int;
  sc_capacity : int;  (** injector backpressure bound *)
  sc_policy : Ws_runtime.Open_load.policy;
  sc_tick_ns : int;  (** native runner: wall nanoseconds per tick *)
  sc_arrival : Ws_runtime.Open_load.arrival;
  sc_service : Ws_runtime.Open_load.service;
  sc_slo : slo option;  (** absent: no verdicts, default windowing *)
}

val open_schema : string
(** ["wsrepro-scenario/v1"] *)

val default_open_spec : open_spec
(** 3 ff-the workers, Poisson 2.0/ktick, exponential 400-tick services in
    3 stages, capacity 64, block, 50 ns/tick. *)

val open_spec_json : open_spec -> Telemetry.Json.value
(** Byte-stable emission (deterministic field order, fixed float format):
    emit → parse → emit is the identity on bytes. *)

val open_spec_of_json :
  Telemetry.Json.value -> (open_spec, string) result
(** Strict parse + validation: schema tag must match {!open_schema},
    unknown fields are rejected everywhere, the queue must exist in the
    registry, counts must be >= 1, [capacity] below the engine's task
    arrays (16,384 cells), rates > 0 and probabilities in [0, 1]. Counts
    are bounded from above by what one run can hold: [workers] by
    {!max_workers}, [requests] and [chain] by the replay's flight rings
    ({!replay_flight_capacity}). Every field except [schema] is optional
    and defaults from {!default_open_spec}. *)

val max_workers : int
(** 127: [native --scenario] runs one domain per worker beside the main
    domain, and OCaml 5.1 runs at most 128 domains. *)

val replay_flight_capacity : open_spec -> int
(** Events per pool slot that hold a whole native replay of the spec,
    [requests * (6 * chain + 2) + 2]; a parsed spec's is at most
    {!Telemetry.Flight_recorder.max_capacity}. *)

val load_open_spec : string -> (open_spec, string) result
(** {!open_spec_of_json} over a file, with the path prefixed to errors. *)

(** One judged SLO budget: a per-window sojourn row, a whole-run stage
    row, or the drop-rate row. Shared by the sim sweep (budgets in ticks)
    and the native replay (converted to ns) so both print the same table
    shape. *)
type verdict = {
  vd_load : string;  (** sweep point label, ["-"] for a single run *)
  vd_window : string;  (** window index, ["-"] for whole-run budgets *)
  vd_metric : string;
  vd_actual : string;
  vd_budget : string;
  vd_ok : bool;
}

val verdicts_ok : verdict list -> bool

val render_verdicts : name:string -> units:string -> verdict list -> string
(** Verdict table plus a final [SLO: PASS] / [SLO: FAIL (n violations)]
    line. Deterministic given deterministic rows. *)

val open_config : open_spec -> Ws_runtime.Open_system.config
(** The spec as a timing-model open-system config (native-only fields
    like [sc_tick_ns] do not appear; engine knobs not in the DSL keep
    {!Ws_runtime.Open_system.default_config} values). *)

