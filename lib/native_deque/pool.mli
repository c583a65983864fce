(** A work-stealing pool over the native deques: each domain owns a
    {!Chase_lev} (or {!The_queue}) deque of thunks, pops locally, steals
    when empty (one uniformly random victim per probe), and parks on a
    condition variable when the whole pool runs dry. External domains
    submit through a mutex-protected injector FIFO, preserving the deques'
    single-owner push discipline. Tasks that raise do not kill
    their worker: the first failure is re-raised at the join point. *)

type t

type backend =
  | Chase_lev_deques  (** CAS-based steals, growing deques (default) *)
  | The_deques
      (** THE/Cilk-5 mutex conflict path, fixed capacity 8192 per deque;
          a push beyond it spills to the injector *)

type backpressure =
  | Drop  (** refuse the task; counted in {!injector_drops} *)
  | Block  (** spin until a worker makes room in the injector *)
      (** What {!submit} does when the injector already holds
          [injector_capacity] cells. *)

type worker_stats = {
  mutable spawns : int;  (** tasks pushed by this worker *)
  mutable tasks_run : int;  (** tasks this worker executed *)
  mutable tasks_stolen : int;  (** of those, how many came from a steal *)
  mutable injector_runs : int;  (** of those, how many came from the injector *)
  mutable steal_attempts : int;
  mutable steals : int;  (** successful steal operations *)
  mutable take_empties : int;  (** own-deque pops that found nothing *)
  mutable steal_empties : int;  (** steal attempts on an empty victim *)
  mutable steal_aborts : int;  (** steal attempts that lost a live race *)
  mutable parks : int;  (** times this worker went to sleep *)
}

val create :
  ?domains:int ->
  ?backend:backend ->
  ?attribution:bool ->
  ?debug:bool ->
  ?injector_capacity:int ->
  ?flight:bool ->
  ?flight_capacity:int ->
  unit ->
  t
(** [domains] defaults to [Domain.recommended_domain_count () - 1] worker
    domains plus the caller. [attribution] stamps every cell with
    monotonic-ns stage timestamps — arrival (before any {!submit}
    backpressure spin), inject, dequeue, completion — feeding per-slot
    qwait / dispatch / service histograms ({!stage_hists}). Stages are
    per {e cell}: a worker-spawned continuation arrives the instant it is
    pushed, so its qwait is ~0, while externally submitted cells charge
    backpressure delay to qwait. [debug] asserts the single-owner push
    discipline on every push. [injector_capacity] (default unbounded) is
    the soft bound {!submit} enforces with its backpressure policy;
    {!spawn} and THE overflow spills ignore it, so a worker can always
    make progress.
    [flight] attaches a {!Telemetry.Flight_recorder} — one ring of
    [flight_capacity] events per slot (default 16384) — recording
    spawn/run/steal/steal-abort/inject/park/unpark events with task
    lineage; retrieve it with {!flight}. *)

val parallel_run : t -> (unit -> unit) list -> unit
(** Execute the thunks to completion; each may {!spawn} more work. Returns
    when every spawned task has finished. If any task raised, the first
    exception (in completion order) is re-raised here with its backtrace —
    the run still drains fully and the pool remains usable. Not
    reentrant. *)

val spawn : t -> (unit -> unit) -> unit
(** Enqueue a task from any domain. Pool workers (and the domain inside
    {!parallel_run}) push onto their own deque; any other domain goes
    through the injector queue, so spawning from external domains is
    safe. Never refuses work: the injector bound does not apply (a task
    body must be able to fork unconditionally). *)

val submit : ?policy:backpressure -> t -> (unit -> unit) -> bool
(** Open-system front door: enqueue an externally arriving task through
    the injector, honoring [injector_capacity]. Returns [true] when the
    task was accepted. With [Drop] (and the injector full) the task is
    refused, [false] is returned and {!injector_drops} is bumped;
    with [Block] (the default) the caller spins until a worker makes
    room, so it returns [true]. A submit after, or racing, {!shutdown}
    raises [Invalid_argument] (a [Block] spin stops when shutdown begins);
    a task it accepted is always run, by a worker or by the drain. The
    bound is soft — concurrent submitters race the size check, so the
    depth can transiently exceed capacity by the number of racing
    callers; backpressure needs a dam, not an exact high-water mark. *)

val shutdown : t -> unit
(** Drain all queued work (executing it, not dropping it), then stop and
    join the worker domains. Idempotent: later calls return immediately.
    The pool cannot be reused afterwards ({!spawn}/{!parallel_run} raise
    [Invalid_argument]). Re-raises the first captured task exception, if
    any run left one behind. *)

val worker_count : t -> int
(** Number of worker domains (excluding the coordinator slot). *)

val injector_depth : t -> int
(** Current depth of the external-submission FIFO (one atomic read). *)

val sleeper_count : t -> int
(** Workers parked right now (one atomic read). *)

val injector_drops : t -> int
(** Submissions refused so far under the [Drop] policy. *)

val worker_stats : t -> worker_stats array
(** Copies of the per-slot counters; index 0 is the coordinator, 1..n the
    workers. Taken without stopping workers.

    {b Consistency model.} Writers are never slowed: each slot's counters
    are copied and re-copied until two successive copies agree (at most 4
    copies), which certifies the returned record as a consistent cut of
    that slot's history — a state the slot actually passed through.
    Under sustained writes the retries can exhaust; the last copy is then
    returned and may tear {e across fields only}, by at most the handful
    of events that slot processed during one copy. Each individual field
    is always exact at some instant during the call: every counter is a
    single word written by one domain, so a field read is never torn,
    and all counters are monotone. No consistency holds {e between}
    slots — slot A's copy and slot B's copy are taken at different
    instants. After {!shutdown} every copy is exact. After {!parallel_run}
    returns, the task counts ([spawns], [tasks_run], [tasks_stolen],
    [injector_runs], [steals]) are exact; idle workers keep counting
    failed hunts until they park. *)

val in_flight : t -> int
(** Tasks spawned and not yet finished: every slot's finished count read
    first, every spawned count second. Exact at quiescence; while tasks
    run it may over-count, never under-count. *)

val pending : t -> int
(** Cells enqueued and not yet dequeued: the deques' sizes plus the
    injector's, read one after another. Exact at quiescence only. *)

val flight : t -> Telemetry.Flight_recorder.t option
(** The flight recorder attached at creation ([?flight:true]), for
    post-run lineage reconstruction and reporting. *)

val tasks_run : t -> int
(** Total tasks executed across all slots. *)

val stage_hists : t -> Telemetry.Histogram.t * Telemetry.Histogram.t * Telemetry.Histogram.t
(** Merged (qwait, dispatch, service) stage histograms in nanoseconds,
    non-draining copies. All empty unless [~attribution:true]. *)

val fib : t -> int -> int
(** The inevitable demo: parallel naive Fibonacci on the pool (used by
    examples and the native bench). *)
