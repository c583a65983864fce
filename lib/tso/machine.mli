(** The bounded-TSO abstract machine (paper §2, extended per §7.3).

    A machine is a shared {!Memory.t}, a set of threads each with a bounded
    {!Store_buffer.t}, and a transition relation. Scheduling — which enabled
    transition fires next — is external: {!Sched} (random / weighted),
    {!Explore} (bounded exhaustive) and {!Timing} (discrete-event performance
    model) all drive the same machine. *)

type config = {
  sb_capacity : int;  (** store-buffer entries, the S of TSO[S] *)
  buffer_model : Store_buffer.model;
}

val abstract_config : sb_capacity:int -> config
(** The pure TSO[S] abstract machine of §2. *)

val realistic_config : sb_capacity:int -> coalesce:bool -> config
(** The §7.3 microarchitectural model: an egress buffer B raises the
    observable reordering bound to [sb_capacity + 1], and [coalesce] enables
    same-address store coalescing in B. *)

type t

val create : ?mem:Memory.t -> config -> t
val memory : t -> Memory.t
val config : t -> config

(** {1 Threads} *)

type tid = int

val spawn : t -> name:string -> (unit -> unit) -> tid
(** Register a thread program. The program starts paused at its first
    instruction. Threads must be spawned before the machine is driven. *)

val release : t -> unit
(** Unwind every thread that is still paused ({!Program.release}), so that
    its fiber stack returns to the domain's stack cache, and mark it done.
    A machine dropped with paused threads keeps one fiber stack per paused
    thread for the life of the process: OCaml 5.1.1 frees the stack of a
    continuation only when it is resumed or discontinued, never when the
    continuation is garbage. The explorer builds a fresh instance for every
    sibling it restores or replays, so it follows one rule: whoever builds
    an instance releases it, on every exit, including {!Explore.Stop}.
    Without that rule [verify]'s eight searches peaked at 343 MB of RSS.

    Releasing twice, or releasing a machine whose threads all finished,
    does nothing. A released machine must not be driven: its threads read
    as done, but its memory and store buffers still hold the state it was
    released in. If a body raises while unwinding, every thread is still
    released and the first such exception is re-raised. *)

val thread_count : t -> int
val thread_name : t -> tid -> string
val thread_done : t -> tid -> bool
val all_done : t -> bool
val buffered_stores : t -> tid -> int
(** Stores of thread [tid] not yet globally visible (buffer proper plus B). *)

val buffered_entries : t -> tid -> (Addr.t * int) list
(** The stores of thread [tid] not yet globally visible, oldest-first (the
    egress slot B first when occupied, then the buffer proper). These are
    exactly the program-order-earlier stores a load committing {e now}
    would be reordered ahead of — the raw material of the forensics
    layer's reorder witnesses. Cold path; allocates. *)

val quiescent : t -> bool
(** All threads finished and all store buffers drained. *)

val steps : t -> int
(** Number of transitions applied so far. *)

(** {1 Transitions} *)

type transition =
  | Step of tid  (** execute the thread's pending instruction *)
  | Drain of tid
      (** memory subsystem propagates the oldest store of the thread's
          buffer *)
  | Flush of tid  (** memory subsystem writes the egress buffer B to memory *)

val enabled : t -> transition list
(** All transitions enabled in the current state, in a deterministic order
    (threads by tid; per thread [Flush], then [Drain], then [Step]).
    Empty iff the machine is quiescent or deadlocked. A list view of
    {!enabled_into}: it allocates a fresh list, so the drivers on the hot
    path use {!enabled_into} instead. *)

type tbuf
(** A reusable buffer of transitions, so a driver taking millions of steps
    can recompute the enabled set without allocating per step. Transitions
    handed out through it are the machine's preallocated per-thread values. *)

val tbuf_create : unit -> tbuf
val tbuf_length : tbuf -> int
val tbuf_get : tbuf -> int -> transition
val tbuf_set : tbuf -> int -> transition -> unit

val tbuf_truncate : tbuf -> int -> unit
(** Shorten the buffer (used by the explorer's in-place no-op filter). *)

val enabled_into : t -> tbuf -> int
(** Refill [tbuf] with the enabled set (in {!enabled} order), returning its
    length. The previous contents are discarded. Steady-state refills are
    allocation-free for the FIFO buffer models. *)

val pending_request : t -> tid -> string option
(** Description of the instruction a paused thread waits to execute. *)

type event =
  | Ev_exec of { tid : tid; instr : string }
  | Ev_drain of { tid : tid; result : Store_buffer.drain_result }
  | Ev_flush of { tid : tid; addr : Addr.t; value : int }
  | Ev_done of tid

val apply : t -> transition -> unit
(** Fire one enabled transition. @raise Invalid_argument if not enabled,
    or if it steps a thread that lags behind a {!restore_into} and whose
    replay diverges from the snapshot. Stepping a lagging thread first
    replays it ({!catch_up}); that costs the simulator, which never
    restores, one boolean test per step. Events (including their formatted instruction strings) are only
    constructed when at least one listener is registered. An unobserved
    machine still allocates per instruction: the continuation the thread's
    next instruction captures and that instruction's request, with the
    effect, handler and [Paused_at] blocks around them; a drain allocates
    its {!Store_buffer.drain_result}. One Fig. 10 grid point (Fib 18, FF-THE,
    simulated Haswell) averages 13.3 minor words per step, set-up
    included. *)

val on_event : t -> (event -> unit) -> unit
(** Register a trace listener, called after every {!apply}. Listeners fire
    in registration order; registration is amortised O(1). *)

(** {1 Telemetry} *)

val set_sink : t -> Telemetry.Sink.t -> unit
(** Attach a counter sink. While attached, every {!apply} updates the
    sink's machine-level counters (loads, stores, cas, fences, drains,
    flushes, coalesces, store-buffer occupancy, ...). Mirrors the listener
    laziness: with no sink attached the per-transition cost is one mutable
    field read. *)

val clear_sink : t -> unit

val sink : t -> Telemetry.Sink.t option
(** The sink attached by {!set_sink}, if any. *)

val count_delta_check : t -> unit
(** Bump the δ-check counter (fence-free steal-side bound checks); no-op
    when no sink is attached. Called by the deque implementations. *)

(** {1 Introspection for the timing engine} *)

type request_class =
  | C_none  (** the thread is done *)
  | C_load
  | C_store
  | C_rmw  (** cas / fetch-and-add *)
  | C_fence
  | C_work  (** its cycle count is {!pending_work} *)
  | C_free  (** label / pause *)

val pending_class : t -> tid -> request_class
(** Classification of the pending instruction, [C_none] if the thread is
    done. A constant constructor: the timing engine calls it after every
    event on a core and allocates nothing. *)

val pending_work : t -> tid -> int
(** The cycle count of the pending instruction when it is a [work]
    ([C_work]); 0 otherwise. *)

val pending_load : t -> tid -> (Addr.t * int * bool) option
(** If the thread's pending instruction is a plain load: its address, the
    value it would observe if it committed in the current state, and
    whether that value forwards from the thread's own store buffer rather
    than memory. [None] for every other instruction class (atomic RMWs
    read memory too, but they only execute on an empty buffer, so they can
    never be reordered with earlier stores). Used by the forensics layer
    to capture reorder witnesses just before a recorded load commits. *)

val store_blocked : t -> tid -> bool
(** The thread's pending instruction is a store and the buffer is full. *)

val fingerprint : t -> int
(** An incremental structural hash (FNV-style over ints; it allocates
    nothing) of the machine's data state: memory contents and, per
    thread, the program position (a rolling hash of every request the
    thread has executed and the response it got), the egress slot B, and
    the buffer proper. A deterministic thread program is a function of its
    response history, so the position also fixes whether the thread is
    done and which request it waits at: the key leaves both out, and
    {!apply_data} can compute it without resuming any thread. (The lazy
    replay of {!restore_into} rests on the same determinism, and checks it
    when a replay lands.) Equal fingerprints imply equal machine states
    (modulo hash collisions), which is what lets {!Explore.search}'s
    memoization prune converged interleavings soundly. Host-side effects
    performed by thread bodies are covered exactly when they are a
    function of the response history and commute across threads (true for
    per-thread result registers and commutative counters). *)

val fingerprint_digest : t -> string
(** The pre-optimisation MD5 digest of the same state components plus each
    thread's control state (done, or the pending request), kept as a debug
    cross-check: the test suite asserts that {!fingerprint} and this
    digest induce the same equality classes over the states of each
    program it walks, which also checks that the history hash fixes the
    control state. Slow; not used by the explorer. *)

(** {1 Transition footprints}

    The dependence structure source-DPOR and its sleep sets
    ({!Explore.search} [~dpor:true]) are built on. Every machine transition
    reads and/or writes at most one shared-memory address:

    - a [Step] of a load reads its address; a [Step] of a CAS / fetch-add
      reads and writes its address; a [Step] of a {e store} touches no
      shared address at all — the store only enters the issuing thread's
      private buffer (the memory write happens at the later [Drain]/[Flush]
      that propagates it, and that transition carries the write);
    - a [Drain] writes the address of the oldest buffered store; in the
      realistic model a drain that merely stages into B
      still claims the write, conservatively — staging changes what a
      subsequent same-address [Flush] writes;
    - a [Flush] writes the address held in B.

    Two transitions are {!independent} iff they belong to different threads
    and no write of one conflicts with a read or write of the other.
    Independent transitions commute: applying them in either order reaches
    the same machine state, and neither enables nor disables the other
    (enabledness of a thread's transitions depends only on that thread's
    own status and buffer, which the other thread's transition cannot
    touch). *)

type footprint = private int
(** An immediate int: the thread and both address indices packed into one
    word, so taking, storing and comparing footprints allocates nothing.
    Read it through the accessors below. *)

val footprint : t -> transition -> footprint
(** The footprint of an {e enabled} transition {e in the current state}
    (a drain's target address is the buffer head now; it changes as the
    buffer moves, so footprints must be taken at the state where the
    transition is enabled). Allocates nothing.
    @raise Invalid_argument if the thread id is at least 2{^14} or an
    address index at least 2{^24} - 1, which the packing cannot hold. *)

val independent : footprint -> footprint -> bool
(** Symmetric; [false] for two transitions of the same thread. *)

val footprint_tid : footprint -> tid
val footprint_read : footprint -> int
(** Memory address index the transition reads, or [-1] for none. *)

val footprint_write : footprint -> int
(** Memory address index the transition writes (conservatively including
    staging into B), or [-1] for none. *)

(** {1 Snapshot / restore}

    One-shot effect continuations cannot be cloned, so machine states
    cannot be saved by copying alone. Instead, a {e recording} machine
    keeps each thread's decoded response log; {!snapshot} copies that log
    together with memory, buffers, hashes and each thread's pending
    request into preallocated scratch, and {!restore_into} puts the state
    onto a {e fresh} machine built by the same deterministic constructor.
    The fresh machine's own continuations catch up lazily: a thread's
    continuation is fast-forwarded through its recorded responses (no
    memory or buffer effects re-run; the snapshot already holds the data
    state) only when {!apply} first steps the thread, or at {!catch_up}.
    A sibling subtree that never runs a thread never pays for its replay.
    This turns the explorer's sibling exploration from an O(depth) replay
    of machine transitions from the root into an O(state) restore plus
    the replay of the threads the subtree steps, with no enabled-set
    recomputation, no drain/flush re-execution and no scheduling.

    {b Host-side effects.} A thread body's host code (a check closure's
    result cell, a scenario's removal count) runs again as its thread
    replays, so on a restored machine it has run only for the threads
    that have stepped since the restore. Call {!catch_up} before reading
    it; {!Explore.search} does so before every leaf check. Bodies must
    not pass data between threads through host state: replay runs the
    host code of different threads in a different order than the original
    run did. *)

val set_record_responses : t -> bool -> unit
(** Turn response recording on or off. Recording must be enabled before the
    machine executes its first instruction (@raise Invalid_argument
    otherwise); while off, {!apply} pays a single boolean test. Turning
    recording off runs {!catch_up}, then discards the logs. *)

val record_responses : t -> bool

type snapshot
(** Growable scratch for one captured state; reusable across {!snapshot}
    calls (capture into an already-sized snapshot allocates nothing). *)

val snapshot_create : unit -> snapshot

val snapshot : t -> snapshot -> unit
(** Capture the machine's complete state ([t] must be recording:
    @raise Invalid_argument otherwise). The snapshot shares no mutable
    structure with the machine. It keeps each thread's status value for
    its pending request, whose continuation stays the machine's: nothing
    ever resumes or discontinues it through the snapshot. A machine whose
    threads still lag behind a restore can be captured too. Capture into
    scratch already sized for this machine allocates nothing, and every
    copy into it (memory, response logs, buffer entries) is a typed [int]
    loop: OCaml 5.1's [caml_array_blit], behind [Array.blit], calls
    [caml_modify] for every element once the destination is in the major
    heap, as long-lived scratch is, which made this call cost 341–510 ns
    on a [verify] scenario at depth 10–37, where the loops take
    104–227 ns. *)

val restore_into : snapshot -> t -> unit
(** [restore_into snap t] puts the captured state onto [t], which must be
    a {e fresh, undriven} machine built by the same deterministic
    constructor as the snapshotted one (same threads, same memory layout:
    @raise Invalid_argument otherwise). It restores memory, the store
    buffers, the history hashes and each thread's response log, and gives
    each thread the snapshot's pending request, so that {!enabled_into},
    {!fingerprint}, {!footprint}, the [pending_*] readers,
    {!store_blocked} and {!quiescent} read the captured state at once. It
    resumes no continuation: each of [t]'s threads lags until {!apply}
    steps it or {!catch_up} runs, and only then does its body's host code
    run. {!release} discontinues a lagging thread's own continuation,
    never the snapshot's. [t] is left recording, so it can itself be
    snapshotted. Bumps the sink's [snapshot_restores] counter when one is
    attached.

    {b Attached listeners and sinks survive the restore} — they belong to
    the target machine [t], not to the snapshot, and restoring neither
    detaches nor re-registers them. But the catch-up is {e silent}: the
    recorded responses are fed straight to the continuations without
    going through {!apply}, so no {!event} is emitted and no sink counter
    (other than [snapshot_restores]) is bumped for the instructions being
    replayed. A {!Trace} attached to [t] before the restore therefore
    records only the transitions applied {e after} it — by design: the
    explorer restores mid-schedule states whose prefixes were already
    observed once, and re-emitting them would double-count every counter.
    To obtain a complete event stream of a recorded schedule, replay it
    from the root with the listener attached (what the forensics layer
    does) instead of restoring into an observed machine. *)

val restore_data : snapshot -> t -> unit
(** [restore_data snap t] puts the captured data state onto [t], a
    machine built by the same deterministic constructor (same threads,
    same memory layout: @raise Invalid_argument otherwise): memory, the
    store buffers, the history hashes and each thread's pending request,
    as {!restore_into} does, but no response log and no step count, and no
    sink counter moves. [t] need not be fresh. It becomes a {e probe}:
    drive it only with {!apply_data}, read it with {!fingerprint}, restore
    it again, or {!release} it, which discontinues its own continuations,
    never the snapshot's. The explorer keeps one probe per memoised
    search to key a sibling before it builds one. *)

val apply_data : t -> transition -> unit
(** Fire an enabled transition on a probe ({!restore_data}) with the data
    effects of {!apply}: the same request execution, history-hash update
    and buffer, drain and flush updates, so that {!fingerprint} afterwards
    equals that of a real instance after {!apply}. It resumes no
    continuation, logs no response, counts no step and informs no
    listener or sink. A stepped thread's next request is unknown until its
    body resumes, so it reads as done until the next {!restore_data}.
    @raise Invalid_argument if the transition is not enabled. *)

val catch_up : t -> unit
(** Replay every thread that still lags behind a {!restore_into}, in tid
    order, so that every thread body's host-side effects exist: a thread
    that finished before the snapshot has run its body to the end again.
    Silent, like the restore. Does nothing on a machine that was never
    restored, or whose threads have all stepped since.
    @raise Invalid_argument ["thread diverged from snapshot"] if a
    thread's replay does not end where the snapshot's thread was: done, or
    paused at the same request. {!apply} raises the same when it steps a
    lagging thread whose replay diverges. *)
