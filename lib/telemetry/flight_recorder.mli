(** Per-slot flight recorder for the native work-stealing pool.

    One fixed-capacity ring buffer per pool slot plus one shared ring for
    external (injecting) domains. Each event is a compact (kind, task, arg,
    monotonic-ns timestamp) quadruple stored at stride 4 in a flat int
    array.

    {b Single-writer discipline.} [record t ~slot] must only ever be called
    by the domain that owns [slot] — the pool already guarantees this for
    its deques, and the recorder piggybacks on the same ownership. Under
    that discipline recording is four plain int stores plus one clock read:
    no CAS, no fence, no allocation (the bench probe pins it ≲50 ns/event).
    External domains own no slot and must use {!record_external}, which
    serializes through a mutex — acceptable because injection is already a
    locked cold path.

    {b Drop-oldest.} A full ring overwrites its oldest event. The
    per-ring write count never resets, so {!dropped} is exact:
    [max 0 (wrote - capacity)].

    {b Event argument conventions} (what the lineage reconstructor keys on):
    - [Spawn]: [task] = child id, [arg] = parent task id ([-1] = root);
      recorded in the {e spawner}'s ring at push time.
    - [Inject]: [task] = id, [arg] = -1; recorded in the external ring.
    - [Run]: [task] = id, [arg] = provenance — {!origin_pop} for an own-deque
      pop, {!origin_inject} for an injector dequeue, a victim slot [>= 0]
      for a steal; recorded in the executing slot's ring at dequeue time.
    - [Steal]: [task] = id, [arg] = victim slot; thief's ring.
    - [Steal_abort]: [task] = -1, [arg] = victim slot; thief's ring.
    - [Park]/[Unpark]: [task] = [arg] = -1. *)

type kind = Spawn | Run | Steal | Steal_abort | Inject | Park | Unpark

val kind_name : kind -> string

val origin_pop : int
(** Run-event [arg] for a task popped from the executing slot's own deque. *)

val origin_inject : int
(** Run-event [arg] for a task dequeued from the shared injector. *)

val no_task : int
(** [task] value for events that concern no task (park, steal-abort). *)

val no_arg : int
(** [arg] value for events whose argument slot is unused. *)

type t

val max_capacity : int
(** The largest capacity {!create} takes: a ring is one array of 4 words
    per event ([2{^51}] events on a 64-bit host). *)

val create : ?capacity:int -> slots:int -> unit -> t
(** [slots] pool slots (coordinator included) plus one external ring.
    [capacity] is events per ring, rounded up to a power of two
    (default 16384, i.e. 512 KiB per ring at 4 words/event).
    @raise Invalid_argument if [capacity] is below 1 or above
    {!max_capacity}. *)

val slots : t -> int
val capacity : t -> int
(** Per-ring capacity after power-of-two rounding. *)

val record : t -> slot:int -> kind -> task:int -> arg:int -> unit
(** Record one event in [slot]'s ring. Single-writer: only [slot]'s owning
    domain may call this. Never blocks, never allocates. *)

val record_external : t -> kind -> task:int -> arg:int -> unit
(** Record one event in the shared external ring (mutex-serialized). *)

val wrote : t -> slot:int -> int
(** Events ever recorded in [slot]'s ring (monotone, not capped). *)

val dropped : t -> int array
(** Exact overwritten-event count per ring, index [slots] = external. *)

(** {1 Decoding} *)

type event = {
  slot : int;  (** -1 = external ring *)
  kind : kind;
  task : int;
  arg : int;
  ts : int;  (** nanoseconds relative to recorder creation *)
}

val events_of_slot : t -> int -> event list
(** Retained events of one ring, oldest first ([-1] = external ring). *)

val events : t -> event list
(** All retained events merged in timestamp order (stable across rings). *)

(** {1 Lineage reconstruction} *)

type origin = Pop | Injected | Stolen of int  (** victim slot *)

type lineage = {
  id : int;
  parent : int;  (** spawning task id, -1 = external/root *)
  spawn_slot : int;  (** -1 = injected from outside the pool *)
  spawn_ts : int;
  run_slot : int;
  run_ts : int;
  origin : origin;
  steal_depth : int;  (** stolen links on the spawn-ancestry path *)
}

val reconstruct : t -> lineage list * int
(** Pair every retained [Run] event with its [Spawn]/[Inject] record. The
    second component counts runs whose spawn record was overwritten
    (unresolvable lineage). Sorted by task id. *)

(** {1 wsrepro-flight/v1 report} *)

val schema_id : string

val report : t -> Json.value
(** Byte-stable report: schema id, per-ring drop counts, per-task lineage
    with queue residency, a summary with residency and steal-chain-depth
    histograms, and the merged raw event stream. *)

val report_string : t -> string
val write_report : t -> string -> unit

val validate : Json.value -> (unit, string) result
(** Structural validation of a wsrepro-flight/v1 document: schema id,
    ring/drop-count shape, and per-task lineage invariants (known origin,
    steal victim present, distinct from the thief, positive depth). *)

val to_chrome : ?pid:int -> t -> Chrome_trace.t
(** Render spawn/run instants per slot with flow arrows from the victim-side
    push to the thief-side run for every stolen task. Timestamps in µs. *)
