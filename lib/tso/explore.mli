(** Bounded stateless model checking of machine programs.

    Explores the tree of scheduler choices by depth-first search. A thread
    program's continuation cannot be cloned, so each sibling branch starts
    on a fresh machine built by [mk], restored from a snapshot of the
    branch node (or replayed from the root: see [snapshots] below).

    The search is bounded by depth, by a total-run budget, and optionally by
    a CHESS-style preemption bound (switching away from a thread whose next
    instruction is still enabled costs one preemption; drain and flush
    transitions are free, since TSO reordering lives in exactly those
    choices and must stay unrestricted).

    With [memo = true] the search additionally keeps a visited-state cache
    keyed by {!Machine.fingerprint}: two interleavings that converge to the
    same machine state have identical subtrees, so the second one is pruned
    (counted in [memo_hits]). The fingerprint hashes the data state alone
    (memory, store buffers and each thread's response history); because
    the history covers per-thread program position, the cache never merges
    states whose threads observed different values — verdicts are
    unchanged, only redundant work is cut. Under a preemption bound the
    cache only prunes a revisit whose remaining budget is covered by an
    earlier visit, so bounding stays exact.

    With [dpor = true] the search applies {e source dynamic partial-order
    reduction} (Flanagan–Godefroid with source sets) over
    {!Machine.independent} transition footprints: a branch node initially
    explores just one unit's choices, and further siblings are only
    explored when an actual race observed below — two dependent accesses
    by different threads not ordered by happens-before — demands their
    reversal via a planted backtrack point. Store-buffer awareness comes
    for free from footprints: a buffered store's [Step] touches no shared
    address, so it races with a concurrent load only where its
    [Drain]/[Flush] does. DPOR carries sleep sets: once a branch node's
    child has been fully explored, later siblings refuse to schedule that
    child's transition until a dependent transition fires, cutting the
    commuted copies of explored interleavings (counted in
    [sleep_skips]). The sleep set is part of the memo key; under a CHESS
    bound a child whose subtree saw bound prunes or memo hits never enters
    a sleep set, and under a CHESS bound or on a memo hit a node whose
    child subtree was cut degrades to full enumeration, keeping bounded
    verdicts exact (DESIGN.md §10, §13). Verdicts and replayable failure
    prefixes are preserved; [runs] drops wherever threads touch disjoint
    data. The unreduced search ([dpor = false]) is the differential
    oracle, and as fast where nearly every node is a memo hit: DPOR's
    bookkeeping then buys nothing.

    With [memo_store] (a {!Memo_store.t} opened on a directory) the
    visited-state cache persists across runs: states explored by earlier
    searches of the same configuration are pruned immediately, and novel
    states (plus the merged failure set) are committed back when the
    search completes. A fully-warm search does no re-exploration and still
    reports the stored failures.

    By default ([snapshots = true]) sibling subtrees are started by
    restoring a {!Machine.snapshot} of the branch node onto a fresh
    instance — O(state), plus the replay of each thread the subtree
    steps, at its first step — instead of replaying the whole prefix from
    the root — O(depth) machine transitions. Before a leaf's [check], the
    search runs {!Machine.catch_up}, so the check sees every thread's
    host-side effects. A memoised snapshot search also builds one
    {e probe} instance: before it builds a sibling, it puts the node's
    data state on the probe ({!Machine.restore_data}), fires the
    sibling's transition there ({!Machine.apply_data}) and looks the
    resulting key up. A hit is counted as one on arrival would be, and
    nothing is built, restored, replayed or released for it; a miss builds
    the sibling and does not look its key up again. [snapshots = false]
    keeps the replay path, which builds every sibling, as the test suite's
    differential oracle; results are identical either way.

    Used by the test suite to verify, over {e all} interleavings of small
    configurations, the safety properties of every queue algorithm: no task
    lost, no task duplicated (idempotent queues excepted), ABORT only when
    the bound permits it. *)

type instance = {
  machine : Machine.t;
  check : unit -> (unit, string) result;
      (** Invoked once the machine is quiescent; inspects host-level cells
          the thread programs filled in. *)
}

type stats = {
  runs : int;  (** complete (quiescent) runs checked *)
  truncated : int;  (** runs cut off by the depth bound *)
  deadlocks : int;
  pruned : int;  (** branches skipped by the preemption bound *)
  memo_hits : int;
      (** subtrees pruned by the visited-state cache (0 unless [memo]) *)
  sleep_skips : int;
      (** transitions refused by DPOR's sleep sets (0 unless [dpor]) *)
  peak_depth : int;
      (** deepest node reached by the search (the depth frontier) *)
  complete : bool;
      (** [false] iff the run budget ([max_runs]) stopped the search. The
          budget stops it as the [max_runs]-th run completes, before the
          search can tell whether anything is left, so a tree of exactly
          [max_runs] runs also reads [false]. Only a complete search with
          no failure and no depth-truncated run is a proof. *)
  failures : (int list * string) list;
      (** Failing runs, in sighting order (first-sighted first, at most
          [max_failures]). Each failure is a choice sequence plus the
          verdict message. {b Orientation:} the choice sequence is
          {e root-first} — element 0 is the index taken at the root of the
          search tree, the last element is the choice at the failing leaf —
          which is exactly the order {!replay_choices} consumes. (The
          search accumulates both the per-run prefix and the failure list
          newest-first internally; both are reversed before they reach
          this record, so no caller-side reversal is ever needed.) Prefer
          {!failures_in_replay_order} over pattern-matching this field:
          the accessor's name states the contract. *)
}

val failures_in_replay_order : stats -> (int list * string) list
(** The recorded failures, first-sighted first, each choice sequence
    root-first — the exact orientation {!replay_choices} (and the
    forensics shrinker built on it) consumes. Today this is the identity
    on [stats.failures]; go through the accessor so the contract survives
    representation changes. *)

val memo_hit_rate : stats -> float
(** Fraction of visited nodes pruned by the visited-state cache:
    [memo_hits / (runs + memo_hits)], 0 when nothing was explored. *)

val default_max_depth : int
(** The [max_depth] {!search} uses when none is given (400) — exported so
    memo-store headers built by callers pin the same value. *)

val search :
  ?max_depth:int ->
  ?max_runs:int ->
  ?preemption_bound:int option ->
  ?max_failures:int ->
  ?memo:bool ->
  ?dpor:bool ->
  ?memo_store:Memo_store.t ->
  ?snapshots:bool ->
  ?on_progress:(stats -> unit) ->
  ?progress_every:int ->
  mk:(unit -> instance) ->
  unit ->
  stats
(** Defaults: [max_depth = 400], [max_runs = 200_000],
    [preemption_bound = None] (unbounded), [max_failures = 5],
    [memo = false], [dpor = false] (source-DPOR with sleep sets),
    [memo_store = None] (persistent visited-state store; implies
    memoization),
    [snapshots = true] (snapshot-based sibling exploration; [false] uses
    replay-from-root, the differential oracle).

    Under memoization, the remaining budgets are memo-table entries, so
    a negative [max_depth] or preemption bound, or one of 2{^31} - 1 or
    more, raises [Invalid_argument] from {!Memo_store.seen} (at the root,
    or at depth 1 for [max_depth = max_int]) instead of being clamped.

    With [memo_store], the store is committed (novel entries appended,
    failure set merged) only if the search ran to completion — a
    [max_runs]-interrupted search never poisons the store's failure set.
    @raise Failure if that commit fails at the filesystem level.

    [on_progress], if given, receives a snapshot of the running statistics
    (with [complete = false]) every [progress_every] completed runs
    (default 4096) — the hook for live progress reporting. It must not
    mutate the search. *)

val replay_choices :
  ?max_steps:int -> mk:(unit -> instance) -> int list -> (unit, string) result
(** Re-run one recorded choice sequence (from {!stats.failures}) and return
    its check result; useful to shrink or debug a failure. After the
    recorded choices, any forced suffix is driven greedily (always
    transition 0) to quiescence. [max_steps] (default unbounded) caps that
    suffix: a {e truncated} sequence — as the forensics shrinker's ddmin
    candidates are — can park the machine in a state where the greedy
    driver spins forever (e.g. a thread retrying a CAS on a lock a
    never-scheduled thread holds), and the cap turns that livelock into
    [Invalid_argument] like any other malformed candidate. Recorded
    full-length failure prefixes never hit the cap: their suffix contains
    only forced steps. *)

val next_choices : Machine.t -> Machine.transition list
(** The choice universe the explorer branches over at the machine's current
    state: enabled transitions after the no-op partial-order reduction.
    Recorded choice indices index into this list — use it to replay a
    failure step by step (e.g. with a {!Trace} attached). *)

(**/**)

(** For the benchmark's snapshot probes and the explorer's own tests; not a
    stable API. *)
module Internal : sig
  val recording_mk : (unit -> instance) -> unit -> instance
  (** Wrap an instance builder so every instance records responses (the
      precondition of {!Machine.snapshot}). *)

  (** The source-DPOR bookkeeping {!search} keeps along its DFS spine:
      vector clocks, per-address access indices and per-depth branch
      nodes, in int arrays that only grow. Once they have grown, none of
      these operations allocates. *)

  type dpor

  val dpor_create : nthreads:int -> dpor

  val dpor_open : dpor -> int -> int array -> unit
  (** [dpor_open ds depth units] opens the branch node at [depth]: choice
      [j] belongs to thread [units.(j)], and none is explored or demanded
      yet. [[||]] marks a forced step, and closes the depth's node. *)

  val dpor_explore : dpor -> int -> int -> unit
  (** Mark choice [j] of the node at [depth] explored. *)

  val dpor_push : dpor -> int -> tid:int -> read:int -> write:int -> unit
  (** Record the event at [depth] (the spine's next) of thread [tid],
      reading and writing the given address indices ([-1] = none): plant
      the reversals of the races it completes, then give it its clock. *)

  val dpor_pop : dpor -> int -> unit
  (** Undo the event at [depth], the newest one pushed. *)

  val dpor_backtrack : dpor -> int -> int -> bool
  (** Choice [j] of the node at [depth] has been demanded. *)

  val dpor_all : dpor -> int -> bool
  (** The node at [depth] has degraded to full enumeration. *)
end
