(** The explorer's visited-state table.

    An entry means "this state was explored with this much remaining depth
    and preemption budget"; a revisit is pruned only against an entry with
    at least as much budget, so each fingerprint keeps the Pareto frontier
    of its explored budgets. A key is a {!Machine.fingerprint}, which
    hashes the data state alone (memory, store buffers and each thread's
    response history), mixed under DPOR with the hash of the node's sleep
    set.

    A table lives for one search and is never written out: its keys are
    values this build computes, and a build that hashes a state
    differently would read another build's keys as different states.

    A table is single-domain: it belongs to the one search that created
    it and has no locks. Do not share one across domains. *)

type t

val create : unit -> t
(** An empty table. *)

val seen : t -> int -> depth_rem:int -> preempt_rem:int -> bool
(** Memo lookup-and-insert. [true] means the state was already explored
    with at least this much budget; [false] records the visit. The table
    is one flat open-addressing array: a state's frontier of k budget
    pairs takes k slots, each the fingerprint and both budgets packed into
    one int. A hit allocates nothing, and a miss allocates nothing unless
    the table grows.
    @raise Invalid_argument if a budget is neither [max_int] (no bound)
    nor in \[0, 2{^31} - 1), the range a packed field holds: clamping it
    could turn a miss into a hit. *)

val lookups : t -> int
val hits : t -> int
