(** The explorer's visited-state store ([wsrepro-memo/v2]).

    An entry means "this state was explored with this much remaining depth
    and preemption budget"; a revisit is pruned only against an entry with
    at least as much budget, so each fingerprint keeps the Pareto frontier
    of its explored budgets. A key is a {!Machine.fingerprint}, which
    hashes the data state alone (memory, store buffers and each thread's
    response history), mixed under DPOR with the hash of the node's sleep
    set. Schema v1 keys also hashed each thread's pending request, so none
    of them can hit a v2 key, and {!open_} refuses a v1 store.

    A store lives {!in_memory} for one search, or persists across runs in
    a directory ({!open_}): a header (the configuration the entries are
    valid for), fingerprint-sharded append-only entry files, and the
    failure set committed by completed searches. A warm search over the
    same configuration prunes at every stored state and still reports the
    stored violations, so repeated CI explorations are incremental.
    Everything else that shapes the reduced tree — machine configuration,
    bounds, [dpor] — is pinned by the header, and {!open_} rejects a store
    whose header does not match.

    A store is single-domain: it belongs to the one search that opened it
    and has no locks. Do not share one across domains. *)

type t

val schema : string
(** ["wsrepro-memo/v2"]. *)

val in_memory : unit -> t
(** An empty store with no directory: it buffers nothing, and {!commit}
    writes nothing. *)

val open_ :
  path:string ->
  config:string ->
  max_depth:int ->
  preemption_bound:int option ->
  dpor:bool ->
  unit ->
  (t, string) result
(** Open (or create in memory — nothing touches disk until {!commit}) the
    store at [path]. [config] is an opaque description of the machine /
    scenario; it must match the stored header byte-for-byte. Errors are
    descriptive, one line each, and never raised: schema mismatch (a v1
    store among them, and so every store of the retired [--por] search),
    configuration mismatch, a file that cannot be read (a directory in
    its place, say), or a malformed entry. A shard line is an entry only
    as {!commit} writes it: three decimal ints separated by single spaces,
    with budgets {!seen} accepts. *)

val seen : t -> int -> depth_rem:int -> preempt_rem:int -> bool
(** Memo lookup-and-insert. [true] means the state was already explored
    with at least this much budget; [false] records the visit (buffered
    until {!commit} in a store with a directory). The table is one flat
    open-addressing array: a state's frontier of k budget pairs takes k
    slots, each the fingerprint and both budgets packed into one int. A
    hit allocates nothing, and a miss allocates nothing unless the table
    grows (or the store has a directory, whose write-back buffer takes
    the entry).
    @raise Invalid_argument if a budget is neither [max_int] (no bound)
    nor in \[0, 2{^31} - 1), the range a packed field holds: clamping it
    could turn a miss into a hit. *)

val commit : t -> failures:(int list * string) list -> (unit, string) result
(** Append the buffered novel entries to the shard files, write the header
    and the given failure set; a no-op in memory. Call only after a search
    that ran to completion (a partial search's failure set is not the
    configuration's). *)

val merge_failures :
  t -> max_failures:int -> (int list * string) list -> (int list * string) list
(** Stored failures first (committed sighting order), then novel live ones,
    deduplicated by schedule and capped — so warm reruns report the same
    failure set as the run that populated the store. *)

val stored_failures : t -> (int list * string) list
val loaded_entries : t -> int
val pending_entries : t -> int

val lookups : t -> int
val hits : t -> int
