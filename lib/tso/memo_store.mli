(** Disk-backed visited-state store ([wsrepro-memo/v1]).

    Persists the explorer's memo table across runs: a directory holding a
    header (the configuration the entries are valid for), fingerprint-
    sharded append-only entry files, and the failure set committed by
    completed searches. A warm search over the same configuration prunes
    at every stored state and still reports the stored violations, so
    repeated CI explorations are incremental.

    An entry means "this state was explored with this much remaining depth
    and preemption budget"; pruning is only allowed against an entry with
    at least as much budget (the same Pareto-frontier rule as the in-memory
    memo). Everything else that shapes the reduced tree — machine
    configuration, bounds, [por]/[dpor] — is pinned by the header, and
    {!open_} rejects a store whose header does not match. *)

type t

val schema : string
(** ["wsrepro-memo/v1"]. *)

val open_ :
  path:string ->
  config:string ->
  max_depth:int ->
  preemption_bound:int option ->
  por:bool ->
  dpor:bool ->
  unit ->
  (t, string) result
(** Open (or create in memory — nothing touches disk until {!commit}) the
    store at [path]. [config] is an opaque description of the machine /
    scenario; it must match the stored header byte-for-byte. Errors are
    descriptive: schema mismatch, configuration mismatch, malformed
    entries. *)

val seen : t -> int -> depth_rem:int -> preempt_rem:int -> bool
(** Memo lookup-and-insert, safe from any domain (mutex per shard). [true]
    means the state was already explored with at least this much budget;
    [false] records the visit (buffered in memory until {!commit}). *)

val commit : t -> failures:(int list * string) list -> (unit, string) result
(** Append the buffered novel entries to the shard files, write the header
    and the given failure set. Call from one domain, only after a search
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

val tbl_check :
  (int, (int * int) list) Hashtbl.t ->
  int ->
  depth_rem:int ->
  preempt_rem:int ->
  bool
(** The Pareto-frontier membership/insert both memo implementations share
    (exposed for the explorer's in-memory memo). *)
