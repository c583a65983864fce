(** Name-indexed table of every queue implementation, used by the runtime,
    the experiment harness and the CLI. *)

type impl = (module Queue_intf.S)

val all : impl list
(** the, chase-lev, chase-lev-dyn, abp, ff-the, ff-cl, thep, thep-sep,
    idempotent-lifo, idempotent-fifo *)

val names : string list

val find : string -> impl
(** @raise Not_found on unknown names. *)

val create : impl -> Tso.Machine.t -> Queue_intf.params -> Queue_intf.packed
(** Instantiate a queue and pack it with its module, wrapped in a telemetry
    shim: while a sink is attached to the machine, every
    [put]/[take]/[steal] through the packed value is accounted in the
    queue-operation counters (puts, takes, take-empties, steal
    attempts/successes/empties/aborts). Costs one option test per
    operation when no sink is attached. *)

val strict : impl -> bool
(** Meets the strict deque specification: never aborts, never duplicates. *)
