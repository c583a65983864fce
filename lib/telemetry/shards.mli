(** Sharded counter plane: a fixed ring of {!Sink.t}s, one per host
    domain, with an explicit batched merge at quiescence points. A
    simulated run needs none: all of its simulated threads run on one host
    thread, so it attaches a single sink.

    Writers bump only their own shard, so the accounting path adds no
    synchronization (and no cross-domain cache traffic) that the measured
    algorithm does not have. {!Sink.merge} is field-wise addition and
    {!Histogram.merge} is bucket-wise addition, so the merged result is
    independent of how the op stream was partitioned: N shards merged into
    a root sink render byte-identically ({!Sink.to_json}) to a single sink
    that observed the whole stream.

    Consistency model of mid-run reads: a shard may be read (e.g. by a
    scraper) while its owner writes; each field is a single word written by
    one domain, so individual fields are never torn, but no cross-field or
    cross-shard consistency holds until a quiescent {!merge}. *)

type t

val create : n:int -> t
(** [n] shards ([n <= 0] is clamped to 1), all zeroed. *)

val sinks : t -> Sink.t array
(** The shards, for routing tables that index them directly. Do not
    resize; mutating the sinks is the whole point. *)

val merge : into:Sink.t -> t -> unit
(** Batched quiescence-point merge: fold every shard into [into], then
    reset the shards (drain semantics — merging twice adds nothing new).
    Call only while writers are quiescent (the {!Par_runner} joins). *)
