(* Per-domain sharding of the counter plane.

   A [Shards.t] is a fixed ring of independent {!Sink.t}s. Writers are
   assigned a sink by index (a {!Par_runner} domain slot) and bump plain
   mutable ints in their own shard only — the hot path has
   zero cross-shard (and hence zero cross-domain) writes and no
   synchronization at all. Reads happen at quiescence points: an explicit
   batched {!merge} folds every shard into a root sink and drains the
   shards, so repeated merges never double-count.

   Because {!Sink.merge} is pure field-wise addition (and
   {!Histogram.merge} is bucket-wise addition), the merged totals are
   independent of how operations were distributed across shards: merging N
   shards fed by a partitioned op stream is byte-for-byte identical, in
   {!Sink.to_json} form, to a single sink fed the whole stream. *)

type t = { sinks : Sink.t array }

let create ~n = { sinks = Array.init (max 1 n) (fun _ -> Sink.create ()) }
let sinks t = t.sinks

let merge ~into t =
  Array.iter
    (fun s ->
      Sink.merge ~into s;
      Sink.reset s)
    t.sinks
