(** Rotating-window time series of {!Histogram}s: time is sliced into
    fixed-width windows (ticks in the simulator, nanoseconds native) and
    the last [slots] windows are kept in a ring, giving per-window
    percentile series (p50/p99 over time) instead of one end-of-run
    number. One writer observes with a monotone clock. *)

type t

val create : ?slots:int -> width:int -> unit -> t
(** [create ~width ()] with [width > 0] time units per window and
    [slots] (default 16, [> 0]) windows retained.
    @raise Invalid_argument on a non-positive [width] or [slots]. *)

val slots : t -> int

val observe : t -> now:int -> int -> unit
(** [observe t ~now v] records [v] into the window [now / width]
    (negative [now] is clamped to 0), evicting the older window resident
    in its ring slot if any. Callers must feed a monotone [now]; a sample
    for a window older than the slot's resident is dropped as stale. *)

val windows : t -> (int * Histogram.t) list
(** Occupied windows as [(window index, histogram)], oldest first. The
    histograms are live ring entries — read-only views. *)

val latest : t -> int
(** Largest window index seen, [-1] when empty. *)

val to_json : t -> Json.value
