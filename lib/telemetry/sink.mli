(** The unified cross-layer counter sink.

    One sink is attached to (at most) one simulated machine and shared by
    every layer driving it: the machine counts instructions and transitions,
    the timing engine attributes stall cycles, the queue layer counts
    operations, outcomes and delta checks, and the runtime folds in
    task-level totals. A detached layer pays a single [if sink attached]
    branch per event (mirroring the machine's listener laziness), so
    telemetry is pay-for-use. Sinks are single-domain values: parallel
    drivers use one sink per domain and {!merge}. *)

type t = {
  mutable loads : int;
  mutable stores : int;
  mutable cas : int;
  mutable fetch_adds : int;
  mutable fences : int;
  mutable drains : int;
  mutable flushes : int;
  mutable coalesces : int;
  mutable steps : int;
  sb_occupancy : Histogram.t;
      (** buffer-proper entries, sampled after each store issue *)
  egress_depth : Histogram.t;
      (** egress-buffer B occupancy, sampled at each drain *)
  mutable fence_stall_cycles : int;
      (** cycles fences and RMWs spent waiting for the buffer to drain *)
  mutable drain_stall_cycles : int;
      (** cycles stores spent blocked on a full buffer *)
  mutable puts : int;
  mutable takes : int;
  mutable take_empties : int;
  mutable steal_attempts : int;
  mutable steals : int;
  mutable steal_empties : int;
  mutable steal_aborts : int;
  mutable delta_checks : int;
      (** [t - delta > h] certifications attempted by fence-free thieves *)
  mutable tasks_run : int;
  mutable tasks_stolen : int;
  mutable parks : int;
      (** worker park episodes (native pool sleepers protocol) *)
  mutable por_sleep_skips : int;
      (** transitions the explorer's sleep-set POR refused to explore *)
  mutable snapshot_restores : int;
      (** {!Machine.restore_into} calls (snapshot-based sibling exploration) *)
  mutable shrink_iterations : int;
      (** oracle replays performed by the forensics ddmin shrinker *)
  mutable witness_events : int;
      (** reorder witnesses extracted from replayed failing schedules *)
  mutable forensics_report_bytes : int;
      (** total bytes of rendered forensics reports *)
}

val create : unit -> t
val reset : t -> unit

val merge : into:t -> t -> unit
(** Add [src]'s counts into [into]; [src] is unchanged. *)

val fields : t -> (string * int) list
(** Every scalar counter in canonical export order. *)

val sb_occupancy : t -> Histogram.t
val egress_depth : t -> Histogram.t

val to_json : t -> Json.value
(** Scalar counters plus both histograms. *)

val pp : Format.formatter -> t -> unit
(** Non-zero counters, one per line. *)
