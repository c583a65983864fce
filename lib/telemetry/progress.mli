(** Throttled live progress reporting on stderr.

    Callers sample as often as they like (e.g. once per completed explorer
    run or grid point); the reporter rewrites a single status line at most
    every [interval] seconds, so stdout — figure tables, cram transcripts —
    is untouched and the sampling hot path costs one [gettimeofday] per
    call that passes the throttle check. *)

type t

val create : ?interval:float -> ?out:out_channel -> label:string -> unit -> t
(** Defaults: [interval = 0.5] seconds, [out = stderr]. [label] prefixes
    every status line. *)

val sample : t -> count:int -> (rate:float -> string) -> unit
(** Maybe emit a status line. [count] is the monotone progress measure;
    [rate] passed to the formatter is [count] per second since creation. *)

val redraw : t -> string list -> unit
(** Throttled multi-line block redraw (for dashboards like [wsrepro top]):
    rewrites the previously drawn block in place with ANSI cursor movement,
    clearing each line first so a shrinking block leaves no stale rows.
    Mixing {!sample} and {!redraw} on one reporter is unsupported. *)

val redraw_now : t -> string list -> unit
(** {!redraw} without the interval throttle (first paint, final frame). *)

val finish : ?detail:string -> t -> unit
(** Emit a final line ([detail]) if given, then terminate the status line
    with a newline — only if anything was ever emitted. *)
