(* Throttled live progress for long-running searches and figure grids.
   Reports go to stderr (never stdout: figure tables and cram output stay
   byte-identical with or without progress enabled) as a \r-rewritten
   status line. The caller samples as often as it likes; the reporter
   rate-limits to [interval] seconds and computes the overall rate since
   creation. *)

type t = {
  out : out_channel;
  label : string;
  interval : float;
  started : float;
  mutable last_emit : float;
  mutable emitted : bool;
  mutable last_width : int;
}

let create ?(interval = 0.5) ?(out = stderr) ~label () =
  let now = Unix.gettimeofday () in
  {
    out;
    label;
    interval;
    started = now;
    last_emit = now -. interval;  (* so the first sample reports immediately *)
    emitted = false;
    last_width = 0;
  }

let emit t line =
  let line = Printf.sprintf "%s: %s" t.label line in
  (* Pad with spaces to erase the previous (possibly longer) line. *)
  let pad = max 0 (t.last_width - String.length line) in
  Printf.fprintf t.out "\r%s%s%!" line (String.make pad ' ');
  t.last_width <- String.length line;
  t.emitted <- true

let sample t ~count detail =
  let now = Unix.gettimeofday () in
  if now -. t.last_emit >= t.interval then begin
    t.last_emit <- now;
    let dt = now -. t.started in
    let rate = if dt > 0.0 then float_of_int count /. dt else 0.0 in
    emit t (detail ~rate)
  end

let finish ?detail t =
  (match detail with Some d -> emit t d | None -> ());
  if t.emitted then begin
    output_char t.out '\n';
    flush t.out
  end
