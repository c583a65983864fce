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
  mutable last_lines : int;  (* block mode: lines drawn by the last redraw *)
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
    last_lines = 0;
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

(* Block mode: rewrite a whole multi-line dashboard in place. The previous
   block is re-entered with a cursor-up escape and each line is cleared
   before being redrawn, so shrinking blocks leave no stale tail lines
   behind (a shorter block still clears the rows it no longer uses). *)
let draw_block t lines =
  let buf = Buffer.create 256 in
  if t.last_lines > 0 then
    Buffer.add_string buf (Printf.sprintf "\027[%dA" t.last_lines);
  let drawn = List.length lines in
  List.iter
    (fun l ->
      Buffer.add_string buf "\r\027[2K";
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    lines;
  for _ = drawn to t.last_lines - 1 do
    Buffer.add_string buf "\r\027[2K\n"
  done;
  let stale = max 0 (t.last_lines - drawn) in
  if stale > 0 then Buffer.add_string buf (Printf.sprintf "\027[%dA" stale);
  output_string t.out (Buffer.contents buf);
  flush t.out;
  t.last_lines <- drawn;
  t.emitted <- true

let redraw t lines =
  let now = Unix.gettimeofday () in
  if now -. t.last_emit >= t.interval then begin
    t.last_emit <- now;
    draw_block t lines
  end

let redraw_now t lines = draw_block t lines

let finish ?detail t =
  if t.last_lines > 0 then begin
    (* Block mode already ends on a fresh line; just append the summary. *)
    (match detail with
    | Some d -> Printf.fprintf t.out "%s: %s\n" t.label d
    | None -> ());
    t.last_lines <- 0;
    flush t.out
  end
  else begin
    (match detail with Some d -> emit t d | None -> ());
    if t.emitted then begin
      output_char t.out '\n';
      flush t.out
    end
  end
