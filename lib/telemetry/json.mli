(** Minimal JSON support for the telemetry exporters: a byte-stable emitter
    (fixed float formatting, deterministic field order) and a small
    validating parser so tests and CI can check emitted documents —
    including Chrome traces — without external dependencies. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

val to_string : ?indent:bool -> value -> string
(** Render. [indent = true] (default) pretty-prints with two-space indents
    and a trailing newline; floats use a fixed ["%.3f"]/["%.1f"] format so
    equal values always render to equal bytes. *)

val write_file : string -> value -> unit

val parse : string -> (value, string) result
(** Strict JSON parser (objects, arrays, strings with escapes, numbers,
    literals). Returns [Error "offset N: ..."] on malformed input, and on
    arrays and objects nested more than 512 deep, which the recursive
    descent would take quadratic time over. It never raises. *)

val parse_file : string -> (value, string) result
(** {!parse} on the contents of a file. A file that cannot be read (it is
    missing, or a directory) is an [Error] with the reason, such as
    ["No such file or directory"]; like a parse error, it does not name
    the file, and never raises. *)

val member : string -> value -> value option
(** Field lookup on [Obj]; [None] on other constructors. *)
