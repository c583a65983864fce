(** The instruction DSL in which thread programs are written.

    A thread program is an ordinary OCaml function that performs its shared
    memory accesses through the effects below. The machine resumes the
    program until it reaches its next instruction, at which point control
    returns to the scheduler, which decides when the instruction executes and
    interleaves it with store-buffer drains and other threads. Plain OCaml
    code between instructions runs atomically at resume time and is invisible
    to the memory model — use it for host-level bookkeeping (metrics, history
    recording), never to communicate between simulated threads. *)

val load : Addr.t -> int
(** Read a shared cell (store-buffer forwarding, then memory). *)

val store : Addr.t -> int -> unit
(** Write a shared cell through the store buffer. *)

val cas : Addr.t -> expect:int -> replace:int -> bool
(** Atomic compare-and-swap. As on x86, executing an atomic RMW drains the
    store buffer first; the machine makes the instruction runnable only when
    the issuing thread's buffer is empty. *)

val fetch_add : Addr.t -> int -> int
(** Atomic fetch-and-add, same buffer-drain semantics as {!cas}; returns the
    previous value. *)

val fence : unit -> unit
(** Full memory fence (MFENCE): runnable only once the issuing thread's store
    buffer has fully drained. This is the instruction whose removal the paper
    is about. *)

val work : int -> unit
(** Local computation costing the given number of cycles in timing mode; a
    no-op transition otherwise. Models client code between queue calls. *)

val label : string -> unit
(** Tracing marker; a no-op transition. *)

val spin_pause : unit -> unit
(** A PAUSE-like hint inside spin loops; a cheap no-op transition that gives
    the scheduler a preemption point. *)

(** {1 Machine-side representation}

    Every instruction above performs one effect carrying its request; the
    handler installed by {!start} pauses the program there, keeping the
    request and the effect's continuation as they are. *)

(** The typed request a paused thread is waiting to execute. *)
type _ request =
  | Req_load : Addr.t -> int request
  | Req_store : Addr.t * int -> unit request
  | Req_cas : Addr.t * int * int -> bool request
  | Req_fetch_add : Addr.t * int -> int request
  | Req_fence : unit request
  | Req_work : int -> unit request
  | Req_label : string -> unit request
  | Req_pause : unit request

type status =
  | Done : status
  | Paused_at : 'a request * ('a, status) Effect.Deep.continuation -> status
      (** Waiting to execute the request; the continuation is the rest of
          the thread program, resumed (once) with the request's result. *)

val start : (unit -> unit) -> status
(** Run a thread program up to its first instruction (or completion). *)

val resume : ('a, status) Effect.Deep.continuation -> 'a -> status
(** Resume a paused program with its request's result, running it up to
    its next instruction (or completion). Each continuation is one-shot. *)

val release : status -> unit
(** Unwind a paused program without running it further: its continuation
    is discontinued with an exception private to this module, raised at
    the pending instruction. The body's exception handlers and
    [Fun.protect ~finally] run (once, as for any exception), and the
    fiber's stack goes back to the domain's stack cache. A continuation
    that is dropped instead keeps its stack: on OCaml 5.1.1, 200,000
    dropped one-instruction programs hold ~124 MB of RSS that
    [Gc.full_major] does not return; discontinued, RSS stays at ~5 MB.

    Outcomes: a body that lets the exception escape, or catches it and
    returns, is finished. A body that catches it and performs another
    instruction is discontinued again there; if it performs yet another,
    [release] gives up, drops that continuation and raises
    [Invalid_argument] — it never loops. Any other exception the body
    raises while unwinding (e.g. [Fun.Finally_raised]) propagates.
    [release Done] does nothing. The status must not be resumed after it
    was released. *)

val describe : 'a request -> string
(** Human-readable rendering of a request, for traces. *)

val describe_named : (Addr.t -> string) -> 'a request -> string
(** Like {!describe} but resolves addresses to their symbolic names. *)
