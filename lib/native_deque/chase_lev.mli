(** A real (non-simulated) Chase–Lev work-stealing deque on OCaml 5 Atomics,
    usable with [Domain]-based parallelism.

    This is the library's directly-adoptable artifact: the fenced
    Chase-Lev of the paper's Fig. 2c, not its fence-free FF-CL. OCaml's
    [Atomic]s are sequentially consistent, but not every access is a
    fence. On OCaml 5.1.1/amd64 ([ocamlopt -S]), [Atomic.get] is one plain
    [movq]; [Atomic.set] calls [caml_atomic_exchange], an [xchg] and so a
    full fence; [Atomic.incr] and [Atomic.fetch_and_add] call
    [caml_atomic_fetch_add], a [lock xadd]. The take fence is therefore the
    tail's [Atomic.set] in {!pop}. A push pays two more full fences (the
    element's and the tail's [Atomic.set]) that x86-TSO does not need. A
    fence-free take would store the tail without [Atomic.set]; no such
    native deque exists here yet, so the paper's effect is reproduced on
    the simulated bounded-TSO machine (DESIGN.md §1). The simulator's
    Chase-Lev and this one share the same logic, connecting the simulated
    algorithms to runnable code.

    Single owner: [push]/[pop] must be called from the owning domain only;
    [steal] is safe from any domain. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] is rounded up to a power of two; the deque grows by doubling
    when full. *)

val push : 'a t -> 'a -> unit
(** Owner: enqueue at the tail. *)

val pop : 'a t -> 'a option
(** Owner: dequeue from the tail; [None] when empty. *)

val steal : 'a t -> 'a option
(** Any domain: dequeue from the head; [None] when empty or lost a race. *)

val steal_detail : 'a t -> [ `Task of 'a | `Empty | `Abort ]
(** Like {!steal} but distinguishes the two [None] cases, in the simulated
    queues' outcome vocabulary: [`Empty] when [head >= tail] at the read,
    [`Abort] when the head CAS lost a race with the owner or another
    thief. *)

val steal_retry : 'a t -> 'a option
(** Like {!steal} but retries CAS races until it gets an element or sees an
    empty queue. *)

val size : 'a t -> int
(** Snapshot of [tail - head]; racy, for monitoring only. *)

val padded : 'a -> 'a
(** [padded x] copies the heap block [x] (a record or an [Atomic.t]) into
    one 16 words longer, so that whatever the heap places after the copy
    lies at least two cache lines past [x]'s last field. OCaml 5.1 has no
    [Atomic.make_contended]. Use it once, at creation, on a block one
    domain writes often, and keep only the copy: {!create} pads the
    deque's indices this way, and {!Pool} its per-slot blocks. *)
