(** A real (non-simulated) THE queue (Cilk-5 / Fig. 2b) on OCaml 5 Atomics,
    with a per-queue mutex for the conflict path. Single owner for
    [push]/[pop]; [steal] from any domain. As in {!Chase_lev}, the
    worker-side fence is the tail's [Atomic.set] in [pop] (an [xchg] on
    amd64); this is the fenced THE, not the paper's fence-free FF-THE —
    see DESIGN.md §1. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Fixed capacity (rounded up to a power of two); [push] raises [Failure]
    on overflow. *)

val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option
val steal : 'a t -> 'a option

val steal_detail : 'a t -> [ `Task of 'a | `Empty | `Abort ]
(** Like {!steal} but distinguishes the two [None] cases: [`Empty] when the
    queue held nothing on entry, [`Abort] when the post-advance tail read
    failed to certify the element (the owner's conflict path won it). *)

val size : 'a t -> int
