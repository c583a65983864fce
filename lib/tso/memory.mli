(** The shared memory of the abstract TSO machine.

    Memory is a flat array of integer cells. Cells are allocated with a
    symbolic name so traces and error messages can refer to variables the way
    the paper does ([H], [T], [tasks\[3\]], ...). Names are kept once per
    allocation, not per cell, and a cell's name is formatted on demand
    ({!name}, {!pp}): allocating a 65,536-entry task array stores one string.
    All reads and writes to memory are performed by {!Machine} when it
    applies transitions; algorithm code never touches memory directly (it
    goes through the {!Program} effects). *)

type t

val create : unit -> t

val alloc : t -> name:string -> init:int -> Addr.t
(** Allocate one named cell. *)

val alloc_array : t -> name:string -> len:int -> init:int -> Addr.t
(** Allocate [len] contiguous cells named [name[0]] ... [name[len-1]];
    returns the address of element 0. *)

val get : t -> Addr.t -> int
val set : t -> Addr.t -> int -> unit

val size : t -> int
(** Number of allocated cells. *)

val name : t -> Addr.t -> string
(** Symbolic name of a cell, for tracing: the allocation's name for a cell
    from {!alloc}, [name[i]] for element [i] of an {!alloc_array}. Found by
    binary search over the allocations and formatted on each call (array
    elements allocate a fresh string); keep it off hot paths. *)

val snapshot : t -> int array
(** Copy of the current contents (used by the explorer to compare states and
    by tests to assert final memory). *)

val blit_to : t -> int array -> unit
(** Copy the contents into the first {!size} slots of an existing array
    (the allocation-free capture {!Machine.snapshot} uses). The copy is a
    typed [int] loop, not [Array.blit]: OCaml 5.1's [caml_array_blit]
    calls [caml_modify] for every element when the destination lives in
    the major heap, as long-lived scratch does (about 150 ns against
    about 40 ns for 70 cells). @raise Invalid_argument if the destination is shorter
    than {!size}. *)

val restore_from : t -> int array -> len:int -> unit
(** Overwrite the contents with the first [len] values of [src] (a typed
    loop, like {!blit_to}); the cell layout (names, allocation order) is
    untouched. Used by {!Machine.restore_into}.
    @raise Invalid_argument if [len <> size t] or [src] is shorter. *)

val cell : t -> int -> int
(** Contents of cell [i] (0 ≤ i < {!size}) without copying — the
    allocation-free read {!Machine.fingerprint} folds over. *)

val pp : Format.formatter -> t -> unit
