(** Per-thread FIFO store buffer of the bounded-TSO machine.

    Two models are supported (DESIGN.md §3, paper §2 and §7.3):

    - {b Abstract}: the TSO[S] abstract machine's buffer. [capacity] entries;
      draining writes the oldest entry directly to memory.
    - {b Realistic}: models the microarchitecture the paper measured. The
      buffer proper has [capacity] entries, and there is an additional
      single-entry {e egress} buffer "B" holding a retired store on its way
      to memory. Draining moves the oldest buffer entry into B (so the
      observable reordering bound is [capacity + 1]); a separate step writes
      B to memory. With [coalesce = true], a drain whose address matches the
      store currently held in B overwrites B in place — the same-address
      coalescing that lets a load be reordered with unboundedly many stores
      when the thread's only stores target one location (the L = 0 anomaly of
      Fig. 8b).

    The buffer proper is a ring of [capacity] slots held in two int arrays
    (address index, value), and B is two ints. Pushing, draining, flushing
    and forwarding change only those ints: the buffer's state operations
    allocate nothing. What allocates is what a caller asks to see —
    {!drain}'s and {!flush_egress}'s results, and the option/list views
    ({!lookup}, {!oldest}, {!egress_entry}, {!to_list}, {!buffered},
    {!drain_lanes}) kept for tests, traces and forensics. *)

type model =
  | Abstract
  | Realistic of { coalesce : bool }
  | Pso
      (** partial store order (the §10 future-work question): one FIFO lane
          per address, so stores to {e different} addresses drain in any
          order. Loads still forward from the newest same-address entry.
          Under PSO the work-stealing put() is broken without an extra
          fence — the tests demonstrate it. *)

type t

val create : capacity:int -> model:model -> t

val capacity : t -> int
val model : t -> model

val entries : t -> int
(** Number of stores held in the buffer proper (excluding B). *)

val pending : t -> int
(** Total stores not yet in memory (buffer proper plus B). *)

val is_empty : t -> bool
(** [pending t = 0]. *)

val is_full : t -> bool
(** The buffer proper has no free entry; a new store cannot issue. *)

val push : t -> Addr.t -> int -> unit
(** Enqueue a store. @raise Invalid_argument if {!is_full}. *)

val lookup : t -> Addr.t -> int option
(** Newest buffered value for an address (store-to-load forwarding), searching
    the buffer proper newest-first, then B. *)

val forward_slot : t -> Addr.t -> int
(** The slot {!lookup} forwards from, or [-1] when the address has no
    pending store: the allocation-free form of {!lookup} that
    {!Machine.apply}'s load path uses. A slot is only meaningful until the
    buffer next changes. *)

val slot_value : t -> int -> int
(** The value held in a slot returned by {!forward_slot}. *)

type drain_result =
  | Wrote of Addr.t * int  (** a store became globally visible in memory *)
  | Staged of Addr.t * int  (** a store moved into B (realistic model only) *)
  | Coalesced of Addr.t * int  (** a store overwrote B in place *)

val can_drain : t -> bool
(** A drain step is enabled: the buffer proper is non-empty, and, in the
    realistic model, B is either free or coalescible with the oldest entry. *)

val drain : t -> Memory.t -> drain_result
(** Perform one drain step (lane 0). @raise Invalid_argument if
    [not (can_drain t)]. *)

val drain_lanes : t -> int list
(** The drain choices currently enabled. FIFO models have at most lane
    [0]; the PSO model has one lane per address with pending stores
    (identified by the address index, so lanes are stable across replays). *)

val drain_lane : t -> int -> Memory.t -> drain_result
(** Drain the oldest store of the given lane.
    @raise Invalid_argument if the lane is not in {!drain_lanes}. *)

val can_flush_egress : t -> bool
(** Realistic model only: B holds a store that can be written to memory. *)

val flush_egress : t -> Memory.t -> Addr.t * int
(** Write B to memory. @raise Invalid_argument if [not (can_flush_egress t)]. *)

val to_list : t -> (Addr.t * int) list
(** Pending stores oldest-first (B first if occupied), for traces. *)

val egress_entry : t -> (Addr.t * int) option
(** The store currently held in B, if any. Distinguishing B from the buffer
    proper matters for state fingerprints: a store staged in B and the same
    store still queued enable different transitions. *)

val oldest : t -> (Addr.t * int) option
(** The oldest entry of the buffer proper — the store the next FIFO drain
    will propagate. The explorer's transition footprints use it to name the
    address a [Drain] writes. *)

val clear : t -> unit
(** Empty the buffer proper and B. Snapshot-restore support for the
    explorer; not a machine transition. *)

val set_egress : t -> (Addr.t * int) option -> unit
(** Overwrite B. Snapshot-restore support for the explorer; not a machine
    transition. *)

val buffered : t -> (Addr.t * int) list
(** The buffer proper only, oldest-first (excludes B). *)

val iter_entries : t -> (Addr.t -> int -> unit) -> unit
(** Iterate the buffer proper oldest-first without building a list; the
    callback receives each entry's address and value (no per-entry
    allocation). Used by {!Machine.fingerprint}'s hot path. *)

val pp : Memory.t -> Format.formatter -> t -> unit
