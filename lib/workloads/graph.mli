(** Graph generators and reference algorithms for the §8.2 benchmarks.

    The paper's inputs: a K-regular graph, a random G(n,m) graph and a
    two-dimensional torus. Sizes are scaled down (documented in the
    experiment harness); the torus keeps the paper's 2400 nodes.

    Output contract, for every generator: [adj.(u)] holds u's distinct
    neighbours in ascending order, with no self-loops, and [v] is in
    [adj.(u)] exactly when [u] is in [adj.(v)]. A seed gives the same random
    draws, and so the same graph, as the list-and-[Set] generators these
    replaced. Each generator costs O(nodes + edges): it fills two arrays of
    endpoints and hands them to {!Adjacency.of_endpoints}, two counting-sort
    passes with no comparison sort. *)

type t = {
  nodes : int;
  adj : int array array;  (** adjacency lists (undirected: both directions) *)
}

val k_graph : nodes:int -> k:int -> seed:int -> t
(** K-regular graph: each node is connected to [k] others (union of [k]
    random perfect matchings, deduplicated).
    @raise Invalid_argument if [nodes] is odd or negative, or [k] is
    negative. *)

val random_graph : nodes:int -> edges:int -> seed:int -> t
(** G(n,m): [edges] undirected edges drawn uniformly, self-loops redrawn and
    repeats dropped.
    @raise Invalid_argument if [nodes] or [edges] is negative, or if
    [edges > 0] with [nodes < 2] (no edge without a self-loop exists). *)

val torus : width:int -> height:int -> t
(** 2-D torus (grid with wraparound); node [(x, y)] is [y * width + x]. A
    side of length 1 or 2 gives fewer than 4 neighbours: the wrap makes a
    self-loop or a repeat, and both are dropped.
    @raise Invalid_argument if [width] or [height] is below 1. *)

val edges : t -> int
(** Total directed edge count (sum of adjacency list lengths). *)

val reachable_from : t -> int -> bool array
(** Host-level BFS, the verification oracle for the simulated algorithms. *)

val degree_histogram : t -> (int * int) list
(** (degree, count), ascending — for tests. *)
