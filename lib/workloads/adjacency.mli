(** Adjacency lists from arrays of edge endpoints, for every {!Graph}
    generator. *)

val of_endpoints : nodes:int -> int array -> int array -> int array array
(** [of_endpoints ~nodes us vs] is the undirected graph on nodes
    [0 .. nodes - 1] whose edge [i] joins [us.(i)] and [vs.(i)]. Self-loops
    and repeated edges are dropped, so [adj.(u)] is u's distinct neighbours
    in ascending order, and [v] is in [adj.(u)] exactly when [u] is in
    [adj.(v)]. Two counting-sort passes over one CSR array: O(nodes + edges)
    time, no comparison sort and no lists.
    @raise Invalid_argument if an endpoint is outside [0 .. nodes - 1] or
    [vs] is shorter than [us]. *)
