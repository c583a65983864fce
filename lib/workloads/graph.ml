type t = {
  nodes : int;
  adj : int array array;
}

let k_graph ~nodes ~k ~seed =
  if nodes mod 2 <> 0 then invalid_arg "Graph.k_graph: nodes must be even";
  if nodes < 0 then invalid_arg "Graph.k_graph: nodes must be non-negative";
  if k < 0 then invalid_arg "Graph.k_graph: k must be non-negative";
  let rng = Random.State.make [| seed; nodes; k |] in
  let half = nodes / 2 in
  let us = Array.make (k * half) 0 and vs = Array.make (k * half) 0 in
  let perm = Array.make nodes 0 in
  for r = 0 to k - 1 do
    (* one random perfect matching *)
    for i = 0 to nodes - 1 do
      perm.(i) <- i
    done;
    for i = nodes - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- tmp
    done;
    for p = 0 to half - 1 do
      us.((r * half) + p) <- perm.(2 * p);
      vs.((r * half) + p) <- perm.((2 * p) + 1)
    done
  done;
  { nodes; adj = Adjacency.of_endpoints ~nodes us vs }

let random_graph ~nodes ~edges ~seed =
  if nodes < 0 then invalid_arg "Graph.random_graph: nodes must be non-negative";
  if edges < 0 then invalid_arg "Graph.random_graph: edges must be non-negative";
  if nodes < 2 && edges > 0 then
    invalid_arg "Graph.random_graph: edges need at least 2 nodes";
  let rng = Random.State.make [| seed; nodes; edges |] in
  let us = Array.make edges 0 and vs = Array.make edges 0 in
  let made = ref 0 in
  (* draw with rejection of self-loops; [Adjacency.of_endpoints] drops
     repeats, so at most [edges] distinct edges remain *)
  while !made < edges do
    let u = Random.State.int rng nodes and v = Random.State.int rng nodes in
    if u <> v then begin
      us.(!made) <- u;
      vs.(!made) <- v;
      incr made
    end
  done;
  { nodes; adj = Adjacency.of_endpoints ~nodes us vs }

let torus ~width ~height =
  if width < 1 then invalid_arg "Graph.torus: width must be at least 1";
  if height < 1 then invalid_arg "Graph.torus: height must be at least 1";
  let nodes = width * height in
  let us = Array.make (2 * nodes) 0 and vs = Array.make (2 * nodes) 0 in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      (* the right and the down neighbour, wrapping around *)
      let u = (y * width) + x in
      us.(2 * u) <- u;
      vs.(2 * u) <- (y * width) + ((x + 1) mod width);
      us.((2 * u) + 1) <- u;
      vs.((2 * u) + 1) <- (((y + 1) mod height) * width) + x
    done
  done;
  { nodes; adj = Adjacency.of_endpoints ~nodes us vs }

let edges t = Array.fold_left (fun acc a -> acc + Array.length a) 0 t.adj

let reachable_from t src =
  let seen = Array.make t.nodes false in
  (* FIFO of discovered nodes; each node enters at most once *)
  let queue = Array.make t.nodes src in
  seen.(src) <- true;
  let tail = ref 1 in
  let head = ref 0 in
  while !head < !tail do
    let a = t.adj.(queue.(!head)) in
    incr head;
    for i = 0 to Array.length a - 1 do
      let v = a.(i) in
      if not seen.(v) then begin
        seen.(v) <- true;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  seen

let degree_histogram t =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun a ->
      let d = Array.length a in
      Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d)))
    t.adj;
  List.sort compare (Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl [])
