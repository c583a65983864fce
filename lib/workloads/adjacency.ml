(* Each edge gives two directed entries (owner, neighbour). Pass 1
   counting-sorts the entries by neighbour, keeping only the owner. Pass 2
   walks them in that order and appends each neighbour to its owner's slice
   of one CSR (compressed sparse row) array, so every slice fills in
   ascending order and a repeat always lands right after its first copy,
   where it is skipped. The entry set is symmetric, so a node owns as many
   entries as it is the neighbour of, and one offset array sizes the
   buckets of both passes. *)
let of_endpoints ~nodes us vs =
  let off = Array.make (nodes + 1) 0 in
  Array.iteri
    (fun i u ->
      let v = vs.(i) in
      if u <> v then begin
        off.(u + 1) <- off.(u + 1) + 1;
        off.(v + 1) <- off.(v + 1) + 1
      end)
    us;
  for u = 1 to nodes do
    off.(u) <- off.(u) + off.(u - 1)
  done;
  let owners = Array.make off.(nodes) 0 in
  let next = Array.sub off 0 nodes in
  Array.iteri
    (fun i u ->
      let v = vs.(i) in
      if u <> v then begin
        owners.(next.(v)) <- u;
        next.(v) <- next.(v) + 1;
        owners.(next.(u)) <- v;
        next.(u) <- next.(u) + 1
      end)
    us;
  let csr = Array.make off.(nodes) 0 in
  Array.blit off 0 next 0 nodes;
  for v = 0 to nodes - 1 do
    for k = off.(v) to off.(v + 1) - 1 do
      let u = owners.(k) in
      let n = next.(u) in
      if n = off.(u) || csr.(n - 1) <> v then begin
        csr.(n) <- v;
        next.(u) <- n + 1
      end
    done
  done;
  Array.init nodes (fun u -> Array.sub csr off.(u) (next.(u) - off.(u)))
