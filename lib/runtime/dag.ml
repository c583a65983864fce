type comp =
  | Leaf of int
  | Fork of { before : int; children : comp list; after : int }
  | Seq of comp list

(* Compressed sparse rows: the children of task [i] are
   [kids.(first.(i)) .. kids.(first.(i + 1) - 1)], in edge-insertion order. *)
type t = {
  work : int array;  (* per-task cycles *)
  deps : int array;  (* incoming-edge count *)
  first : int array;  (* length [size + 1] *)
  kids : int array;  (* tasks unblocked when the row's task completes *)
}

(* Growable int vector. *)
type vec = {
  mutable data : int array;
  mutable len : int;
}

let vec () = { data = Array.make 1024 0; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let grown = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 grown 0 v.len;
    v.data <- grown
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

type builder = {
  b_work : vec;
  b_src : vec;
  b_dst : vec;
}

let add b work =
  let id = b.b_work.len in
  push b.b_work work;
  id

let edge b src dst =
  push b.b_src src;
  push b.b_dst dst

(* Returns (entry, exit) task ids of the sub-computation. *)
let rec build b = function
  | Leaf w ->
      let id = add b w in
      (id, id)
  | Fork { before; children; after } ->
      let fork = add b before in
      let join = add b after in
      edge b fork join;
      List.iter
        (fun child ->
          let entry, exit_ = build b child in
          edge b fork entry;
          edge b exit_ join)
        children;
      (fork, join)
  | Seq comps -> (
      let ends = List.map (build b) comps in
      match ends with
      | [] ->
          let id = add b 0 in
          (id, id)
      | (entry0, exit0) :: rest ->
          let exit_ =
            List.fold_left
              (fun prev_exit (entry, exit_) ->
                edge b prev_exit entry;
                exit_)
              exit0 rest
          in
          (entry0, exit_))

let of_comp comp =
  let b = { b_work = vec (); b_src = vec (); b_dst = vec () } in
  let _ = build b comp in
  let n = b.b_work.len and m = b.b_src.len in
  let src = b.b_src.data and dst = b.b_dst.data in
  let deps = Array.make n 0 in
  let first = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    deps.(dst.(e)) <- deps.(dst.(e)) + 1;
    first.(src.(e) + 1) <- first.(src.(e) + 1) + 1
  done;
  for i = 1 to n do
    first.(i) <- first.(i) + first.(i - 1)
  done;
  let next = Array.sub first 0 n in
  let kids = Array.make m 0 in
  for e = 0 to m - 1 do
    let s = src.(e) in
    kids.(next.(s)) <- dst.(e);
    next.(s) <- next.(s) + 1
  done;
  { work = Array.sub b.b_work.data 0 n; deps; first; kids }

let size t = Array.length t.work
let total_work t = Array.fold_left ( + ) 0 t.work

let critical_path t =
  let n = size t in
  let dist = Array.make n (-1) in
  (* tasks are numbered so that edges go from lower fork ids to higher join
     ids only within a fork; a generic topological pass is safer. *)
  let indeg = Array.copy t.deps in
  let q = Queue.create () in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then begin
      dist.(i) <- t.work.(i);
      Queue.push i q
    end
  done;
  let best = ref 0 in
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    best := max !best dist.(i);
    for k = t.first.(i) to t.first.(i + 1) - 1 do
      let j = t.kids.(k) in
      dist.(j) <- max dist.(j) (dist.(i) + t.work.(j));
      indeg.(j) <- indeg.(j) - 1;
      if indeg.(j) = 0 then Queue.push j q
    done
  done;
  !best

let instantiate t ~name =
  let remaining = Array.copy t.deps in
  let n = size t in
  let roots = ref [] in
  for i = n - 1 downto 0 do
    if t.deps.(i) = 0 then roots := i :: !roots
  done;
  let executed = Array.make n false in
  (* The children of [id] this completion unblocks, in row order. *)
  let rec ready k stop =
    if k = stop then []
    else begin
      let j = t.kids.(k) in
      remaining.(j) <- remaining.(j) - 1;
      if remaining.(j) = 0 then j :: ready (k + 1) stop else ready (k + 1) stop
    end
  in
  let execute ~worker:_ id =
    if executed.(id) then
      failwith
        (Printf.sprintf "DAG workload %s: task %d executed twice" name id);
    executed.(id) <- true;
    Tso.Program.work t.work.(id);
    ready t.first.(id) t.first.(id + 1)
  in
  Workload.make ~name ~roots:!roots ~execute ~expected_total:n ()
