(* In-memory span recorder for traced runs.

   A span is (id, name, parent, start, end, domain) plus the counts taken
   at the same boundary. Spans are kept in memory while the workload runs
   and written out once, when it ends. A disabled recorder makes
   [with_span] a plain call, so untraced runs pay nothing. Recording takes
   a mutex, because grid points finish on several domains at once; that
   cost is part of what trace_overhead_pct measures. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  start_ns : int;
  end_ns : int;
  domain : int;
  counts : (string * int) list;
}

type t = {
  enabled : bool;
  next_id : int Atomic.t;
  lock : Mutex.t;
  mutable spans : span list;
  mutable pending : (int * string * int) list;  (** counts of open spans *)
}

let create ~enabled =
  {
    enabled;
    next_id = Atomic.make 0;
    lock = Mutex.create ();
    spans = [];
    pending = [];
  }

(* Attach a count to span [id] (ignored when disabled or for id -1). *)
let count t id key v =
  if t.enabled && id >= 0 then
    Mutex.protect t.lock (fun () -> t.pending <- (id, key, v) :: t.pending)

let with_span t ?(parent = -1) name f =
  if not t.enabled then f (-1)
  else begin
    let id = Atomic.fetch_and_add t.next_id 1 in
    let start_ns = Telemetry.Clock.now_ns () in
    let close () =
      let end_ns = Telemetry.Clock.now_ns () in
      let domain = (Domain.self () :> int) in
      Mutex.protect t.lock (fun () ->
          let mine, rest = List.partition (fun (i, _, _) -> i = id) t.pending in
          t.pending <- rest;
          let counts = List.rev_map (fun (_, k, v) -> (k, v)) mine in
          t.spans <-
            { id; name; parent; start_ns; end_ns; domain; counts } :: t.spans)
    in
    match f id with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let spans t =
  List.sort (fun a b -> compare a.id b.id) t.spans

let to_json t =
  let module J = Telemetry.Json in
  let origin =
    List.fold_left (fun acc s -> min acc s.start_ns) max_int t.spans
  in
  J.List
    (List.map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("name", J.Str s.name);
             ("parent", J.Int s.parent);
             ("start_ns", J.Int (s.start_ns - origin));
             ("end_ns", J.Int (s.end_ns - origin));
             ("domain", J.Int s.domain);
             ("counts", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) s.counts));
           ])
       (spans t))

let write t path = Telemetry.Json.write_file path (to_json t)
