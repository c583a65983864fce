(* Per-slot flight recorder for the native work-stealing pool.

   One fixed-capacity ring per pool slot, written only by the domain that
   owns that slot, so recording an event is four plain int stores plus a
   monotonic clock read — no CAS, no fence, no allocation. Wrapping
   overwrites the oldest events; [wrote] never resets, so the exact number
   of overwritten events is [max 0 (wrote - capacity)].

   Events are (kind, task, arg, timestamp) quadruples at stride 4 in a flat
   int array. The [arg] meaning depends on the kind (see the .mli): for Run
   events it encodes provenance (own pop / injector / victim slot), which is
   what the lineage reconstructor keys on.

   Injecting domains are outside the pool and own no slot, so they share one
   extra [external] ring guarded by a mutex — injection already takes the
   injector lock, so the cold path can afford a second one. *)

type kind = Spawn | Run | Steal | Steal_abort | Inject | Park | Unpark

let kind_to_int = function
  | Spawn -> 0
  | Run -> 1
  | Steal -> 2
  | Steal_abort -> 3
  | Inject -> 4
  | Park -> 5
  | Unpark -> 6

let kind_of_int = function
  | 0 -> Spawn
  | 1 -> Run
  | 2 -> Steal
  | 3 -> Steal_abort
  | 4 -> Inject
  | 5 -> Park
  | 6 -> Unpark
  | k -> invalid_arg (Printf.sprintf "Flight_recorder.kind_of_int %d" k)

let kind_name = function
  | Spawn -> "spawn"
  | Run -> "run"
  | Steal -> "steal"
  | Steal_abort -> "steal_abort"
  | Inject -> "inject"
  | Park -> "park"
  | Unpark -> "unpark"

let origin_pop = -1
let origin_inject = -2
let no_task = -1
let no_arg = -1

type ring = {
  mask : int;  (* capacity - 1; capacity is a power of two *)
  buf : int array;  (* capacity * 4 ints: kind, task, arg, ts *)
  mutable wrote : int;  (* events ever recorded, monotone *)
}

type t = {
  slots : int;
  capacity : int;
  rings : ring array;  (* rings.(slot): single-writer; rings.(slots): external *)
  ext_lock : Mutex.t;
  base_ns : int;  (* decoded timestamps are relative to creation *)
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* The largest power of two whose ring, four ints per event, fits one
   array. *)
let max_capacity =
  let rec go p = if 2 * p * 4 <= Sys.max_array_length then go (2 * p) else p in
  go 1

let create ?(capacity = 16384) ~slots () =
  if slots < 1 then invalid_arg "Flight_recorder.create: slots < 1";
  if capacity < 1 then invalid_arg "Flight_recorder.create: capacity < 1";
  if capacity > max_capacity then
    invalid_arg "Flight_recorder.create: capacity > max_capacity";
  let capacity = next_pow2 capacity in
  let mk_ring () = { mask = capacity - 1; buf = Array.make (capacity * 4) 0; wrote = 0 } in
  {
    slots;
    capacity;
    rings = Array.init (slots + 1) (fun _ -> mk_ring ());
    ext_lock = Mutex.create ();
    base_ns = Clock.now_ns ();
  }

let slots t = t.slots
let capacity t = t.capacity

(* The hot path. The index arithmetic keeps [i] in [0, capacity*4), so the
   unsafe stores are in bounds by construction; using them keeps the probe
   under the 50 ns/event budget. *)
let[@inline] record_in ring ~kind ~task ~arg =
  let i = (ring.wrote land ring.mask) * 4 in
  let buf = ring.buf in
  Array.unsafe_set buf i (kind_to_int kind);
  Array.unsafe_set buf (i + 1) task;
  Array.unsafe_set buf (i + 2) arg;
  Array.unsafe_set buf (i + 3) (Clock.now_ns ());
  ring.wrote <- ring.wrote + 1

let[@inline] record t ~slot kind ~task ~arg =
  record_in (Array.unsafe_get t.rings slot) ~kind ~task ~arg

let record_external t kind ~task ~arg =
  Mutex.lock t.ext_lock;
  record_in t.rings.(t.slots) ~kind ~task ~arg;
  Mutex.unlock t.ext_lock

let wrote t ~slot = t.rings.(slot).wrote

let dropped t =
  Array.map (fun r -> max 0 (r.wrote - t.capacity)) t.rings

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

type event = { slot : int; kind : kind; task : int; arg : int; ts : int }

(* Ring index i is the pool slot for i < slots; the external ring decodes
   as slot -1. *)
let slot_of_ring t i = if i = t.slots then -1 else i

let events_of_ring t i =
  let r = t.rings.(i) in
  let slot = slot_of_ring t i in
  let first = max 0 (r.wrote - t.capacity) in
  let out = ref [] in
  for j = r.wrote - 1 downto first do
    let k = (j land r.mask) * 4 in
    out :=
      {
        slot;
        kind = kind_of_int r.buf.(k);
        task = r.buf.(k + 1);
        arg = r.buf.(k + 2);
        ts = r.buf.(k + 3) - t.base_ns;
      }
      :: !out
  done;
  !out

let events_of_slot t slot =
  events_of_ring t (if slot = -1 then t.slots else slot)

let events t =
  let all = List.concat (List.init (t.slots + 1) (events_of_ring t)) in
  (* Stable sort: same-timestamp events keep ring order (slot-major). *)
  List.stable_sort (fun a b -> compare a.ts b.ts) all

(* ------------------------------------------------------------------ *)
(* Lineage reconstruction                                              *)

type origin = Pop | Injected | Stolen of int

type lineage = {
  id : int;
  parent : int;  (* -1 = external / root *)
  spawn_slot : int;  (* -1 = injected from outside the pool *)
  spawn_ts : int;
  run_slot : int;
  run_ts : int;
  origin : origin;
  steal_depth : int;  (* stolen links on the spawn-ancestry path *)
}

let reconstruct t =
  let evs = events t in
  let spawns = Hashtbl.create 256 in
  let runs = Hashtbl.create 256 in
  List.iter
    (fun e ->
      match e.kind with
      | Spawn -> Hashtbl.replace spawns e.task (e.slot, e.arg, e.ts)
      | Inject -> Hashtbl.replace spawns e.task (-1, -1, e.ts)
      | Run -> Hashtbl.replace runs e.task (e.slot, e.arg, e.ts)
      | _ -> ())
    evs;
  let depth_memo = Hashtbl.create 256 in
  let rec steal_depth id =
    if id < 0 then 0
    else
      match Hashtbl.find_opt depth_memo id with
      | Some d -> d
      | None ->
          (* Break potential cycles from dropped/reused records defensively. *)
          Hashtbl.replace depth_memo id 0;
          let d =
            match (Hashtbl.find_opt spawns id, Hashtbl.find_opt runs id) with
            | Some (_, parent, _), Some (_, arg, _) ->
                (if arg >= 0 then 1 else 0) + steal_depth parent
            | Some (_, parent, _), None -> steal_depth parent
            | None, _ -> 0
          in
          Hashtbl.replace depth_memo id d;
          d
  in
  let unresolved = ref 0 in
  let tasks = ref [] in
  Hashtbl.iter
    (fun id (run_slot, arg, run_ts) ->
      match Hashtbl.find_opt spawns id with
      | None -> incr unresolved
      | Some (spawn_slot, parent, spawn_ts) ->
          let origin =
            if arg >= 0 then Stolen arg
            else if arg = origin_inject then Injected
            else Pop
          in
          tasks :=
            {
              id;
              parent;
              spawn_slot;
              spawn_ts;
              run_slot;
              run_ts;
              origin;
              steal_depth = steal_depth id;
            }
            :: !tasks)
    runs;
  let tasks = List.sort (fun a b -> compare a.id b.id) !tasks in
  (tasks, !unresolved)

(* ------------------------------------------------------------------ *)
(* wsrepro-flight/v1 report                                            *)

let schema_id = "wsrepro-flight/v1"

let origin_json = function
  | Pop -> [ ("origin", Json.Str "pop") ]
  | Injected -> [ ("origin", Json.Str "inject") ]
  | Stolen v -> [ ("origin", Json.Str "steal"); ("victim", Json.Int v) ]

let lineage_json l =
  Json.Obj
    ([
       ("id", Json.Int l.id);
       ("parent", Json.Int l.parent);
       ("spawn_slot", Json.Int l.spawn_slot);
       ("spawn_ts_ns", Json.Int l.spawn_ts);
       ("run_slot", Json.Int l.run_slot);
       ("run_ts_ns", Json.Int l.run_ts);
     ]
    @ origin_json l.origin
    @ [
        ("residency_ns", Json.Int (max 0 (l.run_ts - l.spawn_ts)));
        ("steal_depth", Json.Int l.steal_depth);
      ])

let event_json e =
  Json.Obj
    [
      ("slot", Json.Int e.slot);
      ("kind", Json.Str (kind_name e.kind));
      ("task", Json.Int e.task);
      ("arg", Json.Int e.arg);
      ("ts_ns", Json.Int e.ts);
    ]

let report t =
  let tasks, unresolved = reconstruct t in
  let residency = Histogram.create () in
  let depth = Histogram.create () in
  let stolen = ref 0 and injected = ref 0 and popped = ref 0 in
  let max_depth = ref 0 in
  List.iter
    (fun l ->
      Histogram.observe residency (max 0 (l.run_ts - l.spawn_ts));
      Histogram.observe depth l.steal_depth;
      max_depth := max !max_depth l.steal_depth;
      match l.origin with
      | Stolen _ -> incr stolen
      | Injected -> incr injected
      | Pop -> incr popped)
    tasks;
  Json.Obj
    [
      ("schema", Json.Str schema_id);
      ("slots", Json.Int t.slots);
      ("capacity", Json.Int t.capacity);
      ("dropped", Json.List (Array.to_list (Array.map (fun d -> Json.Int d) (dropped t))));
      ("tasks", Json.List (List.map lineage_json tasks));
      ("unresolved_runs", Json.Int unresolved);
      ( "summary",
        Json.Obj
          [
            ("tasks", Json.Int (List.length tasks));
            ("stolen", Json.Int !stolen);
            ("injected", Json.Int !injected);
            ("popped", Json.Int !popped);
            ("max_steal_depth", Json.Int !max_depth);
            ("residency_ns", Histogram.to_json residency);
            ("steal_depth", Histogram.to_json depth);
          ] );
      ("events", Json.List (List.map event_json (events t)));
    ]

let report_string t = Json.to_string ~indent:true (report t) ^ "\n"

let write_report t path =
  let oc = open_out path in
  output_string oc (report_string t);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

let validate json =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let field obj name =
    match Json.member name obj with
    | Some v -> Ok v
    | None -> err "missing field %S" name
  in
  let int_field obj name =
    let* v = field obj name in
    match v with Json.Int i -> Ok i | _ -> err "field %S: expected int" name
  in
  let* schema = field json "schema" in
  let* () =
    match schema with
    | Json.Str s when s = schema_id -> Ok ()
    | Json.Str s -> err "schema %S (want %s)" s schema_id
    | _ -> err "field \"schema\": expected string"
  in
  let* slots = int_field json "slots" in
  let* () = if slots >= 1 then Ok () else err "slots %d < 1" slots in
  let* capacity = int_field json "capacity" in
  let* () = if capacity >= 1 then Ok () else err "capacity %d < 1" capacity in
  let* dropped = field json "dropped" in
  let* () =
    match dropped with
    | Json.List ds when List.length ds = slots + 1 ->
        if List.for_all (function Json.Int d -> d >= 0 | _ -> false) ds then
          Ok ()
        else err "field \"dropped\": expected non-negative ints"
    | Json.List ds ->
        err "field \"dropped\": %d rings (want slots+1 = %d)" (List.length ds)
          (slots + 1)
    | _ -> err "field \"dropped\": expected list"
  in
  let* _ = field json "summary" in
  let* tasks = field json "tasks" in
  let* tasks =
    match tasks with
    | Json.List ts -> Ok ts
    | _ -> err "field \"tasks\": expected list"
  in
  let check_task tj =
    let* id = int_field tj "id" in
    let* run_slot = int_field tj "run_slot" in
    let* _ = int_field tj "spawn_slot" in
    let* _ = int_field tj "parent" in
    let* _ = int_field tj "residency_ns" in
    let* depth = int_field tj "steal_depth" in
    let* () =
      if depth >= 0 then Ok () else err "task %d: steal_depth %d < 0" id depth
    in
    let* origin = field tj "origin" in
    match origin with
    | Json.Str "pop" | Json.Str "inject" -> Ok ()
    | Json.Str "steal" ->
        let* victim = int_field tj "victim" in
        if victim < 0 then err "task %d: steal victim %d < 0" id victim
        else if victim = run_slot then
          err "task %d: steal victim %d = thief slot" id victim
        else if depth < 1 then err "task %d: stolen but steal_depth 0" id
        else Ok ()
    | Json.Str s -> err "task %d: unknown origin %S" id s
    | _ -> err "task %d: field \"origin\": expected string" id
  in
  let rec check_all = function
    | [] -> Ok ()
    | tj :: rest ->
        let* () = check_task tj in
        check_all rest
  in
  check_all tasks

(* ------------------------------------------------------------------ *)
(* Chrome trace with steal flow arrows                                 *)

let to_chrome ?(pid = 0) t =
  let tr = Chrome_trace.create () in
  Chrome_trace.set_process_name tr ~pid "wsrepro native pool";
  for s = 0 to t.slots - 1 do
    let name = if s = 0 then "slot 0 (coordinator)" else Printf.sprintf "slot %d" s in
    Chrome_trace.set_thread_name tr ~pid ~tid:s name
  done;
  Chrome_trace.set_thread_name tr ~pid ~tid:t.slots "external";
  let tid_of_slot s = if s = -1 then t.slots else s in
  let us ns = ns / 1000 in
  List.iter
    (fun e ->
      let tid = tid_of_slot e.slot in
      let ts = us e.ts in
      match e.kind with
      | Park | Unpark | Steal_abort ->
          Chrome_trace.instant tr ~name:(kind_name e.kind) ~cat:"pool" ~pid ~tid
            ~ts ()
      | Spawn | Inject | Run | Steal -> ())
    (events t);
  let tasks, _ = reconstruct t in
  List.iter
    (fun l ->
      let spawn_tid = tid_of_slot l.spawn_slot in
      Chrome_trace.instant tr
        ~name:(Printf.sprintf "spawn %d" l.id)
        ~cat:"task" ~pid ~tid:spawn_tid ~ts:(us l.spawn_ts) ();
      Chrome_trace.instant tr
        ~name:(Printf.sprintf "run %d" l.id)
        ~cat:"task" ~pid ~tid:l.run_slot ~ts:(us l.run_ts) ();
      match l.origin with
      | Stolen _ ->
          (* Arrow from the victim-side push to the thief-side run. *)
          Chrome_trace.flow_start tr ~name:"steal" ~cat:"steal" ~pid
            ~tid:spawn_tid ~ts:(us l.spawn_ts) ~id:l.id ();
          Chrome_trace.flow_finish tr ~name:"steal" ~cat:"steal" ~pid
            ~tid:l.run_slot ~ts:(us l.run_ts) ~id:l.id ()
      | Pop | Injected -> ())
    tasks;
  tr
