(* Work-stealing runtime over the native deques.

   The shape follows the paper's discipline (and Rito & Paulino's
   low-synchronization scheduler): a worker's own spawn, push, pop and
   execute touch only state that no other domain writes, and all
   coordination lives on the cold paths: the steal path (CAS / the THE
   conflict lock, one random victim per probe), the external-submission
   injector (mutex FIFO), the parking lot (mutex + condition, entered
   only after a full failed hunt) and the termination check (run only
   when a hunt fails).

   Bookkeeping. Each slot (0 is the coordinator, 1..n the workers) owns a
   [slot] record: its [worker_stats], the id of the task it is running,
   and two monotone counts, [spawned] (tasks it spawned) and [finished]
   (tasks it ran to the end). Callers that own no slot (external [spawn]
   and [submit], [shutdown]'s drain) share one more pair, [ext_spawned] /
   [ext_finished]. Every block a slot writes per task, and each deque's
   indices, are padded at [create] ([Chase_lev.padded]) so that no two
   domains' hot words share a cache line. There is no pool-wide counter on the
   task path.

   Invariants, each of which an earlier version violated:

   - In flight = sum of spawned - sum of finished. A task's spawn is
     counted (by its spawner, before the push) before any domain can run
     it, so at every instant the finished total is at most the spawned
     total. [in_flight] reads every [finished] first and every [spawned]
     second; both are monotone, so the first sum is at most the finished
     total at the instant T between the two passes and the second at least
     the spawned total at T. A zero therefore means nothing was in flight
     at T; only an external caller can spawn after that, and a run that
     races its own external spawns has no defined end anyway. A nonzero
     result may over-estimate, never miss a task. The sums are taken only
     when a hunt fails, or by a finisher that sees a sleeper.

   - Exceptions: a task that raises must still be counted finished
     (otherwise [parallel_run] waits forever for a count that can never
     balance) and must not kill its worker domain. The first failure is
     captured (with its backtrace) and re-raised at the join point.

   - Single-owner push: only the domain that owns a deque may push to it.
     Non-worker domains submit through [injector]; in debug mode every
     push asserts the caller is the recorded owner.

   - Parking: a worker sleeps only when every deque and the injector are
     empty ([pending] = 0); the coordinator sleeps only when they are
     empty and something is still in flight. The parker raises [sleepers]
     (an atomic read-modify-write) and then reads the queues; every
     enqueue publishes its cell with a full fence (a deque push's
     [Atomic.set] of the tail, the injector's [Atomic.incr] of its size)
     and then reads [sleepers]. That is the store-buffering shape, and
     with both sides SC at least one sees the other: the parker finds the
     cell, or the enqueuer finds the sleeper and broadcasts. A push that
     drops that fence must put one back before it reads [sleepers]. The
     coordinator's wake-up is the same shape over [finished]: the
     finisher that sees a sleeper and a zero in-flight sum broadcasts.

   - Shutdown: a caller that owns no slot counts its task in
     [ext_spawned] before it reads [shut]; when [shut] is set it counts
     the task finished and raises. [shutdown] sets [shut] first, then
     drains (executing queued work, not dropping it) until nothing is in
     flight, then stops and joins the workers; it is idempotent. So a
     submission either sees [shut] or is seen by the drain: none is
     accepted and lost. *)

type task = unit -> unit

type backend = Chase_lev_deques | The_deques

(* What [submit] does when the injector already holds [injector_capacity]
   cells: refuse the task (open-system loss) or spin until a worker makes
   room (open-system queueing delay). *)
type backpressure = Drop | Block

type worker_stats = {
  mutable spawns : int;
  mutable tasks_run : int;
  mutable tasks_stolen : int;
  mutable injector_runs : int;
  mutable steal_attempts : int;
  mutable steals : int;
  mutable take_empties : int;
  mutable steal_empties : int;
  mutable steal_aborts : int;
  mutable parks : int;
}

let stats_create () =
  {
    spawns = 0;
    tasks_run = 0;
    tasks_stolen = 0;
    injector_runs = 0;
    steal_attempts = 0;
    steals = 0;
    take_empties = 0;
    steal_empties = 0;
    steal_aborts = 0;
    parks = 0;
  }

let stats_copy st =
  {
    spawns = st.spawns;
    tasks_run = st.tasks_run;
    tasks_stolen = st.tasks_stolen;
    injector_runs = st.injector_runs;
    steal_attempts = st.steal_attempts;
    steals = st.steals;
    take_empties = st.take_empties;
    steal_empties = st.steal_empties;
    steal_aborts = st.steal_aborts;
    parks = st.parks;
  }

let stats_equal a b =
  a.spawns = b.spawns && a.tasks_run = b.tasks_run
  && a.tasks_stolen = b.tasks_stolen
  && a.injector_runs = b.injector_runs
  && a.steal_attempts = b.steal_attempts
  && a.steals = b.steals
  && a.take_empties = b.take_empties
  && a.steal_empties = b.steal_empties
  && a.steal_aborts = b.steal_aborts
  && a.parks = b.parks

(* [id]/[parent] are flight-recorder task identities (-1 when the recorder
   is off): [parent] is the id of the task whose body called [spawn], which
   is what lets the reconstructor walk steal ancestries.

   [arr_ns]/[inj_ns] are monotonic-ns stage stamps taken when attribution
   is on (0 when off): arrival is when the producer first wanted the task
   in (before any [submit] backpressure spin), inject is when the cell
   actually entered a queue. The executor adds the dequeue and completion
   stamps, yielding the three-stage split qwait (arrival to inject),
   dispatch (inject to dequeue) and service (dequeue to completion). *)
type cell = {
  f : task;
  id : int;
  parent : int;
  arr_ns : int;
  inj_ns : int;
}

type deque = Cl of cell Chase_lev.t | The of cell The_queue.t

(* Multi-producer multi-consumer FIFO for work entering from outside the
   worker domains. Chase-Lev's push is single-owner, so external
   submitters cannot be handed a deque: they enqueue here, and workers
   drain this queue when their own deque is empty. It is the pool's front
   door, not its hot loop, so a mutex around a plain FIFO is the right
   trade, exactly as the paper keeps the owner path synchronization-free
   by pushing coordination onto the thieves. [size] is an atomic outside
   the lock, so "is there anything to drain?" and a parked worker's wake-up
   predicate are a single load. *)
module Injector = struct
  type 'a t = { lock : Mutex.t; q : 'a Queue.t; size : int Atomic.t }

  let create () =
    { lock = Mutex.create (); q = Queue.create (); size = Atomic.make 0 }

  let push t v =
    Mutex.lock t.lock;
    Queue.push v t.q;
    Atomic.incr t.size;
    Mutex.unlock t.lock

  let pop t =
    if Atomic.get t.size = 0 then None
    else begin
      Mutex.lock t.lock;
      let r =
        if Queue.is_empty t.q then None
        else begin
          Atomic.decr t.size;
          Some (Queue.pop t.q)
        end
      in
      Mutex.unlock t.lock;
      r
    end

  let size t = Atomic.get t.size
end

(* Everything a slot's owner writes on the task path. Only the owner
   writes these blocks; other domains read [spawned]/[finished] when they
   sum, and [stats] in [worker_stats]. *)
type slot = {
  stats : worker_stats;
  mutable current : int;  (* id of the task being executed, -1 idle *)
  spawned : int Atomic.t;  (* tasks this slot spawned, ever *)
  finished : int Atomic.t;  (* tasks this slot ran to the end, ever *)
}

(* Every block of a slot is padded, so two slots' hot words never share
   a cache line. *)
let slot_create () =
  Chase_lev.padded
    {
      stats = Chase_lev.padded (stats_create ());
      current = -1;
      spawned = Chase_lev.padded (Atomic.make 0);
      finished = Chase_lev.padded (Atomic.make 0);
    }

type t = {
  deques : deque array;  (* slot 0: the coordinator; slots 1..n: workers *)
  owners : int array;  (* Domain id owning each deque; -1 when unclaimed *)
  injector : cell Injector.t;
  injector_capacity : int;  (* soft bound enforced by [submit] only *)
  injector_drops : int Atomic.t;  (* submissions refused under Drop *)
  slots : slot array;  (* per deque slot *)
  ext_spawned : int Atomic.t;  (* the no-slot pair: external spawns and *)
  ext_finished : int Atomic.t;  (* submits, and tasks run by the drain *)
  stop : bool Atomic.t;
  error : (exn * Printexc.raw_backtrace) option Atomic.t;
  mutable domains : unit Domain.t list;
  worker_id : int option Domain.DLS.key;
  debug : bool;
  attribution : bool;
  lock : Mutex.t;
  cond : Condition.t;
  sleepers : int Atomic.t;
  (* per-slot stage histograms (ns), written only by the owning domain
     (attribution only) *)
  stage_qwait : Telemetry.Histogram.t array;
  stage_dispatch : Telemetry.Histogram.t array;
  stage_service : Telemetry.Histogram.t array;
  recorder : Telemetry.Flight_recorder.t option;
  next_task_id : int Atomic.t;
  running : bool Atomic.t;  (* a parallel_run is in progress *)
  shut : bool Atomic.t;
}

let spin_rounds = 32

(* Capacity of each fixed-size THE deque; a push beyond it spills to the
   injector. *)
let the_capacity = 1 lsl 13

module FR = Telemetry.Flight_recorder

(* [arrived] backdates the arrival stamp for submissions that waited out
   a backpressure spin; 0 (the default) means "arrived right now". *)
let make_cell pool ~parent ?(arrived = 0) f =
  let inj_ns = if pool.attribution then Telemetry.Clock.now_ns () else 0 in
  let arr_ns = if arrived > 0 then arrived else inj_ns in
  match pool.recorder with
  | None -> { f; id = -1; parent = -1; arr_ns; inj_ns }
  | Some _ ->
      { f; id = Atomic.fetch_and_add pool.next_task_id 1; parent; arr_ns; inj_ns }

(* ------------------------------------------------------------------ *)
(* Counts                                                              *)
(* ------------------------------------------------------------------ *)

(* Tasks spawned and not yet finished: every [finished] read first, every
   [spawned] second, so a zero is exact (see the header). Costs two reads
   per slot, so it is taken only when a hunt fails, when a finisher sees a
   sleeper, and when a caller asks at quiescence. *)
let in_flight pool =
  let fin = ref (Atomic.get pool.ext_finished) in
  for i = 0 to Array.length pool.slots - 1 do
    fin := !fin + Atomic.get pool.slots.(i).finished
  done;
  let spw = ref (Atomic.get pool.ext_spawned) in
  for i = 0 to Array.length pool.slots - 1 do
    spw := !spw + Atomic.get pool.slots.(i).spawned
  done;
  !spw - !fin

(* Cells sitting in some queue: the deques' sizes plus the injector's. *)
let pending pool =
  let n = ref (Injector.size pool.injector) in
  for i = 0 to Array.length pool.deques - 1 do
    match pool.deques.(i) with
    | Cl q -> n := !n + Chase_lev.size q
    | The q -> n := !n + The_queue.size q
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Parking lot                                                         *)
(* ------------------------------------------------------------------ *)

let wake_all pool =
  if Atomic.get pool.sleepers > 0 then begin
    Mutex.lock pool.lock;
    Condition.broadcast pool.cond;
    Mutex.unlock pool.lock
  end

(* The no-lost-wakeup argument: the parker publishes [sleepers] (atomic
   increment) before testing the predicate; the waker publishes the state
   change (a deque's tail, the injector's size, [stop], a [finished]
   count) with an SC atomic write before reading [sleepers]. Under
   OCaml's SC atomics at least one side observes the other, so either
   the parker sees the new state and refuses to sleep, or the waker sees
   the sleeper and broadcasts (and the broadcast cannot be missed: the
   parker holds the mutex from its predicate test until [Condition.wait]
   releases it). *)
let park pool me ~should_sleep =
  Mutex.lock pool.lock;
  Atomic.incr pool.sleepers;
  if should_sleep () then begin
    let st = pool.slots.(me).stats in
    st.parks <- st.parks + 1;
    (match pool.recorder with
    | Some r -> FR.record r ~slot:me FR.Park ~task:FR.no_task ~arg:FR.no_arg
    | None -> ());
    while should_sleep () do
      Condition.wait pool.cond pool.lock
    done;
    match pool.recorder with
    | Some r -> FR.record r ~slot:me FR.Unpark ~task:FR.no_task ~arg:FR.no_arg
    | None -> ()
  end;
  Atomic.decr pool.sleepers;
  Mutex.unlock pool.lock

(* ------------------------------------------------------------------ *)
(* Deque dispatch                                                      *)
(* ------------------------------------------------------------------ *)

let assert_owner pool me =
  if pool.debug then begin
    let self = (Domain.self () :> int) in
    let owner = pool.owners.(me) in
    if owner <> self then
      invalid_arg
        (Printf.sprintf
           "Pool: single-owner violation: deque %d is owned by domain %d \
            but domain %d pushed to it"
           me owner self)
  end

let push_own pool me cell =
  assert_owner pool me;
  match pool.deques.(me) with
  | Cl q -> Chase_lev.push q cell
  | The q -> (
      (* THE is fixed-capacity; overflow spills to the unbounded injector
         rather than raising into the middle of a task *)
      try The_queue.push q cell
      with Failure _ -> Injector.push pool.injector cell)

let pop_own pool me =
  match pool.deques.(me) with
  | Cl q -> Chase_lev.pop q
  | The q -> The_queue.pop q

(* The detailed outcome feeds the contention counters: [`Empty] is a
   mistargeted hunt, [`Abort] a live conflict. *)
let steal_from pool victim =
  match pool.deques.(victim) with
  | Cl q -> Chase_lev.steal_detail q
  | The q -> The_queue.steal_detail q

(* ------------------------------------------------------------------ *)
(* Task execution                                                      *)
(* ------------------------------------------------------------------ *)

let record_error pool e bt =
  ignore (Atomic.compare_and_set pool.error None (Some (e, bt)))

(* Count one task finished in [finished] (a slot's count, or the no-slot
   one). The coordinator parks while something is in flight, so the
   finisher that sees a sleeper and leaves the sums balanced wakes it. *)
let finish pool finished =
  Atomic.incr finished;
  if Atomic.get pool.sleepers > 0 && in_flight pool = 0 then wake_all pool

(* The finish is unconditional: a raising task counts as finished (its
   failure is captured for the join point), so the run can terminate and
   report instead of spinning forever. [current] is set for the duration
   of the task body so that nested [spawn]s can name their parent; only
   this slot's domain touches it. *)
let exec_cell pool me cell =
  let s = pool.slots.(me) in
  s.current <- cell.id;
  let deq_ns = if cell.inj_ns > 0 then Telemetry.Clock.now_ns () else 0 in
  (try cell.f ()
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     record_error pool e bt);
  s.current <- -1;
  let st = s.stats in
  st.tasks_run <- st.tasks_run + 1;
  if deq_ns > 0 then begin
    (* all four stamps read the same monotonic clock, and this slot's
       histograms are single-writer, so no lock is needed *)
    let fin = Telemetry.Clock.now_ns () in
    Telemetry.Histogram.observe pool.stage_qwait.(me)
      (cell.inj_ns - cell.arr_ns);
    Telemetry.Histogram.observe pool.stage_dispatch.(me)
      (deq_ns - cell.inj_ns);
    Telemetry.Histogram.observe pool.stage_service.(me) (fin - deq_ns)
  end;
  finish pool s.finished

(* A uniformly random slot other than [me]. *)
let pick_victim pool me rng =
  let v = Random.State.int rng (Array.length pool.deques - 1) in
  if v >= me then v + 1 else v

(* A Run event is recorded at dequeue time (execution follows immediately
   in the worker loop), with the provenance in [arg] — that pairing with
   the task's Spawn/Inject record is the whole lineage story. *)
let record_run pool me cell ~arg =
  match pool.recorder with
  | Some r -> FR.record r ~slot:me FR.Run ~task:cell.id ~arg
  | None -> ()

(* One full hunt: own deque, then the injector, then one steal attempt
   per other deque. *)
let find_task pool me rng =
  let st = pool.slots.(me).stats in
  match pop_own pool me with
  | Some c ->
      record_run pool me c ~arg:FR.origin_pop;
      Some c
  | None -> (
      st.take_empties <- st.take_empties + 1;
      match Injector.pop pool.injector with
      | Some c ->
          st.injector_runs <- st.injector_runs + 1;
          record_run pool me c ~arg:FR.origin_inject;
          Some c
      | None ->
          let n = Array.length pool.deques in
          let found = ref None in
          let attempts = ref 0 in
          while Option.is_none !found && !attempts < n - 1 do
            incr attempts;
            st.steal_attempts <- st.steal_attempts + 1;
            let victim = pick_victim pool me rng in
            (match steal_from pool victim with
            | `Task c ->
                st.steals <- st.steals + 1;
                st.tasks_stolen <- st.tasks_stolen + 1;
                (match pool.recorder with
                | Some r ->
                    FR.record r ~slot:me FR.Steal ~task:c.id ~arg:victim
                | None -> ());
                record_run pool me c ~arg:victim;
                found := Some c
            | `Empty ->
                st.steal_empties <- st.steal_empties + 1;
                Domain.cpu_relax ()
            | `Abort ->
                st.steal_aborts <- st.steal_aborts + 1;
                (match pool.recorder with
                | Some r ->
                    FR.record r ~slot:me FR.Steal_abort ~task:FR.no_task
                      ~arg:victim
                | None -> ());
                Domain.cpu_relax ())
          done;
          !found)

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let worker_loop pool me =
  Domain.DLS.set pool.worker_id (Some me);
  pool.owners.(me) <- (Domain.self () :> int);
  let rng = Random.State.make [| 0x9e3779b9; me |] in
  let spins = ref 0 in
  while not (Atomic.get pool.stop) do
    match find_task pool me rng with
    | Some cell ->
        spins := 0;
        exec_cell pool me cell
    | None ->
        incr spins;
        if !spins < spin_rounds then Domain.cpu_relax ()
        else begin
          spins := 0;
          park pool me ~should_sleep:(fun () ->
              (not (Atomic.get pool.stop)) && pending pool = 0)
        end
  done

(* ------------------------------------------------------------------ *)
(* API                                                                 *)
(* ------------------------------------------------------------------ *)

let create ?domains ?(backend = Chase_lev_deques) ?(attribution = false)
    ?(debug = false) ?(injector_capacity = max_int) ?(flight = false)
    ?(flight_capacity = 16384) () =
  if injector_capacity < 1 then
    invalid_arg "Pool.create: injector_capacity must be >= 1";
  let n =
    match domains with
    | Some d -> max 1 d
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let mk_deque () =
    match backend with
    | Chase_lev_deques -> Cl (Chase_lev.create ~capacity:64 ())
    | The_deques -> The (The_queue.create ~capacity:the_capacity ())
  in
  let worker_id = Domain.DLS.new_key (fun () -> None) in
  (* One record, created once and shared with every worker: [domains] is a
     mutable field filled in below, so the workers, the coordinator and
     [shutdown] all see the same state (the previous [{ pool with domains }]
     copy handed the workers a record whose domain list stayed []). *)
  let pool =
    {
      deques = Array.init (n + 1) (fun _ -> mk_deque ());
      owners = Array.make (n + 1) (-1);
      injector = Injector.create ();
      injector_capacity;
      injector_drops = Atomic.make 0;
      slots = Array.init (n + 1) (fun _ -> slot_create ());
      ext_spawned = Chase_lev.padded (Atomic.make 0);
      ext_finished = Chase_lev.padded (Atomic.make 0);
      stop = Atomic.make false;
      error = Atomic.make None;
      domains = [];
      worker_id;
      debug;
      attribution;
      lock = Mutex.create ();
      cond = Condition.create ();
      sleepers = Atomic.make 0;
      stage_qwait = Array.init (n + 1) (fun _ -> Telemetry.Histogram.create ());
      stage_dispatch =
        Array.init (n + 1) (fun _ -> Telemetry.Histogram.create ());
      stage_service =
        Array.init (n + 1) (fun _ -> Telemetry.Histogram.create ());
      recorder =
        (if flight then
           Some (FR.create ~capacity:flight_capacity ~slots:(n + 1) ())
         else None);
      next_task_id = Atomic.make 0;
      running = Atomic.make false;
      shut = Atomic.make false;
    }
  in
  pool.domains <-
    List.init n (fun i -> Domain.spawn (fun () -> worker_loop pool (i + 1)));
  pool

(* A caller that owns no slot counts its task in flight before it reads
   [shut], so a [shutdown] that has not stopped it will wait for the
   task (see the header). A refused task is counted finished again. *)
let admit pool ~what =
  Atomic.incr pool.ext_spawned;
  if Atomic.get pool.shut then begin
    finish pool pool.ext_finished;
    invalid_arg (what ^ ": pool is shut down")
  end

(* Enqueue an admitted task on the injector. *)
let inject ?arrived pool f =
  let cell = make_cell pool ~parent:(-1) ?arrived f in
  (match pool.recorder with
  | Some r -> FR.record_external r FR.Inject ~task:cell.id ~arg:FR.no_arg
  | None -> ());
  Injector.push pool.injector cell;
  wake_all pool

let spawn pool f =
  match Domain.DLS.get pool.worker_id with
  | Some me ->
      (* a slot owner spawns from inside a task, which is itself in
         flight: no drain can end before this spawn is counted, whichever
         side of [shut] it reads *)
      if Atomic.get pool.shut then invalid_arg "Pool.spawn: pool is shut down";
      let s = pool.slots.(me) in
      Atomic.incr s.spawned;
      let cell = make_cell pool ~parent:s.current f in
      s.stats.spawns <- s.stats.spawns + 1;
      (* The Spawn event lands before the push: the cell must be on record
         before a thief can emit the matching Steal/Run. *)
      (match pool.recorder with
      | Some r -> FR.record r ~slot:me FR.Spawn ~task:cell.id ~arg:cell.parent
      | None -> ());
      push_own pool me cell;
      wake_all pool
  | None ->
      (* not a pool domain: Chase-Lev push is single-owner, so external
         submissions go through the MPMC injector *)
      admit pool ~what:"Pool.spawn";
      inject pool f

(* External submission under the injector bound. [spawn] is the closed-
   system door and never refuses work (a worker body must be able to fork
   unconditionally); [submit] is the open-system front door, where load
   the pool cannot absorb has to be shed or delayed somewhere, and that
   somewhere is here. The bound is soft: concurrent submitters race the
   size check, so the depth can transiently exceed capacity by the number
   of racing callers — fine for backpressure, whose job is to stop an
   unbounded queue, not to enforce an exact high-water mark. A [Block]
   spin also ends when [shutdown] begins, and the task is refused. *)
let submit ?(policy = Block) pool f =
  admit pool ~what:"Pool.submit";
  (* arrival is stamped before the capacity check: a Block spin is queueing
     delay the request experiences, so it belongs to the qwait stage *)
  let arrived = if pool.attribution then Telemetry.Clock.now_ns () else 0 in
  if Injector.size pool.injector < pool.injector_capacity then begin
    inject ~arrived pool f;
    true
  end
  else
    match policy with
    | Drop ->
        Atomic.incr pool.injector_drops;
        finish pool pool.ext_finished;
        false
    | Block ->
        while
          Injector.size pool.injector >= pool.injector_capacity
          && not (Atomic.get pool.shut)
        do
          Domain.cpu_relax ()
        done;
        if Atomic.get pool.shut then begin
          finish pool pool.ext_finished;
          invalid_arg "Pool.submit: pool is shut down"
        end;
        inject ~arrived pool f;
        true

let raise_pending_error pool =
  match Atomic.exchange pool.error None with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let parallel_run pool tasks =
  if Atomic.get pool.shut then
    invalid_arg "Pool.parallel_run: pool is shut down";
  if not (Atomic.compare_and_set pool.running false true) then
    invalid_arg "Pool.parallel_run: not reentrant";
  (* claim the coordinator slot for the calling domain *)
  Domain.DLS.set pool.worker_id (Some 0);
  pool.owners.(0) <- (Domain.self () :> int);
  List.iter (fun f -> spawn pool f) tasks;
  let rng = Random.State.make [| 0xab1e |] in
  (* the sums are taken only when a hunt fails *)
  let rec loop spins =
    match find_task pool 0 rng with
    | Some cell ->
        exec_cell pool 0 cell;
        loop 0
    | None when in_flight pool = 0 -> ()
    | None when spins < spin_rounds ->
        Domain.cpu_relax ();
        loop (spins + 1)
    | None ->
        park pool 0 ~should_sleep:(fun () ->
            pending pool = 0 && in_flight pool > 0);
        loop 0
  in
  loop 0;
  (* release the coordinator slot: spawns from this domain outside a
     parallel_run go through the injector like any other external caller *)
  Domain.DLS.set pool.worker_id None;
  pool.owners.(0) <- -1;
  Atomic.set pool.running false;
  raise_pending_error pool

(* Shutdown's drain: the caller owns no deque, so it may only consume the
   injector and steal — both safe from any domain. It sweeps the deques in
   order, so every queued cell is found. *)
let drain_find pool rr =
  match Injector.pop pool.injector with
  | Some c ->
      (match pool.recorder with
      | Some r -> FR.record_external r FR.Run ~task:c.id ~arg:FR.origin_inject
      | None -> ());
      Some c
  | None ->
      let n = Array.length pool.deques in
      let found = ref None in
      let attempts = ref 0 in
      while Option.is_none !found && !attempts < n do
        incr attempts;
        rr := (!rr + 1) mod n;
        (match steal_from pool !rr with
        | `Task c ->
            (match pool.recorder with
            | Some r -> FR.record_external r FR.Run ~task:c.id ~arg:!rr
            | None -> ());
            found := Some c
        | `Empty | `Abort -> ())
      done;
      !found

let shutdown pool =
  if Atomic.compare_and_set pool.shut false true then begin
    (* Drain before stopping: queued tasks are executed, not dropped. The
       caller helps from outside (injector + steals) while the workers
       keep running; the sums balancing means every spawned task has
       finished, including any admitted before [shut] was set. *)
    let rr = ref 0 in
    let rec drain () =
      match drain_find pool rr with
      | Some cell ->
          (try cell.f ()
           with e -> record_error pool e (Printexc.get_raw_backtrace ()));
          finish pool pool.ext_finished;
          drain ()
      | None when in_flight pool = 0 -> ()
      | None ->
          Domain.cpu_relax ();
          drain ()
    in
    drain ();
    Atomic.set pool.stop true;
    wake_all pool;
    List.iter Domain.join pool.domains;
    pool.domains <- [];
    raise_pending_error pool
  end

let worker_count pool = Array.length pool.deques - 1
let injector_depth pool = Injector.size pool.injector
let sleeper_count pool = Atomic.get pool.sleepers
let injector_drops pool = Atomic.get pool.injector_drops

(* Stable-read copy of one slot's counters: copy, re-copy, and accept
   only when two successive copies agree (the writer was quiet in between,
   so the copy is a consistent cut of that slot's history). The writer is
   never slowed down — all the cost is on the reader, bounded by [tries]:
   under sustained writes the last copy is returned, torn by at most the
   events in flight during the final copy. See pool.mli for the precise
   tolerance statement. *)
let stable_stats pool i =
  let st = pool.slots.(i).stats in
  let rec go prev tries =
    let cur = stats_copy st in
    if tries = 0 || stats_equal prev cur then cur else go cur (tries - 1)
  in
  go (stats_copy st) 3

let worker_stats pool =
  Array.init (Array.length pool.slots) (stable_stats pool)

let flight pool = pool.recorder

let tasks_run pool =
  Array.fold_left (fun acc s -> acc + s.stats.tasks_run) 0 pool.slots

let merge_all a =
  let h = Telemetry.Histogram.create () in
  Array.iter (fun l -> Telemetry.Histogram.merge ~into:h l) a;
  h

let stage_hists pool =
  ( merge_all pool.stage_qwait,
    merge_all pool.stage_dispatch,
    merge_all pool.stage_service )

let fib pool n =
  let acc = Atomic.make 0 in
  let rec task n () =
    if n < 2 then ignore (Atomic.fetch_and_add acc n)
    else begin
      spawn pool (task (n - 1));
      spawn pool (task (n - 2))
    end
  in
  parallel_run pool [ task n ];
  Atomic.get acc
