type instance = {
  machine : Machine.t;
  check : unit -> (unit, string) result;
}

type stats = {
  runs : int;
  truncated : int;
  deadlocks : int;
  pruned : int;
  memo_hits : int;
  sleep_skips : int;
  peak_depth : int;
  complete : bool;
  failures : (int list * string) list;
}

(* [stats_of_acc] already reverses both the failure list (sighting order)
   and, via [Prefix.to_list], leaves each choice sequence root-first, so
   the replay orientation is the stored one. *)
let failures_in_replay_order s = s.failures

let memo_hit_rate s =
  let visits = s.runs + s.memo_hits in
  if visits = 0 then 0.0 else float_of_int s.memo_hits /. float_of_int visits

(* The thread a transition runs, for preemption accounting, or -1: drains
   and flushes belong to the memory subsystem and never count as
   preemptions. *)
let thread_of = function
  | Machine.Step t -> t
  | Machine.Drain _ | Machine.Flush _ -> -1

(* Whose turn it is after [tr], given [last] before it: a memory-subsystem
   transition does not change it. *)
let next_last last = function
  | Machine.Step t -> t
  | Machine.Drain _ | Machine.Flush _ -> last

(* Raised by the run-budget callback to abort a search. *)
exception Stop

(* Partial-order reduction for busy-wait loops: a pause/label step is a pure
   no-op that commutes with every other transition, so exploring it is only
   useful once nothing else can move. Without this, a spinlock's
   cas-fail/pause cycle revisits the same machine state forever. The reduced
   list is the choice universe for BOTH search and replay, so recorded
   indices stay meaningful. *)
let is_noop m = function
  | Machine.Step t -> (
      match Machine.pending_class m t with
      | Machine.C_free -> true
      | _ -> false)
  | Machine.Drain _ | Machine.Flush _ -> false

let choices m =
  let ts = Machine.enabled m in
  match List.filter (fun t -> not (is_noop m t)) ts with
  | [] -> ts
  | productive -> productive

(* Same reduction over a reusable buffer: refill it with the enabled set,
   then compact out the no-ops in place (keeping order) unless everything is
   a no-op. This is the search's per-node choice computation, so it must
   yield exactly the same sequence as [choices]. *)
let choices_into m buf =
  let n = Machine.enabled_into m buf in
  let productive = ref 0 in
  for i = 0 to n - 1 do
    if not (is_noop m (Machine.tbuf_get buf i)) then incr productive
  done;
  if !productive = 0 || !productive = n then n
  else begin
    let j = ref 0 in
    for i = 0 to n - 1 do
      let tr = Machine.tbuf_get buf i in
      if not (is_noop m tr) then begin
        Machine.tbuf_set buf !j tr;
        incr j
      end
    done;
    Machine.tbuf_truncate buf !j;
    !j
  end

(* FNV-style mixing, as in {!Machine.fingerprint}; used to fold a sleep
   set into the memoization key. *)
let fnv_prime = 0x100000001b3
let[@inline] mix h k = (h lxor k) * fnv_prime

(* {2 Sleep sets}

   Source-DPOR (below) carries sleep sets (Godefroid). After a branch
   node's child [tr] has been fully explored, every execution from a later
   sibling that schedules only transitions independent of [tr] before
   eventually firing [tr] is a commuted copy of one explored under [tr] — so
   [tr] is put to sleep for the later siblings and skipped wherever it
   stays asleep. A sleeping transition wakes (is dropped) as soon as a
   dependent transition fires; since any transition of the same thread is
   dependent, a sleeping transition's footprint (taken when it went to
   sleep) stays valid for as long as it sleeps.

   Interaction with the bounds (DESIGN.md §10):
   - the depth bound is commutation-invariant (reordering preserves length),
     so truncated subtrees still justify sleep insertion;
   - the preemption count is NOT commutation-invariant, so under a CHESS
     bound a sibling only enters the sleep set if its subtree was explored
     without a single preemption prune or memo hit (a memo hit hides
     whether the earlier visit pruned) — otherwise some execution the
     sleeping transition is supposed to cover may have been cut;
   - with memoization, the sleep set is folded into the cache key, so a
     state is only pruned against a previous visit that had the same
     reductions applied. *)
type sleep_entry = { sl_tr : Machine.transition; sl_fp : Machine.footprint }

(* Structural equality on transitions, without the polymorphic compare. *)
let tr_equal a b =
  match (a, b) with
  | Machine.Step t, Machine.Step u | Machine.Flush t, Machine.Flush u -> t = u
  | Machine.Drain t, Machine.Drain u -> t = u
  | (Machine.Step _ | Machine.Drain _ | Machine.Flush _), _ -> false

let rec sleep_mem sleep tr =
  match sleep with
  | [] -> false
  | e :: rest -> tr_equal e.sl_tr tr || sleep_mem rest tr

(* The sleepers independent of [fp], in order; an unchanged tail is
   shared, not copied. *)
let rec sleep_filter sleep fp =
  match sleep with
  | [] -> sleep
  | e :: rest ->
      let rest' = sleep_filter rest fp in
      if not (Machine.independent e.sl_fp fp) then rest'
      else if rest' == rest then sleep
      else e :: rest'

(* A drain mixes in a 0 after its thread: the value every persisted memo
   key was built with, so stored entries keep matching. *)
let tr_hash = function
  | Machine.Step t -> mix 0x57 t
  | Machine.Drain t -> mix (mix 0xD5 t) 0
  | Machine.Flush t -> mix 0xF1 t

(* Order-independent (xor-folded): a sleep set is a set. *)
let sleep_hash sleep =
  List.fold_left (fun h e -> h lxor tr_hash e.sl_tr) 0 sleep

(* {2 Source-DPOR}

   Dynamic partial-order reduction (Flanagan-Godefroid, with the source-set
   refinement): instead of enumerating every child of a branch node, start
   from ONE choice and let the execution itself demand the others. While an
   event executes, it is checked against the last accesses to the addresses
   it touches; each such earlier access by a different thread that is not
   already ordered before it by happens-before is a reversible race, and the
   reversal is requested by planting a backtrack point at the branch node
   where the earlier access was chosen. A node therefore only explores the
   choices some observed race demanded — on programs whose threads touch
   disjoint data this collapses the tree to a single interleaving.

   The happens-before relation is tracked with per-thread vector clocks over
   the footprint relation ({!Machine.footprint} / {!Machine.independent}).
   Footprints already encode the store-buffer split: a [Step] of a store
   touches no shared address (it only fills the private buffer) while the
   matching [Drain]/[Flush] carries the write — so a buffered store races
   with a concurrent load only when its drain does, exactly the TSO-aware
   independence the reduction needs. A thread and its buffer share one
   clock index: footprints of the same thread are always dependent
   (program order / FIFO order), matching [Machine.independent].

   Two sources of internal nondeterminism make this coarser than textbook
   DPOR over thread ids alone, and both are handled by treating "all
   choices of a unit at a node" as one schedulable entity: a thread may
   offer [Step]/[Drain]/[Flush] alternatives at the same node (which of
   them runs is not resolved by scheduling the thread), so the initial
   selection and every planted backtrack point take ALL of the unit's
   choice indices together.

   Composition (DESIGN.md §13):
   - a subtree cut by the CHESS bound or pruned by a memo hit may hide the
     race that would have demanded a sibling, so an unclean child degrades
     its node to full enumeration ([all]) — under a preemption bound or
     memoization the reduction is best-effort but the bounded verdict is
     preserved;
   - sleep sets compose: a demanded-but-sleeping choice is a commuted copy
     of an explored one and is skipped, and explored children enter the
     running sleep set under the clean-subtree rule above.

   The unreduced search keeps the branch nodes and nothing else: each one
   opens at full enumeration, and no footprint, clock or sleep set is
   computed. *)

(* The branch-node scratch of one spine depth, reused by every branch node
   that depth sees: its arrays only grow. Both searches keep it; only DPOR
   fills [units] and [backtrack]. *)
type dnode = {
  mutable n : int;
      (** choices of the branch node at this depth; 0 when the depth holds
          a forced step (its only choice already runs) *)
  mutable all : bool;
      (** degraded to full enumeration (bound prune / memo hit below, or no
          backtrack-set member was available for a demanded reversal) *)
  mutable units : int array;  (** footprint thread of each choice index *)
  mutable backtrack : bool array;
  mutable explored : bool array;
}

(* The happens-before state of the events along the DFS spine, in int
   arrays that only grow. The event at depth [d] owns row [d] of [clocks]
   ([nt] ints, its vector clock), and a thread's clock is the row of its
   last event. Each address keeps the depth of its last write and of its
   newest read since that write; older reads since the write hang off that
   one through [read_link], newest first. The per-depth fields double as
   the event's undo record, one int per field, so popping an event is a
   handful of stores and nothing on this path allocates once the arrays
   have grown. *)
type dpor = {
  nt : int;  (** clock width: one slot per footprint thread *)
  last : int array;  (** per thread: depth of its last event, or -1 *)
  mutable clocks : int array;
  mutable unit_at : int array;  (** per depth: the executing thread *)
  mutable last_before : int array;  (** per depth: its [last] before *)
  mutable read_at : int array;
      (** per depth: the address whose read chain the event joined, or -1 *)
  mutable read_link : int array;
      (** per depth: the next older read of [read_at]'s address *)
  mutable write_at : int array;  (** per depth: the address written, or -1 *)
  mutable write_before : int array;
      (** per depth: [a_write] of [write_at] before the event *)
  mutable reads_before : int array;
      (** per depth: [a_read] of [write_at] before the event *)
  mutable a_write : int array;  (** per address: depth of the last write *)
  mutable a_read : int array;
      (** per address: depth of the newest read since that write *)
  mutable nodes : dnode array;  (** per depth: branch-node scratch *)
}

let dnode_create () =
  { n = 0; all = false; units = [||]; backtrack = [||]; explored = [||] }

let dpor_create ~nthreads =
  let nt = max nthreads 1 in
  {
    nt;
    last = Array.make nt (-1);
    clocks = [||];
    unit_at = [||];
    last_before = [||];
    read_at = [||];
    read_link = [||];
    write_at = [||];
    write_before = [||];
    reads_before = [||];
    a_write = Array.make 64 (-1);
    a_read = Array.make 64 (-1);
    nodes = [||];
  }

(* [a] copied into a fresh array of [m] slots, the rest [-1]. *)
let extend_ints a m =
  let b = Array.make m (-1) in
  Array.blit a 0 b 0 (Array.length a);
  b

let dpor_depth_room ds depth =
  let n = Array.length ds.unit_at in
  if depth >= n then begin
    let m = max (depth + 1) (max 16 (2 * n)) in
    ds.clocks <- extend_ints ds.clocks (m * ds.nt);
    ds.unit_at <- extend_ints ds.unit_at m;
    ds.last_before <- extend_ints ds.last_before m;
    ds.read_at <- extend_ints ds.read_at m;
    ds.read_link <- extend_ints ds.read_link m;
    ds.write_at <- extend_ints ds.write_at m;
    ds.write_before <- extend_ints ds.write_before m;
    ds.reads_before <- extend_ints ds.reads_before m;
    let nodes = ds.nodes in
    ds.nodes <-
      Array.init m (fun d -> if d < n then nodes.(d) else dnode_create ())
  end

let dpor_addr_room ds a =
  let n = Array.length ds.a_write in
  if a >= n then begin
    let m = max (a + 1) (2 * n) in
    ds.a_write <- extend_ints ds.a_write m;
    ds.a_read <- extend_ints ds.a_read m
  end

(* Open the branch node at [depth] with [n] choices, all unexplored and
   none demanded; [n = 0] marks a forced step. The caller fills [units]. *)
let dpor_node ds depth n =
  dpor_depth_room ds depth;
  let nd = ds.nodes.(depth) in
  if Array.length nd.units < n then begin
    let m = max n (2 * Array.length nd.units) in
    nd.units <- Array.make m 0;
    nd.backtrack <- Array.make m false;
    nd.explored <- Array.make m false
  end;
  for j = 0 to n - 1 do
    nd.backtrack.(j) <- false;
    nd.explored.(j) <- false
  done;
  nd.n <- n;
  nd.all <- false;
  nd

(* Component [q] of the clock in row [row] ([-1] = the bottom clock). *)
let[@inline] clock ds row q = if row < 0 then -1 else ds.clocks.((row * ds.nt) + q)

(* Join the clock of row [src] (nothing when [src < 0]) into row [dst]. *)
let join_row ds dst src =
  if src >= 0 then begin
    let nt = ds.nt and c = ds.clocks in
    let d = dst * nt and s = src * nt in
    for q = 0 to nt - 1 do
      let v = c.(s + q) in
      if v > c.(d + q) then c.(d + q) <- v
    done
  end

(* Thread [q] is in E for a race reversed at node [i] against thread [p],
   whose clock before its event is row [pc]. *)
let[@inline] in_e ds pc p i q = q = p || clock ds pc q > i

(* Request the reversal of a race between the event at branch node [i] and
   the event thread [p] is about to execute ([pc] = the row of p's clock
   BEFORE it). E is the set of threads with a choice at [i] that either are
   [p] or ran an event after [i] that happens-before p's event (any of them
   reaches the race from node [i]); if a member of E is already scheduled
   there, nothing is needed; else one member's choices are planted (all of
   its indices — internal nondeterminism); else nothing in the node's
   choice universe can reach the race and the node degrades to full
   enumeration. *)
let dpor_plant ds i ~p ~pc =
  let nd = ds.nodes.(i) in
  (* [n = 0]: a forced step, whose only choice already runs *)
  if nd.n > 0 && not nd.all then begin
    let n = nd.n in
    let covered = ref false in
    for j = 0 to n - 1 do
      if
        (nd.backtrack.(j) || nd.explored.(j)) && in_e ds pc p i nd.units.(j)
      then covered := true
    done;
    if not !covered then begin
      let chosen = ref (-1) in
      for j = n - 1 downto 0 do
        let q = nd.units.(j) in
        if q = p || (!chosen < 0 && in_e ds pc p i q) then chosen := q
      done;
      if !chosen >= 0 then begin
        let c = !chosen in
        for j = 0 to n - 1 do
          if nd.units.(j) = c then nd.backtrack.(j) <- true
        done
      end
      else nd.all <- true
    end
  end

(* Plant the reversal of the race between [p]'s event and the event at
   depth [i], if [i] is an event of another thread that does not already
   happen-before [p]'s. *)
let[@inline] plant ds p pc i =
  if i >= 0 then begin
    let q = ds.unit_at.(i) in
    if q <> p && clock ds pc q < i then dpor_plant ds i ~p ~pc
  end

(* Record the event at [depth] of thread [p], reading address [r] and
   writing [w] (-1 = none): detect races against the per-address indices
   (planting reversals), give the event its clock, and update the address
   indices — the old values stay in the depth's undo fields. Each race
   plants at the node of a different event, so the order of the checks
   ([r]'s last write, [w]'s last write, [w]'s reads newest first) does not
   change what is planted. Must run on the pre-state footprint, before
   [Machine.apply]. *)
let dpor_event ds depth p r w =
  dpor_depth_room ds depth;
  dpor_addr_room ds (max r w);
  let pc = ds.last.(p) in
  if r >= 0 then plant ds p pc ds.a_write.(r);
  if w >= 0 then begin
    if w <> r then plant ds p pc ds.a_write.(w);
    let j = ref ds.a_read.(w) in
    while !j >= 0 do
      plant ds p pc !j;
      j := ds.read_link.(!j)
    done
  end;
  (* The event's clock: p's, ticked at [depth], joined with the last write
     of each address it touches and, for a write, with every read since. *)
  let nt = ds.nt and c = ds.clocks in
  let row = depth * nt in
  for q = 0 to nt - 1 do
    c.(row + q) <- (if pc < 0 then -1 else c.((pc * nt) + q))
  done;
  c.(row + p) <- depth;
  if r >= 0 then join_row ds depth ds.a_write.(r);
  if w >= 0 then begin
    join_row ds depth ds.a_write.(w);
    let j = ref ds.a_read.(w) in
    while !j >= 0 do
      join_row ds depth !j;
      j := ds.read_link.(!j)
    done
  end;
  ds.unit_at.(depth) <- p;
  ds.last_before.(depth) <- pc;
  if r >= 0 && r <> w then begin
    ds.read_at.(depth) <- r;
    ds.read_link.(depth) <- ds.a_read.(r);
    ds.a_read.(r) <- depth
  end
  else ds.read_at.(depth) <- -1;
  ds.write_at.(depth) <- w;
  if w >= 0 then begin
    ds.write_before.(depth) <- ds.a_write.(w);
    ds.reads_before.(depth) <- ds.a_read.(w);
    ds.a_write.(w) <- depth;
    ds.a_read.(w) <- -1
  end;
  ds.last.(p) <- depth

let dpor_push ds depth fp =
  dpor_event ds depth (Machine.footprint_tid fp) (Machine.footprint_read fp)
    (Machine.footprint_write fp)

(* Undo the event at [depth], which must be the newest one pushed. *)
let dpor_pop ds depth =
  let w = ds.write_at.(depth) in
  if w >= 0 then begin
    ds.a_write.(w) <- ds.write_before.(depth);
    ds.a_read.(w) <- ds.reads_before.(depth)
  end;
  let r = ds.read_at.(depth) in
  if r >= 0 then ds.a_read.(r) <- ds.read_link.(depth);
  ds.last.(ds.unit_at.(depth)) <- ds.last_before.(depth)

(* The scratch of one search depth, grown on demand: the DFS at depth [d]
   iterates its siblings from frame [d] while the recursion below uses
   deeper frames, so no frame is ever clobbered while live, and reusing the
   frames means steady-state visits allocate none of it. *)
type frame = {
  buf : Machine.tbuf;  (** the node's choices *)
  snap : Machine.snapshot;  (** its state, for restoring siblings *)
  mutable fps : Machine.footprint array;  (** each choice's footprint (DPOR) *)
}

type frames = { mutable frames : frame array }

let frames_create () = { frames = [||] }

let frame_create () =
  { buf = Machine.tbuf_create (); snap = Machine.snapshot_create (); fps = [||] }

let frame_get fs depth =
  let n = Array.length fs.frames in
  if depth >= n then begin
    let old = fs.frames in
    fs.frames <-
      Array.init
        (max (depth + 1) (max 16 (2 * n)))
        (fun d -> if d < n then old.(d) else frame_create ())
  end;
  fs.frames.(depth)

(* Growable array-backed choice prefix. Alongside each choice index we keep
   the chosen transition itself: transitions are plain values (thread
   ids), so a sibling replay can re-apply them directly instead
   of recomputing the choice universe at every step — replay is one
   [Machine.apply] per step, O(depth) total where the list-based
   representation cost O(depth^2). *)
module Prefix = struct
  type t = {
    mutable idx : int array;
    mutable trs : Machine.transition array;
    mutable len : int;
  }

  let dummy = Machine.Step (-1)
  let create () = { idx = Array.make 64 0; trs = Array.make 64 dummy; len = 0 }

  let push p i tr =
    let n = p.len in
    if n = Array.length p.idx then begin
      let idx = Array.make (2 * n) 0 in
      let trs = Array.make (2 * n) dummy in
      Array.blit p.idx 0 idx 0 n;
      Array.blit p.trs 0 trs 0 n;
      p.idx <- idx;
      p.trs <- trs
    end;
    p.idx.(n) <- i;
    p.trs.(n) <- tr;
    p.len <- n + 1

  let pop p =
    assert (p.len > 0);
    p.len <- p.len - 1

  let to_list p = Array.to_list (Array.sub p.idx 0 p.len)

  (* Incremental replay: re-apply the recorded transitions on a fresh
     instance. The path was valid when recorded and the machine is
     deterministic, so no enabledness recomputation is needed. The caller
     owns the returned instance and must release it; if the replay
     raises, the instance is released here. *)
  let replay ~mk p =
    let inst = mk () in
    match
      for k = 0 to p.len - 1 do
        Machine.apply inst.machine p.trs.(k)
      done
    with
    | () -> inst
    | exception e ->
        Machine.release inst.machine;
        raise e
end

(* Mutable per-search accumulators. Failures are prepended (newest first)
   and reversed once at the end, fixing the former O(n^2)
   [failures := !failures @ [...]] pattern. *)
type acc = {
  mutable runs : int;
  mutable truncated : int;
  mutable deadlocks : int;
  mutable pruned : int;
  mutable memo_hits : int;
  mutable sleep_skips : int;
  mutable peak_depth : int;
  mutable failures_rev : (int list * string) list;
  mutable failure_count : int;
}

let make_acc () =
  {
    runs = 0;
    truncated = 0;
    deadlocks = 0;
    pruned = 0;
    memo_hits = 0;
    sleep_skips = 0;
    peak_depth = 0;
    failures_rev = [];
    failure_count = 0;
  }

let stats_of_acc ~complete a =
  {
    runs = a.runs;
    truncated = a.truncated;
    deadlocks = a.deadlocks;
    pruned = a.pruned;
    memo_hits = a.memo_hits;
    sleep_skips = a.sleep_skips;
    peak_depth = a.peak_depth;
    complete;
    failures = List.rev a.failures_rev;
  }

type ctx = {
  mk : unit -> instance;
  max_depth : int;
  preemption_bound : int option;
  max_failures : int;
  memo : Memo_store.t option;  (** the visited-state cache, if any *)
  acc : acc;
  on_run : acc -> unit;  (** called once per completed run; may raise {!Stop} *)
  frames : frames;  (** per-depth scratch for the in-place DFS *)
  ds : dpor;
      (** the branch nodes along the spine and, under [dpor], the
          happens-before state *)
  dpor : bool;  (** source-DPOR with sleep sets; [false] enumerates *)
  use_snapshots : bool;
      (** sibling exploration by snapshot/restore; [false] falls back to
          prefix replay (the differential oracle) *)
  probe : Machine.t option;
      (** a memoised snapshot search's probe ({!Machine.restore_data}),
          which keys each fresh sibling before it is built *)
}

let sleep_skip ctx m =
  ctx.acc.sleep_skips <- ctx.acc.sleep_skips + 1;
  match Machine.sink m with
  | None -> ()
  | Some s ->
      s.Telemetry.Sink.por_sleep_skips <- s.Telemetry.Sink.por_sleep_skips + 1

let fail ctx prefix msg =
  if ctx.acc.failure_count < ctx.max_failures then begin
    ctx.acc.failures_rev <- (Prefix.to_list prefix, msg) :: ctx.acc.failures_rev;
    ctx.acc.failure_count <- ctx.acc.failure_count + 1
  end

(* Some choice [i..n) of [buf] is a [Step] of thread [a]. *)
let rec steps_thread buf n a i =
  i < n
  && ((match Machine.tbuf_get buf i with
      | Machine.Step t -> t = a
      | Machine.Drain _ | Machine.Flush _ -> false)
     || steps_thread buf n a (i + 1))

(* CHESS accounting over the buffer the choices live in: switching away
   from a thread that could still run costs one preemption. [last] is the
   thread that ran last (-1 before any). *)
let preemption_cost_buf ~last buf tr =
  let b = thread_of tr in
  if last >= 0 && b >= 0 && b <> last
     && steps_thread buf (Machine.tbuf_length buf) last 0
  then 1
  else 0


let within ctx preemptions cost =
  match ctx.preemption_bound with None -> true | Some b -> preemptions + cost <= b

(* Memo lookup-and-insert for the node at [depth] whose machine is [m].
   Under DPOR the sleep set is part of the key: a visit with a different
   sleep set explores a different reduced subtree. *)
let memo_seen ctx store m depth preemptions sleep =
  let preempt_rem =
    match ctx.preemption_bound with None -> max_int | Some b -> b - preemptions
  in
  let fp = Machine.fingerprint m in
  let key = if ctx.dpor then mix fp (sleep_hash sleep) else fp in
  Memo_store.seen store key ~depth_rem:(ctx.max_depth - depth) ~preempt_rem

(* The memo verdict on child [tr] of the node snapshotted in [fr], taken
   on the probe: its key is the fingerprint the child would have after
   [Machine.apply], so no instance is built, restored or released. *)
let probe_seen ctx fr tr depth preemptions sleep =
  match (ctx.probe, ctx.memo) with
  | Some p, Some store ->
      Machine.restore_data fr.snap p;
      Machine.apply_data p tr;
      memo_seen ctx store p depth preemptions sleep
  | _ -> false

(* The next choice of [nd] to explore: the first unexplored one that is
   demanded, or any once the node enumerates; -1 when none is left. *)
let rec next_child nd j =
  if j >= nd.n then -1
  else if (not nd.explored.(j)) && (nd.all || nd.backtrack.(j)) then j
  else next_child nd (j + 1)

(* Continue a run in-place from the current machine state. [prefix] holds
   the choices that reached this state; [last]/[preemptions] summarise the
   prefix for the CHESS bound; [sleep] is the sleep set this node
   inherited (always [[]] unless [ctx.dpor]); [keyed] says the probe has
   already looked this node up, and missed. Siblings of the choices made
   here are explored on a fresh instance — restored from a snapshot of this
   node when [ctx.use_snapshots], replayed from the root otherwise — which
   the node releases once the child's subtree is done, also when {!Stop}
   or another exception unwinds through it. On return the prefix is
   restored to its entry length. *)
let rec extend ctx inst prefix depth last preemptions sleep ~keyed =
  let m = inst.machine in
  if depth > ctx.acc.peak_depth then ctx.acc.peak_depth <- depth;
  let memo_hit =
    match ctx.memo with
    | Some store when not keyed -> memo_seen ctx store m depth preemptions sleep
    | _ -> false
  in
  if memo_hit then ctx.acc.memo_hits <- ctx.acc.memo_hits + 1
  else begin
    (* Depth [depth]'s frame stays live while this node iterates its
       children; the recursion below only touches deeper frames. *)
    let fr = frame_get ctx.frames depth in
    let buf = fr.buf in
    let n = choices_into m buf in
    if n = 0 then begin
      if Machine.quiescent m then begin
        (* A restored thread's host effects exist only once it has
           replayed, and the check reads them. *)
        Machine.catch_up m;
        (match inst.check () with
        | Ok () -> ()
        | Error msg -> fail ctx prefix msg);
        ctx.on_run ctx.acc
      end
      else begin
        ctx.acc.deadlocks <- ctx.acc.deadlocks + 1;
        fail ctx prefix "deadlock";
        ctx.on_run ctx.acc
      end
    end
    else if depth >= ctx.max_depth then begin
      ctx.acc.truncated <- ctx.acc.truncated + 1;
      ctx.on_run ctx.acc
    end
    else if n = 1 then begin
      let tr = Machine.tbuf_get buf 0 in
      if sleep_mem sleep tr then
        (* The whole continuation is a commuted copy of an explored one:
           backtrack without completing (or counting) a run — this silent
           cut is where the run reduction comes from. *)
        sleep_skip ctx m
      else begin
        (* Under DPOR a forced step still takes part in race detection and
           happens-before, and its footprint wakes sleepers; the node
           itself offers no reversal. *)
        let sleep' =
          if ctx.dpor then begin
            let fp = Machine.footprint m tr in
            ignore (dpor_node ctx.ds depth 0);
            dpor_push ctx.ds depth fp;
            sleep_filter sleep fp
          end
          else sleep
        in
        Machine.apply m tr;
        Prefix.push prefix 0 tr;
        extend ctx inst prefix (depth + 1) (next_last last tr) preemptions
          sleep' ~keyed:false;
        Prefix.pop prefix;
        if ctx.dpor then dpor_pop ctx.ds depth
      end
    end
    else branch ctx inst fr prefix depth last preemptions sleep n
  end

(* The branch node at [depth], whose [n > 1] choices are in [fr.buf]. A
   DPOR node explores one unit's choices, then whatever the races observed
   below demand; an unreduced node opens at full enumeration. The first
   child entered advances [inst] in place; later ones restore (or replay).
   Under DPOR each explored child enters the running sleep set of its
   later siblings. *)
and branch ctx inst fr prefix depth last preemptions sleep n =
  let m = inst.machine and buf = fr.buf and ds = ctx.ds in
  let nd = dpor_node ds depth n in
  if not ctx.dpor then nd.all <- true
  else begin
    (* Footprints are a function of the machine state at this node (a
       drain's target address is the current buffer head), so they are
       taken for every child before the first one advances the machine. *)
    if Array.length fr.fps < n then
      fr.fps <-
        Array.make
          (max n (2 * Array.length fr.fps))
          (Machine.footprint m (Machine.tbuf_get buf 0));
    for i = 0 to n - 1 do
      let fp = Machine.footprint m (Machine.tbuf_get buf i) in
      fr.fps.(i) <- fp;
      nd.units.(i) <- Machine.footprint_tid fp
    done;
    (* Start with the unit of the first awake choice. When every choice
       sleeps, each is a commuted copy of an explored execution: enumerate,
       so that each one is skipped. *)
    let init = ref (-1) in
    for i = n - 1 downto 0 do
      if not (sleep_mem sleep (Machine.tbuf_get buf i)) then init := i
    done;
    if !init < 0 then nd.all <- true
    else begin
      let u0 = nd.units.(!init) in
      for j = 0 to n - 1 do
        if nd.units.(j) = u0 then nd.backtrack.(j) <- true
      done
    end
  end;
  let fps = fr.fps in
  (* Capture this node's state once, before the first child mutates it, but
     only if a second child could be entered: only an awake child within
     the bound is, and the loop's additions to the sleep set only remove
     candidates. *)
  let snapped =
    ctx.use_snapshots
    && begin
         let enterable = ref 0 and i = ref 0 in
         while !enterable < 2 && !i < n do
           let tr = Machine.tbuf_get buf !i in
           if
             (not (sleep_mem sleep tr))
             && within ctx preemptions (preemption_cost_buf ~last buf tr)
           then incr enterable;
           incr i
         done;
         !enterable > 1
         && begin
              Machine.snapshot m fr.snap;
              true
            end
       end
  in
  let sleep_now = ref sleep in
  let first = ref true in
  let i = ref (next_child nd 0) in
  while !i >= 0 do
    let c = !i in
    nd.explored.(c) <- true;
    let tr = Machine.tbuf_get buf c in
    if sleep_mem !sleep_now tr then sleep_skip ctx m
    else begin
      let cost = preemption_cost_buf ~last buf tr in
      if not (within ctx preemptions cost) then begin
        ctx.acc.pruned <- ctx.acc.pruned + 1;
        (* the bound cut a demanded child; races below it are unknown, so
           enumerate as the bounded search does *)
        nd.all <- true
      end
      else begin
        let child_sleep =
          if ctx.dpor then sleep_filter !sleep_now fps.(c) else []
        in
        let pruned0 = ctx.acc.pruned and memo0 = ctx.acc.memo_hits in
        Prefix.push prefix c tr;
        if ctx.dpor then dpor_push ds depth fps.(c);
        let fresh = not !first in
        first := false;
        child ctx inst fr ~snapped prefix ~fresh tr (depth + 1) last
          (preemptions + cost) child_sleep;
        Prefix.pop prefix;
        if ctx.dpor then begin
          dpor_pop ds depth;
          let clean =
            ctx.acc.pruned = pruned0 && ctx.acc.memo_hits = memo0
          in
          (* The preemption count is not commutation-invariant, so under
             a CHESS bound only a clean child goes to sleep; and a memo
             hit below degrades the node, since the cached visit may have
             sighted races this path never replays. *)
          if match ctx.preemption_bound with None -> true | Some _ -> clean
          then sleep_now := { sl_tr = tr; sl_fp = fps.(c) } :: !sleep_now;
          if not clean then nd.all <- true
        end
      end
    end;
    i := next_child nd 0
  done;
  nd.n <- 0

(* Enter child [tr] of a branch node whose choice is already on [prefix]:
   in place on [inst] unless [fresh], else on a new instance — restored
   from the node's snapshot in frame [fr] when [snapped] and advanced by
   [tr], or replayed from the root — that is released on every exit from
   the child's subtree. A memoised search keys a snapped sibling on its
   probe first, and builds nothing for a memo hit. [last] is the node's;
   the child's follows from [tr]. *)
and child ctx inst fr ~snapped prefix ~fresh tr depth last preemptions sleep =
  let last = next_last last tr in
  let keyed = snapped && Option.is_some ctx.probe in
  if not fresh then begin
    Machine.apply inst.machine tr;
    extend ctx inst prefix depth last preemptions sleep ~keyed:false
  end
  else if keyed && probe_seen ctx fr tr depth preemptions sleep then begin
    (* counted as [extend] counts a hit *)
    if depth > ctx.acc.peak_depth then ctx.acc.peak_depth <- depth;
    ctx.acc.memo_hits <- ctx.acc.memo_hits + 1
  end
  else begin
    let sib =
      if snapped then begin
        let sib = ctx.mk () in
        match
          Machine.restore_into fr.snap sib.machine;
          Machine.apply sib.machine tr
        with
        | () -> sib
        | exception e ->
            Machine.release sib.machine;
            raise e
      end
      else Prefix.replay ~mk:ctx.mk prefix
    in
    match extend ctx sib prefix depth last preemptions sleep ~keyed with
    | () -> Machine.release sib.machine
    | exception e ->
        Machine.release sib.machine;
        raise e
  end

(* Every instance the snapshot-based search touches must record responses
   from birth (root, restore targets, and oracle replays alike), so the
   wrapper is applied to [mk] itself. *)
let recording_mk mk () =
  let inst = mk () in
  Machine.set_record_responses inst.machine true;
  inst

let default_max_depth = 400

let search ?(max_depth = default_max_depth) ?(max_runs = 200_000)
    ?(preemption_bound = None) ?(max_failures = 5) ?(memo = false)
    ?(dpor = false) ?memo_store ?(snapshots = true) ?on_progress
    ?(progress_every = 4096) ~mk () =
  let mk = if snapshots then recording_mk mk else mk in
  let acc = make_acc () in
  let progress_every = max 1 progress_every in
  let memo =
    match memo_store with
    | Some _ -> memo_store
    | None -> if memo then Some (Memo_store.in_memory ()) else None
  in
  let root = mk () in
  (* One probe keys the fresh siblings of a memoised snapshot search. *)
  let probe =
    match memo with
    | Some _ when snapshots -> (
        match mk () with
        | p -> Some p.machine
        | exception e ->
            Machine.release root.machine;
            raise e)
    | _ -> None
  in
  let ctx =
    {
      mk;
      max_depth;
      preemption_bound;
      max_failures;
      memo;
      acc;
      on_run =
        (fun a ->
          a.runs <- a.runs + 1;
          (match on_progress with
          | Some f when a.runs mod progress_every = 0 ->
              f (stats_of_acc ~complete:false a)
          | _ -> ());
          if a.runs >= max_runs then raise Stop);
      frames = frames_create ();
      ds = dpor_create ~nthreads:(Machine.thread_count root.machine);
      dpor;
      use_snapshots = snapshots;
      probe;
    }
  in
  (* The root and the probe are built here, so they are released here,
     also when [Stop] (or any other exception) unwinds the tree. *)
  let complete =
    Fun.protect
      ~finally:(fun () ->
        Machine.release root.machine;
        Option.iter Machine.release probe)
      (fun () ->
        match extend ctx root (Prefix.create ()) 0 (-1) 0 [] ~keyed:false with
        | () -> true
        | exception Stop -> false)
  in
  let st = stats_of_acc ~complete acc in
  match memo with
  | None -> st
  | Some store ->
      (* Warm runs may sight nothing live (everything memoized): the
         stored failure set keeps the verdict; only completed searches
         are merged back (a partial failure set is not the
         configuration's). In memory there is nothing stored to merge,
         and nothing to commit. *)
      let failures =
        Memo_store.merge_failures store ~max_failures st.failures
      in
      if complete then begin
        match Memo_store.commit store ~failures with
        | Ok () -> ()
        | Error e -> failwith ("memo store commit failed: " ^ e)
      end;
      { st with failures }

let next_choices = choices

let replay_choices ?(max_steps = max_int) ~mk steps =
  let inst = mk () in
  let m = inst.machine in
  (* One reusable buffer; [choices_into] yields exactly the sequence
     [choices] would, so recorded indices keep their meaning — but each
     step is O(enabled set) instead of the former List.nth/List.length
     O(n²)-over-the-run pattern. *)
  let buf = Machine.tbuf_create () in
  let run () =
    List.iter
      (fun i ->
        let n = choices_into m buf in
        if n = 0 then invalid_arg "Explore.replay_choices: run ended early";
        if i < 0 || i >= n then
          invalid_arg "Explore.replay_choices: bad choice index";
        Machine.apply m (Machine.tbuf_get buf i))
      steps;
    (* Drive any forced suffix to quiescence. The greedy
       always-transition-0 policy can livelock from states only a
       truncated candidate reaches (spin loop on a never-scheduled peer),
       hence the budget. *)
    let rec finish budget =
      if Machine.enabled_into m buf > 0 then begin
        if budget = 0 then
          invalid_arg "Explore.replay_choices: suffix exceeded max_steps";
        Machine.apply m (Machine.tbuf_get buf 0);
        finish (budget - 1)
      end
    in
    finish max_steps;
    inst.check ()
  in
  (* Released on every exit: the shrinker replays many truncated
     candidates, and most of them raise with threads still paused. *)
  Fun.protect ~finally:(fun () -> Machine.release m) run

module Internal = struct
  let recording_mk = recording_mk

  type nonrec dpor = dpor

  let dpor_create = dpor_create

  let dpor_open ds depth units =
    let nd = dpor_node ds depth (Array.length units) in
    for j = 0 to Array.length units - 1 do
      nd.units.(j) <- units.(j)
    done

  let dpor_explore ds depth j = ds.nodes.(depth).explored.(j) <- true
  let dpor_push ds depth ~tid ~read ~write = dpor_event ds depth tid read write
  let dpor_pop = dpor_pop
  let dpor_backtrack ds depth j = ds.nodes.(depth).backtrack.(j)
  let dpor_all ds depth = ds.nodes.(depth).all
end
