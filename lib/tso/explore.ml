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
  covered : float;
  failures : (int list * string) list;
}

(* [stats_of_acc] already reverses both the failure list (sighting order)
   and, via [Prefix.to_list], leaves each choice sequence root-first, so
   the replay orientation is the stored one. *)
let failures_in_replay_order s = s.failures

let memo_hit_rate s =
  let visits = s.runs + s.memo_hits in
  if visits = 0 then 0.0 else float_of_int s.memo_hits /. float_of_int visits

(* The unit performing a transition, for preemption accounting. Drains and
   flushes belong to the memory subsystem and never count as preemptions. *)
type unit_id = U_thread of int | U_memory

let unit_of = function
  | Machine.Step t -> U_thread t
  | Machine.Drain _ | Machine.Flush _ -> U_memory

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

   Sleep-set partial-order reduction (Godefroid). After a branch node's
   child [tr] has been fully explored, every execution from a later sibling
   that schedules only transitions independent of [tr] before eventually
   firing [tr] is a commuted copy of one already explored under [tr] — so
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

let sleep_mem sleep tr = List.exists (fun e -> e.sl_tr = tr) sleep
let sleep_filter sleep fp =
  List.filter (fun e -> Machine.independent e.sl_fp fp) sleep

let tr_hash = function
  | Machine.Step t -> mix 0x57 t
  | Machine.Drain (t, l) -> mix (mix 0xD5 t) l
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

   Composition (the same discipline as sleep sets, DESIGN.md §13):
   - a subtree cut by the CHESS bound or pruned by a memo hit may hide the
     race that would have demanded a sibling, so an unclean child degrades
     its node to full enumeration ([nd_all]) — under a preemption bound or
     memoization the reduction is best-effort but the bounded verdict is
     preserved;
   - sleep sets compose unchanged: a demanded-but-sleeping choice is a
     commuted copy of an explored one and is skipped with the usual
     accounting, and explored children enter the running sleep set under
     the usual clean-subtree rule. *)

type dpor_node = {
  nd_units : int array;  (** footprint thread of each choice index *)
  nd_backtrack : bool array;
  nd_done : bool array;
  mutable nd_all : bool;
      (** degraded to full enumeration (bound prune / memo hit below, or no
          backtrack-set member was available for a demanded reversal) *)
}

(* Per-address access summary: the last write (its event index and clock)
   and the reads since it (their indices and joined clock). Records are
   immutable so backtracking restores by keeping the old record. *)
type dpor_addr = {
  a_widx : int;
  a_wclock : int array;
  a_reads : int list;
  a_rclock : int array;
}

type dpor_undo = {
  u_proc : int;
  u_pclock : int array;
  u_read : (int * dpor_addr) option;
  u_write : (int * dpor_addr) option;
}

type dpor = {
  d_bottom : int array;  (** all -1; shared and never mutated *)
  d_pclock : int array array;  (** clock of each thread's last event *)
  d_addrs : (int, dpor_addr) Hashtbl.t;
  mutable d_units : int array;  (** executing thread of the event at depth *)
  mutable d_nodes : dpor_node option array;  (** branch node at depth *)
  mutable d_undo : dpor_undo option array;
}

let dpor_create ~nthreads =
  let n = max nthreads 1 in
  let bottom = Array.make n (-1) in
  {
    d_bottom = bottom;
    d_pclock = Array.make n bottom;
    d_addrs = Hashtbl.create 64;
    d_units = [||];
    d_nodes = [||];
    d_undo = [||];
  }

let dpor_depth_room ds depth =
  let n = Array.length ds.d_units in
  if depth >= n then begin
    let m = max (depth + 1) (max 16 (2 * n)) in
    let units = Array.make m (-1) in
    Array.blit ds.d_units 0 units 0 n;
    ds.d_units <- units;
    let nodes = Array.make m None in
    Array.blit ds.d_nodes 0 nodes 0 n;
    ds.d_nodes <- nodes;
    let undo = Array.make m None in
    Array.blit ds.d_undo 0 undo 0 n;
    ds.d_undo <- undo
  end

let dpor_addr ds a =
  match Hashtbl.find_opt ds.d_addrs a with
  | Some e -> e
  | None ->
      { a_widx = -1; a_wclock = ds.d_bottom; a_reads = []; a_rclock = ds.d_bottom }

let[@inline] dpor_join dst src =
  for i = 0 to Array.length dst - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

(* Request the reversal of a race between the event at branch node [i] and
   the event thread [p] is about to execute ([pc] = p's clock BEFORE it).
   E is the set of threads with a choice at [i] that either are [p] or ran
   an event after [i] that happens-before p's event (any of them reaches
   the race from node [i]); if a member of E is already scheduled there,
   nothing is needed; else one member's choices are planted (all of its
   indices — internal nondeterminism); else nothing in the node's choice
   universe can reach the race and the node degrades to full enumeration. *)
let dpor_plant ds i ~p ~pc =
  match ds.d_nodes.(i) with
  | None -> () (* singleton node: its only choice already runs *)
  | Some node ->
      if not node.nd_all then begin
        let n = Array.length node.nd_units in
        let in_e q = q = p || pc.(q) > i in
        let covered = ref false in
        for j = 0 to n - 1 do
          if
            (node.nd_backtrack.(j) || node.nd_done.(j))
            && in_e node.nd_units.(j)
          then covered := true
        done;
        if not !covered then begin
          let chosen = ref (-1) in
          for j = n - 1 downto 0 do
            let q = node.nd_units.(j) in
            if q = p || (!chosen < 0 && in_e q) then chosen := q
          done;
          if !chosen >= 0 then begin
            let c = !chosen in
            Array.iteri
              (fun j q -> if q = c then node.nd_backtrack.(j) <- true)
              node.nd_units
          end
          else node.nd_all <- true
        end
      end

(* Record the event at [depth] with footprint [fp]: detect races against
   the per-address indices (planting reversals), advance the executing
   thread's clock, and update the address records — remembering enough to
   undo on backtrack. Must run on the pre-state footprint, before
   [Machine.apply]. *)
let dpor_push ds depth fp =
  dpor_depth_room ds depth;
  let p = Machine.footprint_tid fp in
  let r = Machine.footprint_read fp and w = Machine.footprint_write fp in
  let pc = ds.d_pclock.(p) in
  let plant i =
    if i >= 0 && ds.d_units.(i) <> p && pc.(ds.d_units.(i)) < i then
      dpor_plant ds i ~p ~pc
  in
  let er = if r >= 0 then Some (dpor_addr ds r) else None in
  let ew = if w >= 0 then Some (dpor_addr ds w) else None in
  (match er with Some e -> plant e.a_widx | None -> ());
  (match ew with
  | Some e ->
      if w <> r then plant e.a_widx;
      List.iter plant e.a_reads
  | None -> ());
  let c = Array.copy pc in
  c.(p) <- depth;
  (match er with Some e -> dpor_join c e.a_wclock | None -> ());
  (match ew with
  | Some e ->
      dpor_join c e.a_wclock;
      dpor_join c e.a_rclock
  | None -> ());
  let u_read =
    match er with
    | Some e when r <> w ->
        let rc = Array.copy e.a_rclock in
        dpor_join rc c;
        Hashtbl.replace ds.d_addrs r
          { e with a_reads = depth :: e.a_reads; a_rclock = rc };
        Some (r, e)
    | _ -> None
  in
  let u_write =
    match ew with
    | Some e ->
        Hashtbl.replace ds.d_addrs w
          { a_widx = depth; a_wclock = c; a_reads = []; a_rclock = ds.d_bottom };
        Some (w, e)
    | None -> None
  in
  ds.d_undo.(depth) <- Some { u_proc = p; u_pclock = pc; u_read; u_write };
  ds.d_units.(depth) <- p;
  ds.d_pclock.(p) <- c

let dpor_pop ds depth =
  match ds.d_undo.(depth) with
  | None -> ()
  | Some u ->
      ds.d_undo.(depth) <- None;
      ds.d_pclock.(u.u_proc) <- u.u_pclock;
      (match u.u_read with
      | Some (a, e) -> Hashtbl.replace ds.d_addrs a e
      | None -> ());
      (match u.u_write with
      | Some (a, e) -> Hashtbl.replace ds.d_addrs a e
      | None -> ())

(* One enabled-set buffer per search depth, grown on demand: the DFS at
   depth [d] iterates its siblings from buffer [d] while the recursion
   below uses deeper buffers, so no buffer is ever clobbered while live. *)
type pool = { mutable bufs : Machine.tbuf array }

let pool_create () = { bufs = [||] }

let pool_get pool depth =
  let n = Array.length pool.bufs in
  if depth >= n then begin
    let grown = Array.make (max (depth + 1) (max 16 (2 * n))) (Machine.tbuf_create ()) in
    Array.blit pool.bufs 0 grown 0 n;
    for i = n to Array.length grown - 1 do
      grown.(i) <- Machine.tbuf_create ()
    done;
    pool.bufs <- grown
  end;
  pool.bufs.(depth)

(* Likewise one machine snapshot per branch depth: the scratch stays live
   while the node iterates its siblings, and deeper branch nodes use deeper
   slots. Reusing the slots means steady-state capture allocates nothing. *)
type spool = { mutable snaps : Machine.snapshot array }

let spool_create () = { snaps = [||] }

let spool_get spool depth =
  let n = Array.length spool.snaps in
  if depth >= n then begin
    let grown =
      Array.make (max (depth + 1) (max 16 (2 * n))) (Machine.snapshot_create ())
    in
    Array.blit spool.snaps 0 grown 0 n;
    for i = n to Array.length grown - 1 do
      grown.(i) <- Machine.snapshot_create ()
    done;
    spool.snaps <- grown
  end;
  spool.snaps.(depth)

(* Growable array-backed choice prefix. Alongside each choice index we keep
   the chosen transition itself: transitions are plain values (thread ids
   and lane numbers), so a sibling replay can re-apply them directly instead
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

  let copy p =
    { idx = Array.copy p.idx; trs = Array.copy p.trs; len = p.len }

  let length p = p.len

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
  mutable covered : float;
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
    covered = 0.0;
    failures_rev = [];
    failure_count = 0;
  }

let stats_of_acc a =
  {
    runs = a.runs;
    truncated = a.truncated;
    deadlocks = a.deadlocks;
    pruned = a.pruned;
    memo_hits = a.memo_hits;
    sleep_skips = a.sleep_skips;
    peak_depth = a.peak_depth;
    covered = min 1.0 a.covered;
    failures = List.rev a.failures_rev;
  }

(* Visited-state cache. Pruning a revisit is only sound if the earlier
   exploration of the state had at least as much remaining budget (depth and
   preemptions), so each fingerprint maps to the Pareto frontier of
   (depth remaining, preemptions remaining) pairs already explored. With the
   default unbounded settings the frontier is a single entry and this
   degenerates to a plain visited set. The cache is abstracted as a closure
   so {!Explore_par} can substitute a sharded, lock-protected table shared
   across domains. *)
type memo = { seen : int -> depth_rem:int -> preempt_rem:int -> bool }

(* The frontier rule itself lives in {!Memo_store} so the persistent store
   and the in-memory table cannot drift. *)
let memo_tbl_check = Memo_store.tbl_check

let memo_create () =
  let tbl : (int, (int * int) list) Hashtbl.t = Hashtbl.create 4096 in
  { seen = (fun fp ~depth_rem ~preempt_rem -> memo_tbl_check tbl fp ~depth_rem ~preempt_rem) }

type ctx = {
  mk : unit -> instance;
  max_depth : int;
  preemption_bound : int option;
  max_failures : int;
  memo : memo option;
  acc : acc;
  on_run : acc -> unit;  (** called once per completed run; may raise {!Stop} *)
  pool : pool;  (** per-depth enabled-set buffers for the in-place DFS *)
  por : bool;  (** sleep-set partial-order reduction *)
  dpor : dpor option;
      (** source-DPOR state; implies [por] (sleep sets stay composed) *)
  use_snapshots : bool;
      (** sibling exploration by snapshot/restore; [false] falls back to
          prefix replay (the differential oracle) *)
  spool : spool;  (** per-depth snapshot scratch *)
  mutable mass : float;
      (** Knuth-style tree-mass register: the probability mass of the
          subtree [extend] is about to enter. The root carries 1.0; an
          n-ary branch splits its mass evenly among its children. Every
          way a subtree is disposed of without recursing — leaf, deadlock,
          depth truncation, memo hit, sleep skip, bound prune, DPOR
          never-demanded sibling — credits its mass to [acc.covered], so
          covered sums to exactly 1.0 over a completed search and the
          covered fraction of an interrupted one estimates the fraction of
          the tree explored (and [runs /. covered] its total size). The
          caller sets this field immediately before each [extend] call;
          [extend] reads it once on entry. *)
}

(* Account a disposed-of subtree's mass as covered. *)
let credit ctx mass = ctx.acc.covered <- ctx.acc.covered +. mass

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

let preemption_cost ~last_unit ~choices:ts tr =
  match (last_unit, unit_of tr) with
  | Some (U_thread a), U_thread b when a <> b ->
      if List.exists (fun t -> unit_of t = U_thread a) ts then 1 else 0
  | _ -> 0

(* The same CHESS accounting over the buffer the choices live in. *)
let preemption_cost_buf ~last_unit buf tr =
  match (last_unit, unit_of tr) with
  | Some (U_thread a), U_thread b when a <> b ->
      let n = Machine.tbuf_length buf in
      let rec still_enabled i =
        i < n
        && ((match Machine.tbuf_get buf i with
            | Machine.Step t -> t = a
            | Machine.Drain _ | Machine.Flush _ -> false)
           || still_enabled (i + 1))
      in
      if still_enabled 0 then 1 else 0
  | _ -> 0

(* Continue a run in-place from the current machine state. [prefix] holds
   the choices that reached this state; [last_unit]/[preemptions] summarise
   the prefix for the CHESS bound; [sleep] is the sleep set this node
   inherited (always [[]] unless [ctx.por]). Siblings of the choices made
   here are explored on a fresh instance — restored from a snapshot of this
   node when [ctx.use_snapshots], replayed from the root otherwise — which
   the node releases once the child's subtree is done, also when {!Stop}
   or another exception unwinds through it. On return the prefix is
   restored to its entry length. *)
let rec extend ctx inst prefix depth last_unit preemptions sleep =
  let m = inst.machine in
  (* This node's subtree mass, staged by the caller (1.0 at the root). The
     register is clobbered by deeper recursion, so it is read exactly once,
     here. *)
  let mass = ctx.mass in
  if depth > ctx.acc.peak_depth then ctx.acc.peak_depth <- depth;
  let memo_hit =
    match ctx.memo with
    | None -> false
    | Some memo ->
        let preempt_rem =
          match ctx.preemption_bound with
          | None -> max_int
          | Some b -> b - preemptions
        in
        let key =
          let fp = Machine.fingerprint m in
          (* The sleep set is part of the key: a visit with a different
             sleep set explores a different reduced subtree. *)
          if ctx.por then mix fp (sleep_hash sleep) else fp
        in
        memo.seen key ~depth_rem:(ctx.max_depth - depth) ~preempt_rem
  in
  if memo_hit then begin
    ctx.acc.memo_hits <- ctx.acc.memo_hits + 1;
    credit ctx mass
  end
  else begin
    (* Depth [depth]'s buffer stays live while this node iterates its
       children; the recursion below only touches deeper buffers. *)
    let buf = pool_get ctx.pool depth in
    let n = choices_into m buf in
    if n = 0 then begin
      credit ctx mass;
      if Machine.quiescent m then begin
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
      credit ctx mass;
      ctx.acc.truncated <- ctx.acc.truncated + 1;
      ctx.on_run ctx.acc
    end
    else if n = 1 then begin
      let tr = Machine.tbuf_get buf 0 in
      if ctx.por && sleep_mem sleep tr then begin
        (* The whole continuation is a commuted copy of an explored one:
           backtrack without completing (or counting) a run — this silent
           cut is where the run reduction comes from. *)
        credit ctx mass;
        sleep_skip ctx m
      end
      else begin
        let fp_opt =
          if ctx.dpor <> None || (ctx.por && sleep <> []) then
            Some (Machine.footprint m tr)
          else None
        in
        let sleep' =
          match fp_opt with
          | Some fp when sleep <> [] -> sleep_filter sleep fp
          | _ -> sleep
        in
        (match (ctx.dpor, fp_opt) with
        | Some ds, Some fp ->
            (* A forced step still participates in race detection and
               happens-before; the node itself offers no reversal. *)
            dpor_depth_room ds depth;
            ds.d_nodes.(depth) <- None;
            dpor_push ds depth fp
        | _ -> ());
        Machine.apply m tr;
        let last_unit =
          (* memory-subsystem transitions do not change whose turn it is *)
          match unit_of tr with U_memory -> last_unit | u -> Some u
        in
        Prefix.push prefix 0 tr;
        ctx.mass <- mass;
        extend ctx inst prefix (depth + 1) last_unit preemptions sleep';
        Prefix.pop prefix;
        match ctx.dpor with Some ds -> dpor_pop ds depth | None -> ()
      end
    end
    else begin
      let within cost =
        match ctx.preemption_bound with
        | None -> true
        | Some b -> preemptions + cost <= b
      in
      (* Knuth split: each of the n children carries an equal share of this
         node's mass, however it is disposed of (explored, slept, pruned,
         or never demanded). *)
      let cmass = mass /. float_of_int n in
      (* Footprints are a function of the machine state at this node (a
         drain's target address is the current buffer head), so they are
         taken for every child before child 0 advances the machine. *)
      let fps =
        if ctx.por then
          Array.init n (fun i -> Machine.footprint m (Machine.tbuf_get buf i))
        else [||]
      in
      (* Capture this node's state once, before child 0 mutates it — but
         only if some sibling (i > 0) will actually be explored. Additions
         to the sleep set during the loop only remove that need. *)
      let snap =
        if not ctx.use_snapshots then None
        else begin
          let need = ref false in
          (if ctx.dpor <> None then begin
             (* Which siblings will be demanded is only known as races are
                sighted; capture whenever more than one child could run. *)
             let awake = ref 0 in
             for i = 0 to n - 1 do
               if not (sleep_mem sleep (Machine.tbuf_get buf i)) then
                 incr awake
             done;
             need := !awake > 1
           end
           else begin
             let i = ref 1 in
             while (not !need) && !i < n do
               let tr = Machine.tbuf_get buf !i in
               if
                 (not (ctx.por && sleep_mem sleep tr))
                 && within (preemption_cost_buf ~last_unit buf tr)
               then need := true;
               incr i
             done
           end);
          if !need then begin
            let s = spool_get ctx.spool depth in
            Machine.snapshot m s;
            Some s
          end
          else None
        end
      in
      match ctx.dpor with
      | Some ds ->
          (* Source-DPOR node: explore one unit's choices, then whatever
             the races observed below demand. The first explored child
             advances [m] in place; later demanded children restore. *)
          dpor_depth_room ds depth;
          let node =
            {
              nd_units = Array.map Machine.footprint_tid fps;
              nd_backtrack = Array.make n false;
              nd_done = Array.make n false;
              nd_all = false;
            }
          in
          ds.d_nodes.(depth) <- Some node;
          let init = ref (-1) in
          for i = n - 1 downto 0 do
            if not (sleep_mem sleep (Machine.tbuf_get buf i)) then init := i
          done;
          (if !init < 0 then
             (* every choice is a commuted copy of an explored execution *)
             for _ = 1 to n do
               credit ctx cmass;
               sleep_skip ctx m
             done
           else begin
             let u0 = node.nd_units.(!init) in
             Array.iteri
               (fun j q -> if q = u0 then node.nd_backtrack.(j) <- true)
               node.nd_units;
             let sleep_now = ref sleep in
             let in_place = ref false in
             let running = ref true in
             while !running do
               let next = ref (-1) in
               let j = ref 0 in
               while !next < 0 && !j < n do
                 if
                   (not node.nd_done.(!j))
                   && (node.nd_all || node.nd_backtrack.(!j))
                 then next := !j;
                 incr j
               done;
               if !next < 0 then running := false
               else begin
                 let i = !next in
                 node.nd_done.(i) <- true;
                 let tr = Machine.tbuf_get buf i in
                 if sleep_mem !sleep_now tr then begin
                   credit ctx cmass;
                   sleep_skip ctx m
                 end
                 else begin
                   let cost = preemption_cost_buf ~last_unit buf tr in
                   if not (within cost) then begin
                     credit ctx cmass;
                     ctx.acc.pruned <- ctx.acc.pruned + 1;
                     (* the bound cut a demanded child; races below it are
                        unknown, so enumerate as the bounded search does *)
                     node.nd_all <- true
                   end
                   else begin
                     let child_sleep = sleep_filter !sleep_now fps.(i) in
                     let pruned0 = ctx.acc.pruned
                     and memo0 = ctx.acc.memo_hits in
                     Prefix.push prefix i tr;
                     dpor_push ds depth fps.(i);
                     let fresh = !in_place in
                     in_place := true;
                     child ctx inst snap prefix ~fresh ~mass:cmass tr
                       (depth + 1) last_unit (preemptions + cost) child_sleep;
                     Prefix.pop prefix;
                     dpor_pop ds depth;
                     let clean =
                       ctx.acc.pruned = pruned0 && ctx.acc.memo_hits = memo0
                     in
                     (* sleep insertion follows the usual clean-subtree
                        rule; unlike sleep sets alone, a memoized subtree
                        also degrades the node — the cached visit may have
                        sighted races this path never replays. *)
                     if
                       match ctx.preemption_bound with
                       | None -> true
                       | Some _ -> clean
                     then
                       sleep_now :=
                         { sl_tr = tr; sl_fp = fps.(i) } :: !sleep_now;
                     if not clean then node.nd_all <- true
                   end
                 end
               end
             done;
             (* Siblings no race ever demanded are covered by the source-set
                reduction — their subtrees are commuted copies of explored
                ones. Credit their share so [covered] still sums to 1. *)
             for j = 0 to n - 1 do
               if not node.nd_done.(j) then credit ctx cmass
             done
           end);
          ds.d_nodes.(depth) <- None
      | None ->
          (* Child 0 is explored in-place; siblings restore (or replay).
             As children complete, they enter the running sleep set for
             their later siblings (subject to the CHESS-bound rule
             above). *)
          let sleep_now = ref sleep in
          for i = 0 to n - 1 do
            let tr = Machine.tbuf_get buf i in
            if ctx.por && sleep_mem !sleep_now tr then begin
              credit ctx cmass;
              sleep_skip ctx m
            end
            else begin
              let cost = preemption_cost_buf ~last_unit buf tr in
              if not (within cost) then begin
                credit ctx cmass;
                ctx.acc.pruned <- ctx.acc.pruned + 1
              end
              else begin
                let child_sleep =
                  if ctx.por then sleep_filter !sleep_now fps.(i) else []
                in
                let pruned0 = ctx.acc.pruned and memo0 = ctx.acc.memo_hits in
                Prefix.push prefix i tr;
                child ctx inst snap prefix ~fresh:(i > 0) ~mass:cmass tr
                  (depth + 1) last_unit (preemptions + cost) child_sleep;
                Prefix.pop prefix;
                if ctx.por then begin
                  let clean =
                    match ctx.preemption_bound with
                    | None -> true
                    | Some _ ->
                        ctx.acc.pruned = pruned0 && ctx.acc.memo_hits = memo0
                  in
                  if clean then
                    sleep_now := { sl_tr = tr; sl_fp = fps.(i) } :: !sleep_now
                end
              end
            end
          done
    end
  end

(* Enter child [tr] of a branch node whose choice is already on [prefix]:
   in place on [inst] unless [fresh], else on a new instance — restored
   from the node's snapshot [snap] and advanced by [tr], or replayed from
   the root — that is released on every exit from the child's subtree.
   [last_unit] is the node's; the child's follows from [tr]. *)
and child ctx inst snap prefix ~fresh ~mass tr depth last_unit preemptions
    sleep =
  let last_unit =
    match unit_of tr with U_memory -> last_unit | u -> Some u
  in
  if not fresh then begin
    Machine.apply inst.machine tr;
    ctx.mass <- mass;
    extend ctx inst prefix depth last_unit preemptions sleep
  end
  else begin
    let sib =
      match snap with
      | Some s -> (
          let sib = ctx.mk () in
          match
            Machine.restore_into s sib.machine;
            Machine.apply sib.machine tr
          with
          | () -> sib
          | exception e ->
              Machine.release sib.machine;
              raise e)
      | None -> Prefix.replay ~mk:ctx.mk prefix
    in
    ctx.mass <- mass;
    match extend ctx sib prefix depth last_unit preemptions sleep with
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
    ?(por = false) ?(dpor = false) ?memo_store ?(snapshots = true) ?on_progress
    ?(progress_every = 4096) ~mk () =
  let por = por || dpor in
  let mk = if snapshots then recording_mk mk else mk in
  let acc = make_acc () in
  let progress_every = max 1 progress_every in
  let memo_impl =
    match memo_store with
    | Some store ->
        Some
          {
            seen =
              (fun fp ~depth_rem ~preempt_rem ->
                Memo_store.seen store fp ~depth_rem ~preempt_rem);
          }
    | None -> if memo then Some (memo_create ()) else None
  in
  let root = mk () in
  let ctx =
    {
      mk;
      max_depth;
      preemption_bound;
      max_failures;
      memo = memo_impl;
      acc;
      on_run =
        (fun a ->
          a.runs <- a.runs + 1;
          (match on_progress with
          | Some f when a.runs mod progress_every = 0 -> f (stats_of_acc a)
          | _ -> ());
          if a.runs >= max_runs then raise Stop);
      pool = pool_create ();
      por;
      dpor =
        (if dpor then
           Some (dpor_create ~nthreads:(Machine.thread_count root.machine))
         else None);
      use_snapshots = snapshots;
      spool = spool_create ();
      mass = 1.0;
    }
  in
  (* The root is built here, so it is released here, also when [Stop] (or
     any other exception) unwinds the tree. *)
  let completed =
    Fun.protect
      ~finally:(fun () -> Machine.release root.machine)
      (fun () ->
        match extend ctx root (Prefix.create ()) 0 None 0 [] with
        | () -> true
        | exception Stop -> false)
  in
  (* A completed search covered the whole tree by construction; snap the
     float accumulation to the exact answer. *)
  if completed then acc.covered <- 1.0;
  let st = stats_of_acc acc in
  match memo_store with
  | None -> st
  | Some store ->
      (* Warm runs may sight nothing live (everything memoized): the
         stored failure set keeps the verdict; only completed searches
         are merged back (a partial failure set is not the
         configuration's). *)
      let failures =
        Memo_store.merge_failures store ~max_failures st.failures
      in
      if completed then begin
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
  type nonrec acc = acc = {
    mutable runs : int;
    mutable truncated : int;
    mutable deadlocks : int;
    mutable pruned : int;
    mutable memo_hits : int;
    mutable sleep_skips : int;
    mutable peak_depth : int;
    mutable covered : float;
    mutable failures_rev : (int list * string) list;
    mutable failure_count : int;
  }

  let make_acc = make_acc
  let stats_of_acc = stats_of_acc

  module Prefix = Prefix

  type nonrec memo = memo = {
    seen : int -> depth_rem:int -> preempt_rem:int -> bool;
  }

  let memo_create = memo_create
  let memo_tbl_check = memo_tbl_check

  type nonrec pool = pool

  let pool_create = pool_create

  type nonrec spool = spool

  let spool_create = spool_create

  type nonrec sleep_entry = sleep_entry = {
    sl_tr : Machine.transition;
    sl_fp : Machine.footprint;
  }

  let sleep_mem = sleep_mem
  let sleep_filter = sleep_filter
  let sleep_hash = sleep_hash

  type nonrec dpor = dpor

  let dpor_create = dpor_create

  type nonrec ctx = ctx = {
    mk : unit -> instance;
    max_depth : int;
    preemption_bound : int option;
    max_failures : int;
    memo : memo option;
    acc : acc;
    on_run : acc -> unit;
    pool : pool;
    por : bool;
    dpor : dpor option;
    use_snapshots : bool;
    spool : spool;
    mutable mass : float;
  }

  let recording_mk = recording_mk
  let extend = extend
  let fail = fail
  let preemption_cost = preemption_cost
  let sleep_skip = sleep_skip
end
