type config = {
  sb_capacity : int;
  buffer_model : Store_buffer.model;
}

let abstract_config ~sb_capacity =
  { sb_capacity; buffer_model = Store_buffer.Abstract }

let realistic_config ~sb_capacity ~coalesce =
  { sb_capacity; buffer_model = Store_buffer.Realistic { coalesce } }

let pso_config ~sb_capacity = { sb_capacity; buffer_model = Store_buffer.Pso }

type tid = int

type transition =
  | Step of tid
  | Drain of tid * int
  | Flush of tid

type thread = {
  tid : tid;
  name : string;
  buf : Store_buffer.t;
  mutable status : Program.status;
  (* Rolling hash of the responses this thread has received (one update per
     executed instruction). A thread program is a deterministic function of
     its response history, so equal [hist] means equal control state — the
     "program position" component of {!fingerprint}, which effect-based
     continuations cannot expose directly. *)
  mutable hist : int;
  (* Preallocated transition values, so computing the enabled set allocates
     nothing in steady state. [drain_trs.(l)] is [Drain (tid, l)]; lanes
     beyond 0 only exist under PSO and are grown on demand. *)
  step_tr : transition;
  flush_tr : transition;
  mutable drain_trs : transition array;
  (* Decoded response log: one [encode_response] int per executed
     instruction, appended only while the machine is recording. A
     deterministic thread program is a function of its response history, so
     replaying this log through a fresh continuation reconstructs the
     thread's control state — the basis of {!snapshot}/{!restore_into},
     which effect-based one-shot continuations cannot support by copying. *)
  mutable resp_log : int array;
  mutable resp_len : int;
}

type event =
  | Ev_exec of { tid : tid; instr : string }
  | Ev_drain of { tid : tid; result : Store_buffer.drain_result }
  | Ev_flush of { tid : tid; addr : Addr.t; value : int }
  | Ev_done of tid

type t = {
  mem : Memory.t;
  cfg : config;
  (* Growable arrays (spare slots are filler): amortised O(1) registration
     for threads and listeners alike. *)
  mutable threads : thread array;
  mutable n_threads : int;
  mutable listeners : (event -> unit) array;
  mutable n_listeners : int;
  mutable steps : int;
  (* Telemetry counter sink. [None] (the default) keeps the hot path to a
     single physical-equality check per transition, mirroring the
     [n_listeners > 0] guard on event strings. *)
  mutable sink : Telemetry.Sink.t option;
  (* Counter routing table, always consistent with [sink]: empty when
     detached, [|root|] for a plain sink, one entry per shard when a
     sharded plane is attached (events on thread [tid] are charged to
     [counters.(tid mod length)]). Counting sites test only this array's
     length, so the detached cost stays a single check. *)
  mutable counters : Telemetry.Sink.t array;
  (* Response recording for {!snapshot}/{!restore_into}. Off by default so
     the simulator hot path pays one boolean test per executed
     instruction. *)
  mutable record : bool;
}

let create ?mem cfg =
  let mem = match mem with Some m -> m | None -> Memory.create () in
  {
    mem;
    cfg;
    threads = [||];
    n_threads = 0;
    listeners = [||];
    n_listeners = 0;
    steps = 0;
    sink = None;
    counters = [||];
    record = false;
  }

let memory t = t.mem
let config t = t.cfg

let set_sink t s =
  t.sink <- Some s;
  t.counters <- [| s |]

let set_sharded_sink t s shards =
  t.sink <- Some s;
  t.counters <- Telemetry.Shards.sinks shards

let clear_sink t =
  t.sink <- None;
  t.counters <- [||]

let sink t = t.sink
let counters t = t.counters

(* Queue-layer hook: the fence-free thieves count each delta certification
   they attempt ([t - delta > h]) against the machine's sink. Host-side and
   deterministic — it fires exactly when the simulated steal path executes
   the comparison. The caller does not know which simulated thread is
   stealing, so the check is charged to shard 0; merged totals are
   unaffected (shard merging is pure addition). *)
let count_delta_check t =
  let r = t.counters in
  if Array.length r > 0 then begin
    let s = Array.unsafe_get r 0 in
    s.Telemetry.Sink.delta_checks <- s.Telemetry.Sink.delta_checks + 1
  end

let spawn t ~name body =
  let tid = t.n_threads in
  let buf =
    Store_buffer.create ~capacity:t.cfg.sb_capacity ~model:t.cfg.buffer_model
  in
  let th =
    {
      tid;
      name;
      buf;
      status = Program.start body;
      hist = 0;
      step_tr = Step tid;
      flush_tr = Flush tid;
      drain_trs = [| Drain (tid, 0) |];
      resp_log = [||];
      resp_len = 0;
    }
  in
  if tid = Array.length t.threads then begin
    let grown = Array.make (max 4 (2 * tid)) th in
    Array.blit t.threads 0 grown 0 tid;
    t.threads <- grown
  end;
  t.threads.(tid) <- th;
  t.n_threads <- tid + 1;
  tid

let thread t tid =
  if tid < 0 || tid >= t.n_threads then invalid_arg "Machine: no such thread";
  t.threads.(tid)

let thread_count t = t.n_threads
let thread_name t tid = (thread t tid).name

let thread_done t tid =
  match (thread t tid).status with Program.Done -> true | Program.Paused_at _ -> false

let status_done = function Program.Done -> true | Program.Paused_at _ -> false

let all_done t =
  let rec go i =
    i >= t.n_threads || (status_done t.threads.(i).status && go (i + 1))
  in
  go 0

let buffered_stores t tid = Store_buffer.pending (thread t tid).buf
let buffered_entries t tid = Store_buffer.to_list (thread t tid).buf

let quiescent t =
  let rec go i =
    i >= t.n_threads
    || (status_done t.threads.(i).status
        && Store_buffer.is_empty t.threads.(i).buf
        && go (i + 1))
  in
  go 0

let steps t = t.steps

let request_enabled th (type a) (req : a Program.request) =
  match req with
  | Program.Req_load _ | Program.Req_work _ | Program.Req_label _
  | Program.Req_pause ->
      true
  | Program.Req_store _ -> not (Store_buffer.is_full th.buf)
  | Program.Req_cas _ | Program.Req_fetch_add _ | Program.Req_fence ->
      (* Atomic RMWs and fences require the issuing thread's buffer to have
         fully drained (x86 semantics); the drain itself happens through
         ordinary Drain/Flush transitions, preserving the intermediate
         memory states other threads can observe. *)
      Store_buffer.is_empty th.buf

let drain_tr th lane =
  let n = Array.length th.drain_trs in
  if lane >= n then begin
    let grown = Array.make (max (lane + 1) (2 * n)) th.step_tr in
    Array.blit th.drain_trs 0 grown 0 n;
    for l = n to Array.length grown - 1 do
      grown.(l) <- Drain (th.tid, l)
    done;
    th.drain_trs <- grown
  end;
  th.drain_trs.(lane)

(* The enabled set, in the deterministic order every driver depends on:
   threads by tid; per thread [Flush], then [Drain] lanes ascending, then
   [Step]. The FIFO models (the hot path) go through the preallocated
   per-thread transitions; only PSO's per-address lane enumeration
   allocates. *)
let enabled_iter t f =
  for i = 0 to t.n_threads - 1 do
    let th = t.threads.(i) in
    if Store_buffer.can_flush_egress th.buf then f th.flush_tr;
    (match t.cfg.buffer_model with
    | Store_buffer.Abstract | Store_buffer.Realistic _ ->
        if Store_buffer.can_drain th.buf then f th.drain_trs.(0)
    | Store_buffer.Pso ->
        List.iter
          (fun lane -> f (drain_tr th lane))
          (Store_buffer.drain_lanes th.buf));
    match th.status with
    | Program.Done -> ()
    | Program.Paused_at (req, _) ->
        if request_enabled th req then f th.step_tr
  done

type tbuf = {
  mutable trs : transition array;
  mutable len : int;
}

let tbuf_create () = { trs = Array.make 16 (Step (-1)); len = 0 }
let tbuf_length b = b.len

let tbuf_get b i =
  if i < 0 || i >= b.len then invalid_arg "Machine.tbuf_get: out of bounds";
  b.trs.(i)

let tbuf_set b i tr =
  if i < 0 || i >= b.len then invalid_arg "Machine.tbuf_set: out of bounds";
  b.trs.(i) <- tr

let tbuf_truncate b n =
  if n < 0 || n > b.len then invalid_arg "Machine.tbuf_truncate: bad length";
  b.len <- n

let tbuf_add b tr =
  let n = b.len in
  if n = Array.length b.trs then begin
    let grown = Array.make (2 * n) tr in
    Array.blit b.trs 0 grown 0 n;
    b.trs <- grown
  end;
  b.trs.(n) <- tr;
  b.len <- n + 1

(* Same loop as {!enabled_iter}, open-coded so refilling a reused buffer
   allocates nothing (passing [tbuf_add b] as a closure would). *)
let enabled_into t b =
  b.len <- 0;
  for i = 0 to t.n_threads - 1 do
    let th = t.threads.(i) in
    if Store_buffer.can_flush_egress th.buf then tbuf_add b th.flush_tr;
    (match t.cfg.buffer_model with
    | Store_buffer.Abstract | Store_buffer.Realistic _ ->
        if Store_buffer.can_drain th.buf then tbuf_add b th.drain_trs.(0)
    | Store_buffer.Pso ->
        List.iter
          (fun lane -> tbuf_add b (drain_tr th lane))
          (Store_buffer.drain_lanes th.buf));
    match th.status with
    | Program.Done -> ()
    | Program.Paused_at (req, _) ->
        if request_enabled th req then tbuf_add b th.step_tr
  done;
  b.len

let enabled t =
  let acc = ref [] in
  enabled_iter t (fun tr -> acc := tr :: !acc);
  List.rev !acc

let pending_request t tid =
  match (thread t tid).status with
  | Program.Done -> None
  | Program.Paused_at (req, _) ->
      Some (Program.describe_named (Memory.name t.mem) req)

type request_class =
  | C_none
  | C_load
  | C_store
  | C_rmw
  | C_fence
  | C_work
  | C_free

let pending_class t tid =
  match (thread t tid).status with
  | Program.Done -> C_none
  | Program.Paused_at (req, _) -> (
      match req with
      | Program.Req_load _ -> C_load
      | Program.Req_store _ -> C_store
      | Program.Req_cas _ | Program.Req_fetch_add _ -> C_rmw
      | Program.Req_fence -> C_fence
      | Program.Req_work _ -> C_work
      | Program.Req_label _ | Program.Req_pause -> C_free)

let pending_work t tid =
  match (thread t tid).status with
  | Program.Paused_at (Program.Req_work n, _) -> n
  | _ -> 0

let pending_load t tid =
  let th = thread t tid in
  match th.status with
  | Program.Paused_at (Program.Req_load a, _) -> (
      match Store_buffer.lookup th.buf a with
      | Some v -> Some (a, v, true)
      | None -> Some (a, Memory.get t.mem a, false))
  | _ -> None

let store_blocked t tid =
  let th = thread t tid in
  match th.status with
  | Program.Paused_at (Program.Req_store _, _) ->
      Store_buffer.is_full th.buf
  | _ -> false

let emit t ev =
  for i = 0 to t.n_listeners - 1 do
    t.listeners.(i) ev
  done

let on_event t f =
  let n = t.n_listeners in
  if n = Array.length t.listeners then begin
    let grown = Array.make (max 4 (2 * n)) f in
    Array.blit t.listeners 0 grown 0 n;
    t.listeners <- grown
  end;
  t.listeners.(n) <- f;
  t.n_listeners <- n + 1

let exec_request t th (type a) (req : a Program.request) : a =
  match req with
  | Program.Req_load a ->
      let s = Store_buffer.forward_slot th.buf a in
      if s >= 0 then Store_buffer.slot_value th.buf s else Memory.get t.mem a
  | Program.Req_store (a, v) ->
      Store_buffer.push th.buf a v;
      ()
  | Program.Req_cas (a, expect, replace) ->
      assert (Store_buffer.is_empty th.buf);
      let cur = Memory.get t.mem a in
      if cur = expect then begin
        Memory.set t.mem a replace;
        true
      end
      else false
  | Program.Req_fetch_add (a, d) ->
      assert (Store_buffer.is_empty th.buf);
      let cur = Memory.get t.mem a in
      Memory.set t.mem a (cur + d);
      cur
  | Program.Req_fence ->
      assert (Store_buffer.is_empty th.buf);
      ()
  | Program.Req_work _ -> ()
  | Program.Req_label _ -> ()
  | Program.Req_pause -> ()

(* FNV-1a-style mixing over native ints. The multiplier is the 64-bit FNV
   prime; products wrap mod 2^63, which is fine for a non-cryptographic
   structural hash. *)
let fnv_prime = 0x100000001b3
let[@inline] mix h k = (h lxor k) * fnv_prime

(* Structural encoding of a pending request: constructor tag plus operands.
   Replaces the formatted [Program.describe] string everywhere hashing is
   concerned — same partition of requests, no allocation. *)
let encode_request : type a. a Program.request -> int = function
  | Program.Req_load a -> mix 1 (Addr.to_index a)
  | Program.Req_store (a, v) -> mix (mix 2 (Addr.to_index a)) v
  | Program.Req_cas (a, expect, replace) ->
      mix (mix (mix 3 (Addr.to_index a)) expect) replace
  | Program.Req_fetch_add (a, d) -> mix (mix 4 (Addr.to_index a)) d
  | Program.Req_fence -> 5
  | Program.Req_work n -> mix 6 n
  | Program.Req_label s -> mix 7 (Hashtbl.hash s)
  | Program.Req_pause -> 8

(* Encode a request's response as an int for the history hash. Only loads,
   CAS and fetch-add return data a program can branch on. *)
let encode_response : type a. a Program.request -> a -> int =
 fun req v ->
  match req with
  | Program.Req_load _ -> v
  | Program.Req_cas _ -> if v then 1 else 0
  | Program.Req_fetch_add _ -> v
  | Program.Req_store _ | Program.Req_fence | Program.Req_work _
  | Program.Req_label _ | Program.Req_pause ->
      0

(* Response recording (snapshot support). *)

let set_record_responses t b =
  if b && (not t.record) && t.steps > 0 then
    invalid_arg
      "Machine.set_record_responses: recording must start before the machine \
       is driven (earlier responses were not captured)";
  if not b then
    for i = 0 to t.n_threads - 1 do
      t.threads.(i).resp_len <- 0
    done;
  t.record <- b

let record_responses t = t.record

let log_response th r =
  let n = th.resp_len in
  if n = Array.length th.resp_log then begin
    let grown = Array.make (max 64 (2 * n)) 0 in
    Array.blit th.resp_log 0 grown 0 n;
    th.resp_log <- grown
  end;
  th.resp_log.(n) <- r;
  th.resp_len <- n + 1

(* Telemetry accounting for one executed instruction. Out of line from
   {!apply} so the sink-attached branch costs a call only when a sink is
   actually present. *)
let count_exec (s : Telemetry.Sink.t) th (type a) (req : a Program.request) =
  match req with
  | Program.Req_load _ -> s.loads <- s.loads + 1
  | Program.Req_store _ ->
      s.stores <- s.stores + 1;
      (* Occupancy after the push: the store just issued is included. *)
      Telemetry.Histogram.observe s.sb_occupancy (Store_buffer.entries th.buf)
  | Program.Req_cas _ -> s.cas <- s.cas + 1
  | Program.Req_fetch_add _ -> s.fetch_adds <- s.fetch_adds + 1
  | Program.Req_fence -> s.fences <- s.fences + 1
  | Program.Req_work _ | Program.Req_label _ | Program.Req_pause -> ()

let count_drain (s : Telemetry.Sink.t) th result =
  s.drains <- s.drains + 1;
  (match result with
  | Store_buffer.Coalesced _ -> s.coalesces <- s.coalesces + 1
  | Store_buffer.Wrote _ | Store_buffer.Staged _ -> ());
  Telemetry.Histogram.observe s.egress_depth
    (if Store_buffer.can_flush_egress th.buf then 1 else 0)

(* The sink charged for thread [tid]'s events: its shard when a sharded
   plane is attached ([counters] has one entry per shard), the root sink
   otherwise ([counters] = [|root|]). Callers must have checked that the
   routing table is non-empty. *)
let[@inline] counter_for t tid =
  let r = t.counters in
  Array.unsafe_get r (tid mod Array.length r)

let apply t tr =
  t.steps <- t.steps + 1;
  let tr_tid =
    match tr with Step tid -> tid | Drain (tid, _) -> tid | Flush tid -> tid
  in
  let counting = Array.length t.counters > 0 in
  (if counting then
     let s = counter_for t tr_tid in
     s.Telemetry.Sink.steps <- s.Telemetry.Sink.steps + 1);
  match tr with
  | Step tid -> (
      let th = thread t tid in
      match th.status with
      | Program.Done -> invalid_arg "Machine.apply: thread is done"
      | Program.Paused_at (req, k) ->
          if not (request_enabled th req) then
            invalid_arg "Machine.apply: instruction not enabled";
          let v = exec_request t th req in
          th.hist <- mix (mix th.hist (encode_request req)) (encode_response req v);
          if t.record then log_response th (encode_response req v);
          th.status <- Program.resume k v;
          if counting then count_exec (counter_for t tid) th req;
          (* The formatted instruction string exists only for listeners;
             without any registered, nothing is formatted. *)
          if t.n_listeners > 0 then begin
            let instr = Program.describe_named (Memory.name t.mem) req in
            emit t (Ev_exec { tid; instr });
            if status_done th.status then emit t (Ev_done tid)
          end)
  | Drain (tid, lane) ->
      let th = thread t tid in
      let result = Store_buffer.drain_lane th.buf lane t.mem in
      if counting then count_drain (counter_for t tid) th result;
      if t.n_listeners > 0 then emit t (Ev_drain { tid; result })
  | Flush tid ->
      let th = thread t tid in
      let addr, value = Store_buffer.flush_egress th.buf t.mem in
      (if counting then
         let s = counter_for t tid in
         s.Telemetry.Sink.flushes <- s.Telemetry.Sink.flushes + 1);
      if t.n_listeners > 0 then emit t (Ev_flush { tid; addr; value })

let fingerprint t =
  let h = ref 0x811c9dc5 in
  let mem = t.mem in
  let n_cells = Memory.size mem in
  h := mix !h n_cells;
  for i = 0 to n_cells - 1 do
    h := mix !h (Memory.cell mem i)
  done;
  (* One closure shared by the egress slot and the buffer-proper walk, which
     passes each entry's address and value unboxed. *)
  let add_entry a v = h := mix (mix !h (Addr.to_index a + 2)) v in
  for i = 0 to t.n_threads - 1 do
    let th = t.threads.(i) in
    (* Control state: done/paused, the pending instruction, and the
       response-history hash (program position). *)
    (match th.status with
    | Program.Done -> h := mix !h 0xD0
    | Program.Paused_at (req, _) ->
        h := mix (mix !h 0xBA) (encode_request req));
    h := mix !h th.hist;
    (* The egress slot B is hashed separately from the buffer proper: a
       store staged in B and the same store still queued are different
       states (they enable different transitions). *)
    (match Store_buffer.egress_entry th.buf with
    | None -> h := mix !h 0x0E
    | Some (a, v) ->
        h := mix !h 0x1E;
        add_entry a v);
    h := mix !h (Store_buffer.entries th.buf);
    Store_buffer.iter_entries th.buf add_entry
  done;
  !h

(* {1 Transition footprints} *)

type footprint = {
  f_tid : tid;
  f_read : int;  (* address index read from memory, or [no_addr] *)
  f_write : int;  (* address index written to memory, or [no_addr] *)
}

let no_addr = -1
let footprint_tid f = f.f_tid
let footprint_read f = f.f_read
let footprint_write f = f.f_write

(* Every machine transition touches at most one shared address, so a
   footprint is two optional address indices. The TSO-specific leverage: a
   [Step] of a store touches no shared address at all — the store only
   enters the issuing thread's private buffer; memory changes later, at the
   [Drain]/[Flush] that propagates it, and that transition carries the
   write. [Drain]/[Flush] conservatively claim a memory write even when the
   realistic model merely stages into B (staging changes what a subsequent
   same-address [Flush] writes, so treating it as a write keeps dependent
   pairs dependent). *)
let footprint t tr =
  match tr with
  | Step tid -> (
      let th = thread t tid in
      match th.status with
      | Program.Done -> { f_tid = tid; f_read = no_addr; f_write = no_addr }
      | Program.Paused_at (req, _) -> (
          match req with
          | Program.Req_load a ->
              { f_tid = tid; f_read = Addr.to_index a; f_write = no_addr }
          | Program.Req_cas (a, _, _) ->
              let i = Addr.to_index a in
              { f_tid = tid; f_read = i; f_write = i }
          | Program.Req_fetch_add (a, _) ->
              let i = Addr.to_index a in
              { f_tid = tid; f_read = i; f_write = i }
          | Program.Req_store _ | Program.Req_fence | Program.Req_work _
          | Program.Req_label _ | Program.Req_pause ->
              { f_tid = tid; f_read = no_addr; f_write = no_addr }))
  | Drain (tid, lane) ->
      let th = thread t tid in
      let w =
        match t.cfg.buffer_model with
        | Store_buffer.Pso -> lane (* PSO lanes are address indices *)
        | Store_buffer.Abstract | Store_buffer.Realistic _ -> (
            match Store_buffer.oldest th.buf with
            | Some (a, _) -> Addr.to_index a
            | None -> no_addr)
      in
      { f_tid = tid; f_read = no_addr; f_write = w }
  | Flush tid -> (
      let th = thread t tid in
      match Store_buffer.egress_entry th.buf with
      | Some (a, _) ->
          { f_tid = tid; f_read = no_addr; f_write = Addr.to_index a }
      | None -> { f_tid = tid; f_read = no_addr; f_write = no_addr })

let[@inline] conflict x y = x >= 0 && x = y

let independent f1 f2 =
  f1.f_tid <> f2.f_tid
  && (not (conflict f1.f_write f2.f_read))
  && (not (conflict f1.f_write f2.f_write))
  && not (conflict f1.f_read f2.f_write)

(* {1 Snapshot / restore}

   One-shot effect continuations cannot be cloned, so a snapshot does not
   copy thread control state directly. Instead it copies everything else
   (memory, store buffers, hashes) plus each thread's decoded response log;
   [restore_into] then rebuilds control state by resuming a *fresh*
   instance's continuations with the recorded responses. Host-side effects
   a thread body performs (check closures writing result cells) re-execute
   identically because the program is a deterministic function of its
   response history. *)

type thread_snap = {
  mutable s_hist : int;
  mutable s_done : bool;
  mutable s_resp : int array;
  mutable s_resp_len : int;
  (* buffer-proper entries, interleaved [addr_index; value] pairs *)
  mutable s_entries : int array;
  mutable s_n_entries : int;
  mutable s_egress_a : int;  (* no_addr = B empty *)
  mutable s_egress_v : int;
}

type snapshot = {
  mutable s_mem : int array;
  mutable s_mem_len : int;
  mutable s_steps : int;
  mutable s_threads : thread_snap array;
  mutable s_n_threads : int;
}

let snapshot_create () =
  { s_mem = [||]; s_mem_len = 0; s_steps = 0; s_threads = [||]; s_n_threads = 0 }

let thread_snap_create () =
  {
    s_hist = 0;
    s_done = false;
    s_resp = [||];
    s_resp_len = 0;
    s_entries = [||];
    s_n_entries = 0;
    s_egress_a = no_addr;
    s_egress_v = 0;
  }

let ensure_int_array a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

let snapshot t snap =
  if not t.record then
    invalid_arg "Machine.snapshot: machine is not recording responses";
  let n_cells = Memory.size t.mem in
  snap.s_mem <- ensure_int_array snap.s_mem n_cells;
  Memory.blit_to t.mem snap.s_mem;
  snap.s_mem_len <- n_cells;
  snap.s_steps <- t.steps;
  if Array.length snap.s_threads < t.n_threads then begin
    let grown =
      Array.init (max t.n_threads (2 * Array.length snap.s_threads)) (fun i ->
          if i < Array.length snap.s_threads then snap.s_threads.(i)
          else thread_snap_create ())
    in
    snap.s_threads <- grown
  end;
  snap.s_n_threads <- t.n_threads;
  for i = 0 to t.n_threads - 1 do
    let th = t.threads.(i) in
    let ts = snap.s_threads.(i) in
    ts.s_hist <- th.hist;
    ts.s_done <- status_done th.status;
    ts.s_resp <- ensure_int_array ts.s_resp th.resp_len;
    Array.blit th.resp_log 0 ts.s_resp 0 th.resp_len;
    ts.s_resp_len <- th.resp_len;
    let n_entries = Store_buffer.entries th.buf in
    ts.s_entries <- ensure_int_array ts.s_entries (2 * n_entries);
    let k = ref 0 in
    Store_buffer.iter_entries th.buf (fun a v ->
        ts.s_entries.(2 * !k) <- Addr.to_index a;
        ts.s_entries.((2 * !k) + 1) <- v;
        incr k);
    ts.s_n_entries <- n_entries;
    (match Store_buffer.egress_entry th.buf with
    | None ->
        ts.s_egress_a <- no_addr;
        ts.s_egress_v <- 0
    | Some (a, v) ->
        ts.s_egress_a <- Addr.to_index a;
        ts.s_egress_v <- v)
  done

(* Decode a recorded response back to the value the request's continuation
   expects — the exact inverse of [encode_response]. *)
let decode_response : type a. a Program.request -> int -> a =
 fun req r ->
  match req with
  | Program.Req_load _ -> r
  | Program.Req_cas _ -> r <> 0
  | Program.Req_fetch_add _ -> r
  | Program.Req_store _ -> ()
  | Program.Req_fence -> ()
  | Program.Req_work _ -> ()
  | Program.Req_label _ -> ()
  | Program.Req_pause -> ()

let restore_into snap t =
  if t.steps <> 0 then
    invalid_arg "Machine.restore_into: target must be a fresh instance";
  if t.n_threads <> snap.s_n_threads then
    invalid_arg "Machine.restore_into: thread count differs from snapshot";
  if Memory.size t.mem <> snap.s_mem_len then
    invalid_arg "Machine.restore_into: memory layout differs from snapshot";
  Memory.restore_from t.mem snap.s_mem ~len:snap.s_mem_len;
  for i = 0 to t.n_threads - 1 do
    let th = t.threads.(i) in
    let ts = snap.s_threads.(i) in
    (* Fast-forward the fresh continuation through the recorded responses;
       memory/buffer side effects of [exec_request] are NOT re-run — the
       snapshot already holds the resulting data state. *)
    for k = 0 to ts.s_resp_len - 1 do
      match th.status with
      | Program.Done ->
          invalid_arg "Machine.restore_into: thread diverged from snapshot"
      | Program.Paused_at (req, c) ->
          th.status <- Program.resume c (decode_response req ts.s_resp.(k))
    done;
    if status_done th.status <> ts.s_done then
      invalid_arg "Machine.restore_into: thread diverged from snapshot";
    th.hist <- ts.s_hist;
    th.resp_log <- ensure_int_array th.resp_log ts.s_resp_len;
    Array.blit ts.s_resp 0 th.resp_log 0 ts.s_resp_len;
    th.resp_len <- ts.s_resp_len;
    Store_buffer.clear th.buf;
    for k = 0 to ts.s_n_entries - 1 do
      Store_buffer.push th.buf
        (Addr.of_index ts.s_entries.(2 * k))
        ts.s_entries.((2 * k) + 1)
    done;
    Store_buffer.set_egress th.buf
      (if ts.s_egress_a >= 0 then
         Some (Addr.of_index ts.s_egress_a, ts.s_egress_v)
       else None)
  done;
  t.steps <- snap.s_steps;
  t.record <- true;
  let r = t.counters in
  if Array.length r > 0 then begin
    let s = Array.unsafe_get r 0 in
    s.Telemetry.Sink.snapshot_restores <- s.Telemetry.Sink.snapshot_restores + 1
  end

(* The pre-optimisation digest, kept as a debug cross-check: the alcotest
   suite differential-tests {!fingerprint}'s equality classes against it
   over the classic litmus programs. *)
let fingerprint_digest t =
  let b = Buffer.create 256 in
  let add_entry (a, v) =
    Buffer.add_string b (string_of_int (Addr.to_index a));
    Buffer.add_char b ':';
    Buffer.add_string b (string_of_int v);
    Buffer.add_char b ';'
  in
  Array.iter (fun v -> Buffer.add_string b (string_of_int v); Buffer.add_char b ',')
    (Memory.snapshot t.mem);
  for i = 0 to t.n_threads - 1 do
    let th = t.threads.(i) in
    Buffer.add_char b '|';
    (match th.status with
    | Program.Done -> Buffer.add_char b 'D'
    | Program.Paused_at (req, _) ->
        Buffer.add_char b 'P';
        Buffer.add_string b (Program.describe req));
    Buffer.add_char b '#';
    Buffer.add_string b (string_of_int th.hist);
    Buffer.add_char b '@';
    (match Store_buffer.egress_entry th.buf with
    | None -> Buffer.add_char b '-'
    | Some e -> add_entry e);
    Buffer.add_char b '!';
    List.iter add_entry (Store_buffer.buffered th.buf)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))
