type config = {
  sb_capacity : int;
  buffer_model : Store_buffer.model;
}

let abstract_config ~sb_capacity =
  { sb_capacity; buffer_model = Store_buffer.Abstract }

let realistic_config ~sb_capacity ~coalesce =
  { sb_capacity; buffer_model = Store_buffer.Realistic { coalesce } }

type tid = int

type transition =
  | Step of tid
  | Drain of tid
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
     nothing. *)
  step_tr : transition;
  drain_tr : transition;
  flush_tr : transition;
  (* Decoded response log: one [encode_response] int per executed
     instruction, appended only while the machine is recording. A
     deterministic thread program is a function of its response history, so
     replaying this log through a fresh continuation reconstructs the
     thread's control state — the basis of {!snapshot}/{!restore_into},
     which effect-based one-shot continuations cannot support by copying. *)
  mutable resp_log : int array;
  mutable resp_len : int;
  (* Set by {!restore_into}. [status] is then the snapshot's: its pending
     request, with a continuation that belongs to another machine and is
     never resumed or discontinued here. The thread's own continuation,
     [own], waits at its first instruction until [replay] runs it through
     [resp_log], at the thread's first step or at {!catch_up}. *)
  mutable lagging : bool;
  mutable own : Program.status;
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
    record = false;
  }

let memory t = t.mem
let config t = t.cfg

let set_sink t s = t.sink <- Some s
let clear_sink t = t.sink <- None
let sink t = t.sink

(* Queue-layer hook: the fence-free thieves count each delta certification
   they attempt ([t - delta > h]) against the machine's sink. Host-side and
   deterministic — it fires exactly when the simulated steal path executes
   the comparison. *)
let count_delta_check t =
  match t.sink with
  | None -> ()
  | Some s -> s.Telemetry.Sink.delta_checks <- s.Telemetry.Sink.delta_checks + 1

(* Every thread's [hist] starts here, not at 0. The update mixes the
   encoded request in by xor, so from 0 a load of cell 1 that returns 1
   leaves [hist] at the FNV prime, which a load of cell 0 that returns 1
   then maps to itself: two positions of one thread would share a hash.
   From a full-width start, [hist] never meets the small multiples of the
   prime that request encodings are. (The 64-bit FNV offset basis,
   shifted into an OCaml int.) *)
let hist_basis = 0x32fca73921088c89

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
      hist = hist_basis;
      step_tr = Step tid;
      drain_tr = Drain tid;
      flush_tr = Flush tid;
      resp_log = [||];
      resp_len = 0;
      lagging = false;
      own = Program.Done;
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

(* Every paused thread is set [Done] before its continuation is
   discontinued, so a body that raises while unwinding still leaves the
   machine released; the first such exception is re-raised once every
   thread has been handled. A lagging thread's continuation is its [own]:
   the snapshot's, in [status], may still be live on its source machine. *)
let release t =
  let first = ref None in
  for i = 0 to t.n_threads - 1 do
    let th = t.threads.(i) in
    let st = if th.lagging then th.own else th.status in
    th.status <- Program.Done;
    th.lagging <- false;
    th.own <- Program.Done;
    try Program.release st
    with e -> if Option.is_none !first then first := Some e
  done;
  Option.iter raise !first

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

(* The enabled set, in the deterministic order every driver depends on:
   threads by tid; per thread [Flush], then [Drain], then [Step], each the
   thread's preallocated transition. *)
let enabled_into t b =
  b.len <- 0;
  for i = 0 to t.n_threads - 1 do
    let th = t.threads.(i) in
    if Store_buffer.can_flush_egress th.buf then tbuf_add b th.flush_tr;
    if Store_buffer.can_drain th.buf then tbuf_add b th.drain_tr;
    match th.status with
    | Program.Done -> ()
    | Program.Paused_at (req, _) ->
        if request_enabled th req then tbuf_add b th.step_tr
  done;
  b.len

let enabled t =
  let b = tbuf_create () in
  List.init (enabled_into t b) (tbuf_get b)

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

let diverged () = invalid_arg "Machine: thread diverged from snapshot"

(* Fast-forward a lagging thread's own continuation through its response
   log. No memory or buffer effect re-runs: {!restore_into} already put
   the data state in place. The replay must stop where the snapshot's
   thread did: done if it was, else at the same pending request. The
   status is held in a local while it runs, and [own] is [Done] meanwhile,
   so a body that raises mid-replay leaves nothing for {!release} to
   discontinue twice. *)
let replay th =
  let st = ref th.own in
  th.own <- Program.Done;
  for k = 0 to th.resp_len - 1 do
    match !st with
    | Program.Done -> diverged ()
    | Program.Paused_at (req, c) ->
        st :=
          Program.resume c
            (decode_response req (Array.unsafe_get th.resp_log k))
  done;
  let landed =
    match (!st, th.status) with
    | Program.Done, Program.Done -> true
    | Program.Paused_at (r, _), Program.Paused_at (r', _) ->
        encode_request r = encode_request r'
    | Program.Done, Program.Paused_at _ | Program.Paused_at _, Program.Done ->
        false
  in
  if not landed then begin
    th.own <- !st;
    diverged ()
  end;
  th.status <- !st;
  th.lagging <- false

let catch_up t =
  for i = 0 to t.n_threads - 1 do
    let th = t.threads.(i) in
    if th.lagging then replay th
  done

(* Response recording (snapshot support). *)

let set_record_responses t b =
  if b && (not t.record) && t.steps > 0 then
    invalid_arg
      "Machine.set_record_responses: recording must start before the machine \
       is driven (earlier responses were not captured)";
  if not b then begin
    (* a lagging thread still needs its log *)
    catch_up t;
    for i = 0 to t.n_threads - 1 do
      t.threads.(i).resp_len <- 0
    done
  end;
  t.record <- b

let record_responses t = t.record

(* [dst.(i) <- src.(i)] for [i < n], as a typed loop. [Array.blit] would
   call [caml_modify] per element whenever [dst] is outside the minor heap
   (OCaml 5.1's [caml_array_blit]), which every grown log past 256 words
   and every long-lived snapshot is. *)
let copy_ints src dst n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

let log_response th r =
  let n = th.resp_len in
  if n = Array.length th.resp_log then begin
    let grown = Array.make (max 64 (2 * n)) 0 in
    copy_ints th.resp_log grown n;
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

let apply t tr =
  t.steps <- t.steps + 1;
  (match t.sink with
  | None -> ()
  | Some s -> s.Telemetry.Sink.steps <- s.Telemetry.Sink.steps + 1);
  match tr with
  | Step tid -> (
      let th = thread t tid in
      if th.lagging then replay th;
      match th.status with
      | Program.Done -> invalid_arg "Machine.apply: thread is done"
      | Program.Paused_at (req, k) ->
          if not (request_enabled th req) then
            invalid_arg "Machine.apply: instruction not enabled";
          let v = exec_request t th req in
          th.hist <- mix (mix th.hist (encode_request req)) (encode_response req v);
          if t.record then log_response th (encode_response req v);
          th.status <- Program.resume k v;
          (match t.sink with None -> () | Some s -> count_exec s th req);
          (* The formatted instruction string exists only for listeners;
             without any registered, nothing is formatted. *)
          if t.n_listeners > 0 then begin
            let instr = Program.describe_named (Memory.name t.mem) req in
            emit t (Ev_exec { tid; instr });
            if status_done th.status then emit t (Ev_done tid)
          end)
  | Drain tid ->
      let th = thread t tid in
      let result = Store_buffer.drain th.buf t.mem in
      (match t.sink with None -> () | Some s -> count_drain s th result);
      if t.n_listeners > 0 then emit t (Ev_drain { tid; result })
  | Flush tid ->
      let th = thread t tid in
      let addr, value = Store_buffer.flush_egress th.buf t.mem in
      (match t.sink with
      | None -> ()
      | Some s -> s.Telemetry.Sink.flushes <- s.Telemetry.Sink.flushes + 1);
      if t.n_listeners > 0 then emit t (Ev_flush { tid; addr; value })

(* One buffered store (egress slot or buffer-proper entry) folded into a
   fingerprint. *)
let[@inline] mix_entry h a v = mix (mix h (a + 2)) v

(* The running hash is a local [ref] that no closure captures, so it lives
   in a register, and the buffers are read through index accessors: the
   fold allocates nothing. *)
let fingerprint t =
  let mem = t.mem in
  let n_cells = Memory.size mem in
  let h = ref (mix 0x811c9dc5 n_cells) in
  for i = 0 to n_cells - 1 do
    h := mix !h (Memory.cell mem i)
  done;
  for i = 0 to t.n_threads - 1 do
    let th = t.threads.(i) in
    let buf = th.buf in
    (* The response-history hash is the program position: a deterministic
       thread body is a function of it, so it also fixes whether the
       thread is done and which request it waits at. *)
    h := mix !h th.hist;
    (* The egress slot B is hashed separately from the buffer proper: a
       store staged in B and the same store still queued are different
       states (they enable different transitions). *)
    let eg = Store_buffer.egress_addr buf in
    if eg < 0 then h := mix !h 0x0E
    else h := mix_entry (mix !h 0x1E) eg (Store_buffer.egress_value buf);
    let n = Store_buffer.entries buf in
    h := mix !h n;
    for k = 0 to n - 1 do
      h :=
        mix_entry !h (Store_buffer.entry_addr buf k)
          (Store_buffer.entry_value buf k)
    done
  done;
  !h

(* {1 Transition footprints} *)

(* An immediate int, so taking a footprint allocates nothing: the thread
   in the bits from [tid_shift] up, and the written and read address
   indices plus one ([no_addr] = -1 becomes 0) in two [addr_bits] fields
   below it. *)
type footprint = int

let no_addr = -1
let addr_bits = 24
let addr_mask = (1 lsl addr_bits) - 1
let tid_shift = 2 * addr_bits
let max_tid = (1 lsl (Sys.int_size - 1 - tid_shift)) - 1

let make_footprint tid r w =
  if tid > max_tid || r >= addr_mask || w >= addr_mask then
    invalid_arg "Machine.footprint: thread or address out of range";
  (tid lsl tid_shift) lor ((w + 1) lsl addr_bits) lor (r + 1)

let footprint_tid f = f lsr tid_shift
let footprint_read f = (f land addr_mask) - 1
let footprint_write f = ((f lsr addr_bits) land addr_mask) - 1

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
      | Program.Done -> make_footprint tid no_addr no_addr
      | Program.Paused_at (req, _) -> (
          match req with
          | Program.Req_load a -> make_footprint tid (Addr.to_index a) no_addr
          | Program.Req_cas (a, _, _) | Program.Req_fetch_add (a, _) ->
              let i = Addr.to_index a in
              make_footprint tid i i
          | Program.Req_store _ | Program.Req_fence | Program.Req_work _
          | Program.Req_label _ | Program.Req_pause ->
              make_footprint tid no_addr no_addr))
  | Drain tid ->
      make_footprint tid no_addr (Store_buffer.head_addr (thread t tid).buf)
  | Flush tid ->
      make_footprint tid no_addr (Store_buffer.egress_addr (thread t tid).buf)

let[@inline] conflict x y = x >= 0 && x = y

let independent f1 f2 =
  let w1 = footprint_write f1 and w2 = footprint_write f2 in
  footprint_tid f1 <> footprint_tid f2
  && (not (conflict w1 (footprint_read f2)))
  && (not (conflict w1 w2))
  && not (conflict (footprint_read f1) w2)

(* {1 Snapshot / restore}

   One-shot effect continuations cannot be cloned, so a snapshot does not
   copy thread control state directly. Instead it copies everything else
   (memory, store buffers, hashes) plus each thread's decoded response log
   and its status, for the pending request; [restore_into] puts that state
   on a *fresh* instance, whose own continuations then catch up lazily:
   [replay] resumes one with the recorded responses at its thread's first
   step, or at [catch_up]. Host-side effects a thread body performs (check
   closures writing result cells) re-execute identically because the
   program is a deterministic function of its response history. *)

type thread_snap = {
  mutable s_hist : int;
  mutable s_status : Program.status;
      (* read only for its pending request: the continuation belongs to
         the source machine *)
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
    s_status = Program.Done;
    s_resp = [||];
    s_resp_len = 0;
    s_entries = [||];
    s_n_entries = 0;
    s_egress_a = no_addr;
    s_egress_v = 0;
  }

(* A larger scratch array, for the callers that found [a] shorter than [n].
   Scratch fields are only written when they grow: even an unchanged
   pointer store into a major-heap record goes through [caml_modify]. *)
let grow_ints a n = Array.make (max n (2 * Array.length a)) 0

let snapshot t snap =
  if not t.record then
    invalid_arg "Machine.snapshot: machine is not recording responses";
  let n_cells = Memory.size t.mem in
  if Array.length snap.s_mem < n_cells then
    snap.s_mem <- grow_ints snap.s_mem n_cells;
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
    ts.s_status <- th.status;
    if Array.length ts.s_resp < th.resp_len then
      ts.s_resp <- grow_ints ts.s_resp th.resp_len;
    copy_ints th.resp_log ts.s_resp th.resp_len;
    ts.s_resp_len <- th.resp_len;
    let buf = th.buf in
    let n_entries = Store_buffer.entries buf in
    if Array.length ts.s_entries < 2 * n_entries then
      ts.s_entries <- grow_ints ts.s_entries (2 * n_entries);
    let entries = ts.s_entries in
    for k = 0 to n_entries - 1 do
      entries.(2 * k) <- Store_buffer.entry_addr buf k;
      entries.((2 * k) + 1) <- Store_buffer.entry_value buf k
    done;
    ts.s_n_entries <- n_entries;
    let eg = Store_buffer.egress_addr buf in
    ts.s_egress_a <- eg;
    ts.s_egress_v <- (if eg < 0 then 0 else Store_buffer.egress_value buf)
  done

(* {1 Restores}

   [restore_data] puts back what both restores share: memory, the store
   buffers, the history hashes and each thread's pending request. A
   thread's own continuation waits in [own] (for [replay], or for
   [release]); readers of the pending request see the snapshot's. On its
   own it makes a probe: the explorer keys a sibling before it builds one
   by firing one transition there with [apply_data], which has [apply]'s
   memory, buffer and history effects but no resume, so [fingerprint] then
   reads the key the sibling would have after [apply]. The probe's own
   continuations never move. *)
let restore_data snap t =
  if t.n_threads <> snap.s_n_threads then
    invalid_arg "Machine: thread count differs from snapshot";
  if Memory.size t.mem <> snap.s_mem_len then
    invalid_arg "Machine: memory layout differs from snapshot";
  Memory.restore_from t.mem snap.s_mem ~len:snap.s_mem_len;
  for i = 0 to t.n_threads - 1 do
    let th = t.threads.(i) in
    let ts = snap.s_threads.(i) in
    if not th.lagging then begin
      th.own <- th.status;
      th.lagging <- true
    end;
    th.status <- ts.s_status;
    th.hist <- ts.s_hist;
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
  done

let restore_into snap t =
  if t.steps <> 0 then
    invalid_arg "Machine.restore_into: target must be a fresh instance";
  restore_data snap t;
  for i = 0 to t.n_threads - 1 do
    let th = t.threads.(i) in
    let ts = snap.s_threads.(i) in
    (* Sized as [log_response] would grow it, so the restored thread's next
       steps append without regrowing the log. *)
    if Array.length th.resp_log <= ts.s_resp_len then
      th.resp_log <- Array.make (max 64 (2 * ts.s_resp_len)) 0;
    copy_ints ts.s_resp th.resp_log ts.s_resp_len;
    th.resp_len <- ts.s_resp_len
  done;
  t.steps <- snap.s_steps;
  t.record <- true;
  match t.sink with
  | None -> ()
  | Some s ->
      s.Telemetry.Sink.snapshot_restores <-
        s.Telemetry.Sink.snapshot_restores + 1

let apply_data t tr =
  match tr with
  | Step tid -> (
      let th = thread t tid in
      match th.status with
      | Program.Done -> invalid_arg "Machine.apply_data: thread is done"
      | Program.Paused_at (req, _) ->
          if not (request_enabled th req) then
            invalid_arg "Machine.apply_data: instruction not enabled";
          let v = exec_request t th req in
          th.hist <- mix (mix th.hist (encode_request req)) (encode_response req v);
          (* Its next request is unknown until a body resumes, which a
             probe never does. *)
          th.status <- Program.Done)
  | Drain tid -> ignore (Store_buffer.drain (thread t tid).buf t.mem)
  | Flush tid -> ignore (Store_buffer.flush_egress (thread t tid).buf t.mem)

(* The pre-optimisation digest, kept as a debug cross-check: the alcotest
   suite differential-tests {!fingerprint}'s equality classes against it
   over the classic litmus programs. It also spells out each thread's
   control state, which the fingerprint leaves to [hist]. *)
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
