(* Chase & Lev, "Dynamic circular work-stealing deque" (SPAA 2005), with the
   growing circular buffer of the original. H and T are monotonically
   increasing virtual indices; the buffer doubles on overflow. *)

type 'a buffer = { log_size : int; elems : 'a option Atomic.t array }

let buffer_create log_size =
  { log_size; elems = Array.init (1 lsl log_size) (fun _ -> Atomic.make None) }

let buffer_get b i = Atomic.get b.elems.(i land ((1 lsl b.log_size) - 1))
let buffer_set b i v = Atomic.set b.elems.(i land ((1 lsl b.log_size) - 1)) v

let buffer_grow b ~head ~tail =
  let b' = buffer_create (b.log_size + 1) in
  for i = head to tail - 1 do
    buffer_set b' i (buffer_get b i)
  done;
  b'

type 'a t = {
  head : int Atomic.t;
  tail : int Atomic.t;
  buf : 'a buffer Atomic.t;
}

let padded (x : 'a) : 'a =
  let src = Obj.repr x in
  let n = Obj.size src in
  let dst = Obj.new_block (Obj.tag src) (n + 16) in
  for i = 0 to n - 1 do
    Obj.set_field dst i (Obj.field src i)
  done;
  Obj.obj dst

(* The indices are padded apart: [tail] is the owner's, [head] the
   thieves', and unpadded two-word atomics share cache lines with whatever
   the heap put next to them, another deque's indices included. *)
let create ?(capacity = 64) () =
  let rec log2_up n acc = if 1 lsl acc >= n then acc else log2_up n (acc + 1) in
  {
    head = padded (Atomic.make 0);
    tail = padded (Atomic.make 0);
    buf = padded (Atomic.make (buffer_create (max 4 (log2_up capacity 0))));
  }

let size q = max 0 (Atomic.get q.tail - Atomic.get q.head)

let push q v =
  let t = Atomic.get q.tail in
  let h = Atomic.get q.head in
  let b = Atomic.get q.buf in
  let b =
    if t - h >= (1 lsl b.log_size) - 1 then begin
      let b' = buffer_grow b ~head:h ~tail:t in
      Atomic.set q.buf b';
      b'
    end
    else b
  in
  buffer_set b t (Some v);
  (* the element is visible before the new tail; both [Atomic.set]s are
     full fences, though x86-TSO keeps stores in order without them *)
  Atomic.set q.tail (t + 1)

let pop q =
  let t = Atomic.get q.tail - 1 in
  let b = Atomic.get q.buf in
  Atomic.set q.tail t;
  (* This [Atomic.set] is an [xchg], a full fence: it is the take fence of
     Fig. 2c, the one the paper removes. The [Atomic.get] of the head below
     is a plain load. *)
  let h = Atomic.get q.head in
  if t > h then buffer_get b t
  else if t < h then begin
    (* empty, or a thief got ahead: restore the tail *)
    Atomic.set q.tail h;
    None
  end
  else begin
    (* last element: race thieves via CAS on the head *)
    Atomic.set q.tail (h + 1);
    if Atomic.compare_and_set q.head h (h + 1) then buffer_get b t else None
  end

let steal q =
  let h = Atomic.get q.head in
  let t = Atomic.get q.tail in
  if h >= t then None
  else begin
    let b = Atomic.get q.buf in
    let v = buffer_get b h in
    if Atomic.compare_and_set q.head h (h + 1) then v else None
  end

(* [steal] collapses "nothing there" and "lost the CAS race" into [None];
   contention accounting needs them apart (an abort means a live conflict
   with the owner or another thief, an empty means a mistargeted hunt). *)
let steal_detail q =
  let h = Atomic.get q.head in
  let t = Atomic.get q.tail in
  if h >= t then `Empty
  else begin
    let b = Atomic.get q.buf in
    let v = buffer_get b h in
    if Atomic.compare_and_set q.head h (h + 1) then
      match v with Some x -> `Task x | None -> `Empty
    else `Abort
  end

let rec steal_retry q =
  let h = Atomic.get q.head in
  let t = Atomic.get q.tail in
  if h >= t then None
  else begin
    let b = Atomic.get q.buf in
    let v = buffer_get b h in
    if Atomic.compare_and_set q.head h (h + 1) then v
    else begin
      Domain.cpu_relax ();
      steal_retry q
    end
  end
