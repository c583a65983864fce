type 'a t = {
  head : int Atomic.t;
  tail : int Atomic.t;
  mask : int;
  elems : 'a option array;
  lock : Mutex.t;
}

let create ?(capacity = 8192) () =
  let rec up n = if n >= capacity then n else up (2 * n) in
  let cap = up 16 in
  {
    head = Atomic.make 0;
    tail = Atomic.make 0;
    mask = cap - 1;
    elems = Array.make cap None;
    lock = Mutex.create ();
  }

let size q = max 0 (Atomic.get q.tail - Atomic.get q.head)

let push q v =
  let t = Atomic.get q.tail in
  if t - Atomic.get q.head > q.mask then failwith "The_queue.push: full";
  q.elems.(t land q.mask) <- Some v;
  Atomic.set q.tail (t + 1)

let pop q =
  let t = Atomic.get q.tail - 1 in
  Atomic.set q.tail t;
  (* the tail's [Atomic.set] (an [xchg]) is the THE fence; the read of
     the head is a plain load *)
  let h = Atomic.get q.head in
  if t > h then q.elems.(t land q.mask)
  else if t < h then begin
    Mutex.lock q.lock;
    let h = Atomic.get q.head in
    let r =
      if h >= t + 1 then begin
        Atomic.set q.tail (t + 1);
        None
      end
      else q.elems.(t land q.mask)
    in
    Mutex.unlock q.lock;
    r
  end
  else q.elems.(t land q.mask)

let steal q =
  Mutex.lock q.lock;
  let h = Atomic.get q.head in
  Atomic.set q.head (h + 1);
  let t = Atomic.get q.tail in
  let r =
    if h + 1 <= t then q.elems.(h land q.mask)
    else begin
      Atomic.set q.head h;
      None
    end
  in
  Mutex.unlock q.lock;
  r

(* Same protocol as [steal], but the two failure modes stay apart: a queue
   already empty on entry is [`Empty]; a failed certification after the
   head advance — the owner popped the contested element between our two
   reads — is a genuine THE conflict, [`Abort]. *)
let steal_detail q =
  Mutex.lock q.lock;
  let h = Atomic.get q.head in
  let r =
    if Atomic.get q.tail - h <= 0 then `Empty
    else begin
      Atomic.set q.head (h + 1);
      let t = Atomic.get q.tail in
      if h + 1 <= t then
        match q.elems.(h land q.mask) with
        | Some x -> `Task x
        | None -> `Empty
      else begin
        Atomic.set q.head h;
        `Abort
      end
    end
  in
  Mutex.unlock q.lock;
  r
