type model =
  | Abstract
  | Realistic of { coalesce : bool }
  | Pso

(* The buffer proper is a ring of [capacity] slots in two int arrays: entry
   [k] (0 = oldest) sits in slot [(head + k) mod capacity]. B is two ints,
   [eg_addr = -1] meaning empty. No operation on the buffer's state
   allocates. *)
type t = {
  capacity : int;
  model : model;
  addrs : int array;
  vals : int array;
  mutable head : int;
  mutable len : int;
  mutable eg_addr : int;
  mutable eg_val : int;
}

let no_addr = -1

let create ~capacity ~model =
  if capacity < 1 then invalid_arg "Store_buffer.create: capacity must be >= 1";
  {
    capacity;
    model;
    addrs = Array.make capacity 0;
    vals = Array.make capacity 0;
    head = 0;
    len = 0;
    eg_addr = no_addr;
    eg_val = 0;
  }

let capacity t = t.capacity
let model t = t.model
let entries t = t.len
let can_flush_egress t = t.eg_addr <> no_addr
let pending t = t.len + if can_flush_egress t then 1 else 0
let is_empty t = t.len = 0 && not (can_flush_egress t)
let is_full t = t.len >= t.capacity

(* Ring slot of entry [k]. *)
let[@inline] slot t k =
  let s = t.head + k in
  if s >= t.capacity then s - t.capacity else s

let push t a v =
  if is_full t then invalid_arg "Store_buffer.push: buffer full";
  let s = slot t t.len in
  t.addrs.(s) <- Addr.to_index a;
  t.vals.(s) <- v;
  t.len <- t.len + 1

(* Newest-first scan from entry [k]; slot [capacity] names B. *)
let rec newest_slot t a k =
  if k < 0 then if t.eg_addr = a then t.capacity else -1
  else
    let s = slot t k in
    if t.addrs.(s) = a then s else newest_slot t a (k - 1)

let forward_slot t a = newest_slot t (Addr.to_index a) (t.len - 1)

let slot_value t s = if s = t.capacity then t.eg_val else t.vals.(s)

let lookup t a =
  let s = forward_slot t a in
  if s < 0 then None else Some (slot_value t s)

type drain_result =
  | Wrote of Addr.t * int
  | Staged of Addr.t * int
  | Coalesced of Addr.t * int

let oldest t =
  if t.len = 0 then None
  else Some (Addr.of_index t.addrs.(t.head), t.vals.(t.head))

let can_drain t =
  t.len > 0
  &&
  match t.model with
  | Abstract | Pso -> true
  | Realistic { coalesce } ->
      (not (can_flush_egress t)) || (coalesce && t.eg_addr = t.addrs.(t.head))

let pop t =
  let h = t.head in
  t.head <- (if h + 1 = t.capacity then 0 else h + 1);
  t.len <- t.len - 1;
  h

let drain t mem =
  if not (can_drain t) then invalid_arg "Store_buffer.drain: not enabled";
  let s = pop t in
  let a = Addr.of_index t.addrs.(s) and v = t.vals.(s) in
  match t.model with
  | Abstract | Pso ->
      Memory.set mem a v;
      Wrote (a, v)
  | Realistic _ ->
      let coalesced = can_flush_egress t in
      t.eg_addr <- Addr.to_index a;
      t.eg_val <- v;
      if coalesced then Coalesced (a, v) else Staged (a, v)

(* Position (0 = oldest) of the oldest entry for address index [a] from
   entry [k] on, or -1. *)
let rec oldest_entry_of t a k =
  if k >= t.len then -1
  else if t.addrs.(slot t k) = a then k
  else oldest_entry_of t a (k + 1)

(* PSO: one drain lane per address with pending stores; lanes are address
   indices, so they are stable across replays of a schedule. *)
let drain_lanes t =
  match t.model with
  | Abstract | Realistic _ -> if can_drain t then [ 0 ] else []
  | Pso ->
      List.init t.len (fun k -> t.addrs.(slot t k)) |> List.sort_uniq compare

let drain_lane t lane mem =
  match t.model with
  | Abstract | Realistic _ ->
      if lane <> 0 then invalid_arg "Store_buffer.drain_lane: bad lane";
      drain t mem
  | Pso ->
      (* remove the oldest entry whose address is [lane], closing the gap
         by moving the younger entries one place toward the head *)
      let k = oldest_entry_of t lane 0 in
      if k < 0 then
        invalid_arg "Store_buffer.drain_lane: lane has no pending store";
      let v = t.vals.(slot t k) in
      for j = k to t.len - 2 do
        let dst = slot t j and src = slot t (j + 1) in
        t.addrs.(dst) <- t.addrs.(src);
        t.vals.(dst) <- t.vals.(src)
      done;
      t.len <- t.len - 1;
      let a = Addr.of_index lane in
      Memory.set mem a v;
      Wrote (a, v)

let flush_egress t mem =
  if not (can_flush_egress t) then
    invalid_arg "Store_buffer.flush_egress: B is empty";
  let a = Addr.of_index t.eg_addr and v = t.eg_val in
  t.eg_addr <- no_addr;
  Memory.set mem a v;
  (a, v)

let egress_entry t =
  if can_flush_egress t then Some (Addr.of_index t.eg_addr, t.eg_val) else None

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.eg_addr <- no_addr

let set_egress t = function
  | None -> t.eg_addr <- no_addr
  | Some (a, v) ->
      t.eg_addr <- Addr.to_index a;
      t.eg_val <- v

let buffered t =
  List.init t.len (fun k ->
      let s = slot t k in
      (Addr.of_index t.addrs.(s), t.vals.(s)))

let iter_entries t f =
  for k = 0 to t.len - 1 do
    let s = slot t k in
    f (Addr.of_index t.addrs.(s)) t.vals.(s)
  done

let to_list t =
  let tail = buffered t in
  match egress_entry t with None -> tail | Some e -> e :: tail

let pp mem ppf t =
  let pp_entry ppf (a, v) =
    Format.fprintf ppf "%s:=%d" (Memory.name mem a) v
  in
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_entry)
    (to_list t)
