(* The explorer's visited-state table. It lives for one search: a key is
   a fingerprint this build computed, so it means nothing to another
   build, and nothing outlives the search that made it.

   One domain: a table belongs to the one search that created it, so it
   has no locks and plain counters. *)

(* {2 Budgets}

   A slot packs both remaining budgets of a visit into one int, each in a
   [budget_bits]-bit field. [max_int] (no bound) is the field's all-ones
   code, above every bounded budget, so comparing codes compares budgets.
   A budget the field cannot hold is refused, never clamped: a clamped
   budget would let a smaller recorded one cover it. *)
let budget_bits = (Sys.int_size - 1) / 2
let unbounded = (1 lsl budget_bits) - 1
let holds b = b = max_int || (b >= 0 && b < unbounded)
let[@inline] code b = if b = max_int then unbounded else b

(* {2 The table}

   Open addressing with linear probing over one flat int array: slot [i]
   is the fingerprint at [2i] and the packed budgets at [2i + 1], or [-1]
   there when the slot is empty. A fingerprint's Pareto frontier of k
   pairs takes k slots of the probe run that starts at its home slot, so a
   lookup scans that run up to its first empty slot. The home slot is the
   top bits of a multiplicative mix: an FNV fingerprint's low bits depend
   only on the low bits of what it hashed. The loops below are top-level
   functions over ints, so a lookup allocates nothing; only growing does. *)

let golden = 0x278DDE6E5FD29F05
let min_bits = 12

type t = {
  mutable slots : int array;
  mutable bits : int;  (** log2 of the slot count *)
  mutable used : int;  (** occupied slots *)
  mutable lookups : int;
  mutable hits : int;
}

let create () =
  {
    slots = Array.make (2 lsl min_bits) (-1);
    bits = min_bits;
    used = 0;
    lookups = 0;
    hits = 0;
  }

let[@inline] home bits fp = (fp * golden) lsr (Sys.int_size - bits)

(* Scan the probe run of [fp] from slot [i] ([d], [p] are budget codes):
   [-1] when a recorded pair covers the query; else the slot the query's
   pair goes in, which is the first recorded pair it covers ([dom], a pair
   the frontier drops) or else the empty slot that ends the run. Indices
   are masked, so the unchecked reads stay in bounds. *)
let rec scan slots mask fp d p i dom =
  let v = Array.unsafe_get slots ((2 * i) + 1) in
  if v < 0 then if dom >= 0 then dom else i
  else if Array.unsafe_get slots (2 * i) <> fp then
    scan slots mask fp d p ((i + 1) land mask) dom
  else
    let vd = v lsr budget_bits and vp = v land unbounded in
    if vd >= d && vp >= p then -1
    else
      scan slots mask fp d p
        ((i + 1) land mask)
        (if dom < 0 && vd <= d && vp <= p then i else dom)

(* The first empty slot of the run from [i]. *)
let rec free slots mask i =
  if Array.unsafe_get slots ((2 * i) + 1) < 0 then i
  else free slots mask ((i + 1) land mask)

(* Empty slot [i], then close the gap (backward-shift deletion): each later
   entry [j] of the run whose home does not lie cyclically in (i, j] moves
   back into the gap, so every entry stays reachable from its home without
   crossing an empty slot. *)
let rec delete t i j =
  let slots = t.slots and mask = (1 lsl t.bits) - 1 in
  let j = (j + 1) land mask in
  let v = slots.((2 * j) + 1) in
  if v < 0 then slots.((2 * i) + 1) <- -1
  else
    let h = home t.bits slots.(2 * j) in
    if if i <= j then i < h && h <= j else i < h || h <= j then delete t i j
    else begin
      slots.(2 * i) <- slots.(2 * j);
      slots.((2 * i) + 1) <- v;
      delete t j j
    end

(* Drop the other pairs of [fp] that the new pair [packed] (budget codes
   [d], [p]) covers, scanning the rest of the run from slot [i]. *)
let rec drop_covered t fp packed d p i =
  let slots = t.slots and mask = (1 lsl t.bits) - 1 in
  let v = slots.((2 * i) + 1) in
  if v >= 0 then
    if
      slots.(2 * i) = fp && v <> packed
      && v lsr budget_bits <= d
      && v land unbounded <= p
    then begin
      delete t i i;
      t.used <- t.used - 1;
      drop_covered t fp packed d p i
    end
    else drop_covered t fp packed d p ((i + 1) land mask)

let grow t =
  let old = t.slots in
  let bits = t.bits + 1 in
  let slots = Array.make (2 lsl bits) (-1) in
  let mask = (1 lsl bits) - 1 in
  for i = 0 to (Array.length old / 2) - 1 do
    let v = old.((2 * i) + 1) in
    if v >= 0 then begin
      let fp = old.(2 * i) in
      let j = free slots mask (home bits fp) in
      slots.(2 * j) <- fp;
      slots.((2 * j) + 1) <- v
    end
  done;
  t.slots <- slots;
  t.bits <- bits

(* Membership, or insertion into the frontier of [fp]: [true] iff a
   recorded pair covers ([depth_rem], [preempt_rem]). *)
let check t fp ~depth_rem ~preempt_rem =
  let d = code depth_rem and p = code preempt_rem in
  let mask = (1 lsl t.bits) - 1 in
  let s = scan t.slots mask fp d p (home t.bits fp) (-1) in
  s < 0
  || begin
       let packed = (d lsl budget_bits) lor p in
       if t.slots.((2 * s) + 1) >= 0 then begin
         (* [s] holds a pair the new one covers: take its place *)
         t.slots.((2 * s) + 1) <- packed;
         drop_covered t fp packed d p ((s + 1) land mask)
       end
       else begin
         let s =
           if 4 * (t.used + 1) <= 3 lsl t.bits then s
           else begin
             grow t;
             free t.slots ((1 lsl t.bits) - 1) (home t.bits fp)
           end
         in
         t.slots.(2 * s) <- fp;
         t.slots.((2 * s) + 1) <- packed;
         t.used <- t.used + 1
       end;
       false
     end

let seen t fp ~depth_rem ~preempt_rem =
  if not (holds depth_rem && holds preempt_rem) then
    invalid_arg
      (Printf.sprintf
         "Memo_store.seen: budgets (%d, %d) out of range: each must be \
          max_int or in [0, %d)"
         depth_rem preempt_rem unbounded);
  t.lookups <- t.lookups + 1;
  let hit = check t fp ~depth_rem ~preempt_rem in
  if hit then t.hits <- t.hits + 1;
  hit

let lookups t = t.lookups
let hits t = t.hits
