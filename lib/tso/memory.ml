(* One entry per allocation, in address order. A scalar's [len] is 0 so
   that it stays distinguishable from a one-element array ([x] vs [x[0]]);
   it still covers exactly one cell. *)
type region = {
  base : int;
  len : int;
  name : string;
}

type t = {
  mutable cells : int array;
  mutable used : int;
  mutable regions : region array;
  mutable n_regions : int;
}

let no_region = { base = 0; len = 0; name = "" }

let create ?(cells = 64) () =
  {
    cells = Array.make (max 1 cells) 0;
    used = 0;
    regions = Array.make 8 no_region;
    n_regions = 0;
  }

let ensure_capacity t n =
  if n > Array.length t.cells then begin
    let cells = Array.make (max n (2 * Array.length t.cells)) 0 in
    Array.blit t.cells 0 cells 0 t.used;
    t.cells <- cells
  end

let add_region t r =
  let n = t.n_regions in
  if n = Array.length t.regions then begin
    let grown = Array.make (2 * n) no_region in
    Array.blit t.regions 0 grown 0 n;
    t.regions <- grown
  end;
  t.regions.(n) <- r;
  t.n_regions <- n + 1

let alloc t ~name ~init =
  ensure_capacity t (t.used + 1);
  let a = t.used in
  t.cells.(a) <- init;
  add_region t { base = a; len = 0; name };
  t.used <- t.used + 1;
  Addr.of_index a

let alloc_array t ~name ~len ~init =
  assert (len > 0);
  ensure_capacity t (t.used + len);
  let base = t.used in
  Array.fill t.cells base len init;
  add_region t { base; len; name };
  t.used <- t.used + len;
  Addr.of_index base

let check t a =
  let i = Addr.to_index a in
  if i < 0 || i >= t.used then
    invalid_arg (Printf.sprintf "Memory: address %d out of bounds (size %d)" i t.used);
  i

let get t a = t.cells.(check t a)
let set t a v = t.cells.(check t a) <- v
let size t = t.used

(* The region holding cell [i]: the last one whose base is <= i. *)
let region_of t i =
  let lo = ref 0 and hi = ref (t.n_regions - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.regions.(mid).base <= i then lo := mid else hi := mid - 1
  done;
  t.regions.(!lo)

let name_of_index t i =
  let r = region_of t i in
  if r.len = 0 then r.name else Printf.sprintf "%s[%d]" r.name (i - r.base)

let name t a = name_of_index t (check t a)
let snapshot t = Array.sub t.cells 0 t.used

(* Typed loops, not [Array.blit]: OCaml 5.1's [caml_array_blit] pays
   [caml_modify] per element whenever the destination is outside the minor
   heap, as the explorer's long-lived scratch always is, while an [int
   array] store in a loop has no write barrier. *)
let blit_to t dst =
  if Array.length dst < t.used then
    invalid_arg "Memory.blit_to: destination too small";
  let cells = t.cells in
  for i = 0 to t.used - 1 do
    Array.unsafe_set dst i (Array.unsafe_get cells i)
  done

let restore_from t src ~len =
  if len <> t.used then invalid_arg "Memory.restore_from: size mismatch";
  if Array.length src < len then
    invalid_arg "Memory.restore_from: source too small";
  let cells = t.cells in
  for i = 0 to len - 1 do
    Array.unsafe_set cells i (Array.unsafe_get src i)
  done

let[@inline] cell t i =
  if i < 0 || i >= t.used then invalid_arg "Memory.cell: index out of bounds";
  t.cells.(i)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for i = 0 to t.used - 1 do
    Format.fprintf ppf "%s = %d@," (name_of_index t i) t.cells.(i)
  done;
  Format.fprintf ppf "@]"
