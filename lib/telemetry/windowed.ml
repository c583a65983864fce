(* Rotating-window time series of histograms.

   A [Windowed.t] slices time into fixed-width windows (ticks in the
   simulator, nanoseconds native) and keeps the last [slots] of them in a
   ring of {!Histogram.t}s. Window [w = now / width] lands in slot
   [w mod slots]; arriving at a window the slot has not seen yet evicts
   whatever older window lived there. Writers observe with a monotone
   clock, so a slot only ever moves to larger window indices.

   Merging follows the same drain-at-quiescence discipline as {!Shards},
   and the claim rule — a slot is owned by the largest window index that
   hashes to it; equal indices add bucket-wise, smaller ones are stale and
   dropped — makes the merge associative and commutative. Merging N
   per-worker rings fed by a partitioned observation stream therefore
   yields byte-for-byte (in {!to_json} form) the ring a single writer
   would have built from the whole stream: each slot ends up holding the
   globally-largest window index for that residue class, with the full
   bucket sums of that window. *)

type t = {
  width : int;
  hists : Histogram.t array;
  starts : int array; (* slot -> absolute window index, -1 = empty *)
}

let create ?(slots = 16) ~width () =
  if width <= 0 then invalid_arg "Windowed.create: width must be positive";
  if slots <= 0 then invalid_arg "Windowed.create: slots must be positive";
  {
    width;
    hists = Array.init slots (fun _ -> Histogram.create ());
    starts = Array.make slots (-1);
  }

let slots t = Array.length t.hists

let observe t ~now v =
  let now = if now < 0 then 0 else now in
  let w = now / t.width in
  let s = w mod Array.length t.hists in
  if t.starts.(s) < w then begin
    Histogram.reset t.hists.(s);
    t.starts.(s) <- w
  end;
  (* [starts.(s) > w] means a newer window already claimed the slot; the
     sample is stale (a lagging merge source, never a monotone writer) and
     is dropped rather than polluting the newer window. *)
  if t.starts.(s) = w then Histogram.observe t.hists.(s) v

let reset t =
  Array.iter Histogram.reset t.hists;
  Array.fill t.starts 0 (Array.length t.starts) (-1)

let compatible a b = a.width = b.width && Array.length a.hists = Array.length b.hists

let merge_slot ~into s w src_hist =
  if into.starts.(s) < w then begin
    Histogram.reset into.hists.(s);
    into.starts.(s) <- w
  end;
  if into.starts.(s) = w then Histogram.merge ~into:into.hists.(s) src_hist

(* Drain-on-merge, like {!Shards.merge}: fold every occupied slot of [src]
   into [into], then reset [src], so a second merge adds nothing. *)
let merge ~into src =
  if not (compatible into src) then
    invalid_arg "Windowed.merge: width/slots mismatch";
  for s = 0 to Array.length src.hists - 1 do
    if src.starts.(s) >= 0 then merge_slot ~into s src.starts.(s) src.hists.(s)
  done;
  reset src

(* Non-draining deep copy, for live scrapers that must not disturb the
   owner's ring. Fields are single words written by one domain, so a
   concurrent snapshot is never torn per-field; cross-field consistency
   only holds at quiescence (same model as {!Shards}). *)
let snapshot src =
  let t = create ~slots:(Array.length src.hists) ~width:src.width () in
  for s = 0 to Array.length src.hists - 1 do
    let w = src.starts.(s) in
    if w >= 0 then begin
      t.starts.(s) <- w;
      Histogram.merge ~into:t.hists.(s) src.hists.(s)
    end
  done;
  t

(* Occupied windows as [(index, histogram)], oldest first. The histograms
   are the live ring entries — treat them as read-only views. *)
let windows t =
  let acc = ref [] in
  for s = 0 to Array.length t.hists - 1 do
    if t.starts.(s) >= 0 then acc := (t.starts.(s), t.hists.(s)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> compare a b) !acc

let latest t = Array.fold_left max (-1) t.starts

let to_json t =
  Json.Obj
    [
      ("width", Json.Int t.width);
      ("slots", Json.Int (Array.length t.hists));
      ( "windows",
        Json.List
          (List.map
             (fun (w, h) ->
               Json.Obj [ ("window", Json.Int w); ("hist", Histogram.to_json h) ])
             (windows t)) );
    ]
