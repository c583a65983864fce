(* Rotating-window time series of histograms.

   A [Windowed.t] slices time into fixed-width windows (ticks in the
   simulator, nanoseconds native) and keeps the last [slots] of them in a
   ring of {!Histogram.t}s. Window [w = now / width] lands in slot
   [w mod slots]; arriving at a window the slot has not seen yet evicts
   whatever older window lived there. Writers observe with a monotone
   clock, so a slot only ever moves to larger window indices. *)

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
     sample is stale (a non-monotone writer) and is dropped rather than
     polluting the newer window. *)
  if t.starts.(s) = w then Histogram.observe t.hists.(s) v

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
