(* Deterministic fan-out over OCaml 5 domains.

   Every figure-regeneration experiment is a grid of independent simulator
   runs (workload × variant × seed), each fully self-contained: a fresh
   machine, its own RNG state, its own timing clock. [map] claims grid
   points off a shared atomic cursor and writes results into a slot per
   point, so the caller folds them back in grid order and the rendered
   output is byte-identical to a sequential run — parallelism changes wall
   time only. *)

let map ?(jobs = 1) ?on_progress f xs =
  let n = List.length xs in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then
    let done_ = ref 0 in
    List.map
      (fun x ->
        let v = f x in
        incr done_;
        (match on_progress with
        | None -> ()
        | Some g -> g ~done_count:!done_ ~total:n);
        v)
      xs
  else begin
    let inputs = Array.of_list xs in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    (* Progress is reported only from the calling domain (the callback need
       not be thread-safe); the completion counter it reads is global, so
       the report covers all domains' work. *)
    let report =
      match on_progress with
      | None -> fun () -> ()
      | Some g -> fun () -> g ~done_count:(Atomic.get completed) ~total:n
    in
    let worker ~main () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (* Capture failures per point and re-raise the first one in grid
             order below, matching the failure a sequential run would hit
             first. *)
          (results.(i) <-
             (match f inputs.(i) with
             | v -> Some (Ok v)
             | exception e -> Some (Error e)));
          Atomic.incr completed;
          if main then report ();
          loop ()
        end
      in
      loop ()
    in
    let domains =
      List.init (jobs - 1) (fun _ -> Domain.spawn (worker ~main:false))
    in
    worker ~main:true ();
    List.iter Domain.join domains;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false)
         results)
  end

(* [map] with a sharded measurement plane: each domain gets its own
   private Sink shard to accumulate into (zero cross-domain counter
   writes while the grid runs), and the shards are batch-merged into
   [into] at the join, the sharded plane's only quiescence point. Sink
   merging is field-wise addition, so the merged totals are
   identical to what a sequential run accumulating straight into [into]
   would produce, whatever the grid-point partition. *)
let map_sharded ?(jobs = 1) ?on_progress ~into f xs =
  let jobs = max 1 (min jobs (List.length xs)) in
  let shards = Telemetry.Shards.create ~n:jobs in
  let sinks = Telemetry.Shards.sinks shards in
  if jobs = 1 then begin
    let r = map ?on_progress (f sinks.(0)) xs in
    Telemetry.Shards.merge ~into shards;
    r
  end
  else begin
    let n = List.length xs in
    let inputs = Array.of_list xs in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let report =
      match on_progress with
      | None -> fun () -> ()
      | Some g -> fun () -> g ~done_count:(Atomic.get completed) ~total:n
    in
    let worker ~main sink () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
             (match f sink inputs.(i) with
             | v -> Some (Ok v)
             | exception e -> Some (Error e)));
          Atomic.incr completed;
          if main then report ();
          loop ()
        end
      in
      loop ()
    in
    let domains =
      List.init (jobs - 1) (fun j ->
          Domain.spawn (worker ~main:false sinks.(j + 1)))
    in
    worker ~main:true sinks.(0) ();
    List.iter Domain.join domains;
    Telemetry.Shards.merge ~into shards;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false)
         results)
  end

(* Shared status-line plumbing for the figure grids: a reporter suitable
   for [map]'s [on_progress], plus the finisher that terminates the stderr
   line. Stdout is never touched. *)
let grid_progress ~label =
  let rep = Telemetry.Progress.create ~label () in
  let on_progress ~done_count ~total =
    Telemetry.Progress.sample rep ~count:done_count (fun ~rate ->
        Printf.sprintf "%d/%d runs (%.1f/s)" done_count total rate)
  in
  (on_progress, fun () -> Telemetry.Progress.finish rep)
