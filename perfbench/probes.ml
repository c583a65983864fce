(* Pinned single-operation probes, run at the end of every traced run.
   Each probe loops one public operation of its layer on a fixed input and
   reports the median ns per call over [trials] trials. They are
   independent of the workload, so every traced run measures them. *)

let trials = 5

let ns_per_call ~iters f =
  let one () =
    let (), dt = Common.timed (fun () -> f iters) in
    dt *. 1e9 /. float_of_int iters
  in
  Perfbench.Quantile.median (List.init trials (fun _ -> one ()))

(* A single-worker THEP machine stopped 200 round-robin steps into its
   run: 64 puts, then takes that each store the task into a scratch cell. *)
let probe_machine () =
  let m = Tso.Machine.create (Tso.Machine.abstract_config ~sb_capacity:8) in
  let params =
    { Ws_core.Queue_intf.capacity = 128; delta = 4; worker_fence = false; tag = "q" }
  in
  let q = Ws_core.Registry.create (Ws_core.Registry.find "thep") m params in
  let scratch = Tso.Memory.alloc (Tso.Machine.memory m) ~name:"scratch" ~init:0 in
  let _ =
    Tso.Machine.spawn m ~name:"w" (fun () ->
        for i = 1 to 64 do
          Ws_core.Queue_intf.put q i
        done;
        let rec drain () =
          match Ws_core.Queue_intf.take q with
          | `Task t ->
              Tso.Program.store scratch t;
              drain ()
          | `Empty -> ()
        in
        drain ())
  in
  (match Tso.Sched.run ~max_steps:200 m (Tso.Sched.round_robin ()) with
  | Tso.Sched.Max_steps -> ()
  | _ -> failwith "fingerprint probe machine quiesced before 200 steps");
  m

(* Tso.Machine.fingerprint: the memo key on the explorer's hot path. *)
let fingerprint_ns () =
  let m = probe_machine () in
  let acc = ref 0 in
  let r =
    ns_per_call ~iters:200_000 (fun n ->
        for _ = 1 to n do
          acc := !acc lxor Tso.Machine.fingerprint m
        done)
  in
  ignore (Sys.opaque_identity !acc);
  r

(* Tso.Machine.restore_into beyond the instance build both paths share:
   build+restore minus build-only, per call. *)
let snapshot_restore_ns () =
  let mk =
    Tso.Explore.Internal.recording_mk
      (Ws_harness.Scenarios.instance Ws_harness.Scenarios.default_spec)
  in
  let inst = mk () in
  (match
     Tso.Sched.run ~max_steps:40 inst.Tso.Explore.machine (Tso.Sched.round_robin ())
   with
  | Tso.Sched.Max_steps -> ()
  | _ -> failwith "snapshot probe scenario quiesced before 40 steps");
  let snap = Tso.Machine.snapshot_create () in
  Tso.Machine.snapshot inst.Tso.Explore.machine snap;
  let iters = 20_000 in
  let build =
    ns_per_call ~iters (fun n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (mk ()))
        done)
  in
  let both =
    ns_per_call ~iters (fun n ->
        for _ = 1 to n do
          Tso.Machine.restore_into snap (mk ()).Tso.Explore.machine
        done)
  in
  Float.max 0.0 (both -. build)

(* Uncontended Ws_native.Chase_lev push / pop / steal, one domain: each
   trial times a loop of pushes, the pops that empty the deque, a second
   loop of pushes, and the steals that empty it again. *)
let deque_ns () =
  let n = 1 lsl 18 in
  let d = Ws_native.Chase_lev.create ~capacity:n () in
  let per_op f =
    let (), dt = Common.timed f in
    dt *. 1e9 /. float_of_int n
  in
  let push () =
    for i = 1 to n do
      Ws_native.Chase_lev.push d i
    done
  in
  let drain take () =
    for _ = 1 to n do
      ignore (Sys.opaque_identity (take d))
    done
  in
  let one () =
    let p1 = per_op push in
    let pop = per_op (drain Ws_native.Chase_lev.pop) in
    let p2 = per_op push in
    let steal = per_op (drain Ws_native.Chase_lev.steal) in
    (Float.min p1 p2, pop, steal)
  in
  let runs = List.init trials (fun _ -> one ()) in
  let med f = Perfbench.Quantile.median (List.map f runs) in
  (med (fun (p, _, _) -> p), med (fun (_, p, _) -> p), med (fun (_, _, s) -> s))

(* Telemetry.Flight_recorder.record on the single-writer path. *)
let flight_event_ns () =
  let r = Telemetry.Flight_recorder.create ~capacity:4096 ~slots:1 () in
  let v =
    ns_per_call ~iters:1_000_000 (fun n ->
        for i = 1 to n do
          Telemetry.Flight_recorder.record r ~slot:0 Telemetry.Flight_recorder.Spawn
            ~task:i ~arg:(i - 1)
        done)
  in
  ignore (Sys.opaque_identity (Telemetry.Flight_recorder.wrote r ~slot:0));
  v

(* Telemetry.Windowed.observe with a rotating ring. *)
let windowed_record_ns () =
  let w = Telemetry.Windowed.create ~slots:16 ~width:1024 () in
  let v =
    ns_per_call ~iters:1_000_000 (fun n ->
        for i = 1 to n do
          Telemetry.Windowed.observe w ~now:(i * 4) (i land 4095)
        done)
  in
  ignore (Sys.opaque_identity (Telemetry.Windowed.latest w));
  v

let all () =
  let push, pop, steal = deque_ns () in
  [
    ("tso.fingerprint_ns", fingerprint_ns ());
    ("tso.snapshot_restore_ns", snapshot_restore_ns ());
    ("native_deque.push_ns", push);
    ("native_deque.pop_ns", pop);
    ("native_deque.steal_ns", steal);
    ("telemetry.flight_event_ns", flight_event_ns ());
    ("telemetry.windowed_record_ns", windowed_record_ns ());
  ]
