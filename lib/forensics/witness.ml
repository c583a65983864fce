open Tso

type pending_store = {
  addr : string;
  addr_index : int;
  value : int;
}

type t = {
  step : int;
  tid : int;
  thread : string;
  instr : string;
  value : int;
  forwarded : bool;
  pending : pending_store list;
  depth : int;
}

type replay = {
  witnesses : t list;
  max_depth : int;
  timeline : string;
  events : (int * int * string) list;
  occupancy : (int * int * int) list;
  threads : string list;
  verdict : (unit, string) Stdlib.result;
}

let replay_on ?sink inst choices =
  let m = inst.Explore.machine in
  let mem = Machine.memory m in
  (* The trace provides the timeline and the event list; a second listener
     samples per-thread buffer occupancy after every event. Both listeners
     see events in the same order, so step numbers align. *)
  let trace = Trace.attach m in
  let occ_rev = ref [] in
  let evno = ref 0 in
  Machine.on_event m (fun ev ->
      incr evno;
      let tid =
        match ev with
        | Machine.Ev_exec { tid; _ }
        | Machine.Ev_drain { tid; _ }
        | Machine.Ev_flush { tid; _ }
        | Machine.Ev_done tid ->
            tid
      in
      occ_rev := (!evno, tid, Machine.buffered_stores m tid) :: !occ_rev);
  let witnesses_rev = ref [] in
  (* Capture just before the transition fires: a load's witness is the
     buffer contents at commit time, and a load leaves the buffer
     untouched, so pre-apply and post-apply states agree — but the pending
     instruction (and its forwarded value) only exists pre-apply. *)
  let consider tr =
    match tr with
    | Machine.Step tid -> (
        match Machine.pending_load m tid with
        | Some (a, v, forwarded) -> (
            match Machine.buffered_entries m tid with
            | [] -> ()
            | pend ->
                let w =
                  {
                    step = !evno + 1;  (* the Ev_exec this load emits *)
                    tid;
                    thread = Machine.thread_name m tid;
                    instr = Printf.sprintf "load %s" (Memory.name mem a);
                    value = v;
                    forwarded;
                    pending =
                      List.map
                        (fun (pa, pv) ->
                          {
                            addr = Memory.name mem pa;
                            addr_index = Addr.to_index pa;
                            value = pv;
                          })
                        pend;
                    depth = List.length pend;
                  }
                in
                witnesses_rev := w :: !witnesses_rev;
                (match sink with
                | Some s ->
                    s.Telemetry.Sink.witness_events <-
                      s.Telemetry.Sink.witness_events + 1
                | None -> ()))
        | None -> ())
    | Machine.Drain _ | Machine.Flush _ -> ()
  in
  (* Same suffix budget rationale as {!Shrink.reproduces}: the input is
     normally a minimized schedule that already quiesced under the oracle,
     but a caller-supplied sequence gets the same livelock protection. *)
  let verdict =
    Explore.replay_on
      ~max_steps:((4 * List.length choices) + 1_000)
      ~before:consider inst choices
  in
  let witnesses = List.rev !witnesses_rev in
  {
    witnesses;
    max_depth = List.fold_left (fun acc w -> max acc w.depth) 0 witnesses;
    timeline = Trace.render trace;
    events = Trace.entries trace;
    occupancy = List.rev !occ_rev;
    threads =
      List.init (Machine.thread_count m) (fun tid -> Machine.thread_name m tid);
    verdict;
  }

(* The instance is built here, so it is released here on every exit: a
   schedule that raises part-way leaves threads paused. *)
let replay ?sink ~mk choices =
  let inst = mk () in
  Fun.protect
    ~finally:(fun () -> Machine.release inst.Explore.machine)
    (fun () -> replay_on ?sink inst choices)
