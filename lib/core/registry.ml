type impl = (module Queue_intf.S)

let all : impl list =
  [
    (module The_queue);
    (module Chase_lev);
    (module Chase_lev_dyn);
    (module Abp);
    (module Ff_the);
    (module Ff_cl);
    (module Thep);
    (module Thep_sep);
    (module Idempotent_lifo);
    (module Idempotent_fifo);
  ]

let names = List.map (fun (module Q : Queue_intf.S) -> Q.name) all

let find name =
  List.find (fun (module Q : Queue_intf.S) -> String.equal Q.name name) all

(* Telemetry shim: forward every operation and account its outcome against
   the machine's counter sink, when one is attached. Put around queues
   created through {!create} (the runtime and harness path); the
   litmus/exhaustive checks instantiate the raw modules and stay
   unobserved. With no sink attached each operation pays one option
   test. *)
module Counted (Q : Queue_intf.S) :
  Queue_intf.S with type t = Tso.Machine.t * Q.t = struct
  type t = Tso.Machine.t * Q.t

  let name = Q.name
  let may_abort = Q.may_abort
  let may_duplicate = Q.may_duplicate
  let worker_fence_free = Q.worker_fence_free
  let create m params = (m, Q.create m params)
  let preload (_, q) items = Q.preload q items

  let put (m, q) task =
    Q.put q task;
    match Tso.Machine.sink m with
    | None -> ()
    | Some s -> s.Telemetry.Sink.puts <- s.Telemetry.Sink.puts + 1

  let take (m, q) =
    let r = Q.take q in
    (match Tso.Machine.sink m with
    | None -> ()
    | Some s -> (
        match r with
        | `Task _ -> s.Telemetry.Sink.takes <- s.Telemetry.Sink.takes + 1
        | `Empty ->
            s.Telemetry.Sink.take_empties <-
              s.Telemetry.Sink.take_empties + 1));
    r

  let steal (m, q) =
    let r = Q.steal q in
    (match Tso.Machine.sink m with
    | None -> ()
    | Some s -> (
        s.Telemetry.Sink.steal_attempts <- s.Telemetry.Sink.steal_attempts + 1;
        match r with
        | `Task _ -> s.Telemetry.Sink.steals <- s.Telemetry.Sink.steals + 1
        | `Empty ->
            s.Telemetry.Sink.steal_empties <- s.Telemetry.Sink.steal_empties + 1
        | `Abort ->
            s.Telemetry.Sink.steal_aborts <-
              s.Telemetry.Sink.steal_aborts + 1));
    r
end

let create (module Q : Queue_intf.S) m params =
  let module C = Counted (Q) in
  Queue_intf.Packed ((module C), C.create m params)

let strict (module Q : Queue_intf.S) = (not Q.may_abort) && not Q.may_duplicate
