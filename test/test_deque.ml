(* Tests for the seven work-stealing queue algorithms: sequential semantics
   on the simulated machine, adversarial random concurrency, bounded
   exhaustive model checking — and, crucially, that deliberately broken
   variants (no fence / too-small delta) are caught. *)

open Tso

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* Run a single-threaded program on a fresh machine with the given queue and
   return the value computed by the program. Uses a round-robin scheduler:
   with one thread the schedule is irrelevant. *)
let solo ?(sb_capacity = 4) ?(delta = 1) ?(capacity = 64) qname body =
  let m = Machine.create (Machine.abstract_config ~sb_capacity) in
  let params =
    { Ws_core.Queue_intf.capacity; delta; worker_fence = true; tag = "q" }
  in
  let q = Ws_core.Registry.create (Ws_core.Registry.find qname) m params in
  let result = ref [] in
  let _ = Machine.spawn m ~name:"solo" (fun () -> result := body q) in
  (match Sched.run m (Sched.round_robin ()) with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "solo run did not quiesce");
  !result

let take_all q =
  let rec go acc =
    match Ws_core.Queue_intf.take q with
    | `Task t -> go (t :: acc)
    | `Empty -> List.rev acc
  in
  go []

let strict_queues =
  [ "the"; "chase-lev"; "chase-lev-dyn"; "abp"; "ff-the"; "ff-cl"; "thep"; "thep-sep" ]
let all_queues = Ws_core.Registry.names

(* both THEP flavours block a lone thief on a nearly-empty queue (§6) *)
let is_thep qname = qname = "thep" || qname = "thep-sep" 

(* ------------------------------------------------------------------ *)
(* Sequential semantics                                                *)
(* ------------------------------------------------------------------ *)

let test_lifo_take qname () =
  let got =
    solo qname (fun q ->
        List.iter (Ws_core.Queue_intf.put q) [ 1; 2; 3; 4; 5 ];
        take_all q)
  in
  Alcotest.(check (list int)) "take is LIFO from the tail" [ 5; 4; 3; 2; 1 ] got

let test_fifo_steal qname () =
  (* THEP is excluded here: a lone thief on a queue within delta of empty
     blocks for the worker's echo — the §6 tightness violation — which
     test_thep_solo_steal_blocks asserts separately. The idempotent LIFO is
     a stack: its thieves pop from the top. *)
  let budget = if is_thep qname then 4 else 1000 in
  let got =
    solo qname ~delta:1 (fun q ->
        List.iter (Ws_core.Queue_intf.put q) [ 1; 2; 3; 4; 5 ];
        let rec go acc budget =
          if budget = 0 then List.rev acc
          else
            match Ws_core.Queue_intf.steal q with
            | `Task t -> go (t :: acc) (budget - 1)
            | `Empty | `Abort -> List.rev acc
        in
        go [] budget)
  in
  let expected_order =
    if qname = "idempotent-lifo" then [ 5; 4; 3; 2; 1 ] else [ 1; 2; 3; 4; 5 ]
  in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && is_prefix a' b'
    | _ :: _, [] -> false
  in
  checkb "steal order (FIFO head, or stack top for the LIFO queue)" true
    (is_prefix got expected_order);
  let (module Q : Ws_core.Queue_intf.S) = Ws_core.Registry.find qname in
  if (not Q.may_abort) && not (is_thep qname) then
    Alcotest.(check (list int)) "non-aborting queues drain fully" expected_order got

(* §6, "violating tightness by blocking": a THEP steal invoked when the
   queue holds <= delta tasks and no worker is running never returns. *)
let test_thep_solo_steal_blocks () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let params =
    { Ws_core.Queue_intf.capacity = 16; delta = 2; worker_fence = false; tag = "q" }
  in
  let module Q = Ws_core.Thep in
  let q = Q.create m params in
  Q.preload q [ 1 ];
  let returned = ref false in
  let _ =
    Machine.spawn m ~name:"lone-thief" (fun () ->
        ignore (Q.steal q);
        returned := true)
  in
  (match Sched.run ~max_steps:20_000 m (Sched.round_robin ()) with
  | Sched.Max_steps -> ()
  | Sched.Quiescent -> Alcotest.fail "lone THEP thief must block, not return"
  | Sched.Deadlock -> Alcotest.fail "deadlock");
  checkb "steal never returned" false !returned

let test_empty_results qname () =
  let takes =
    solo qname (fun q ->
        match Ws_core.Queue_intf.take q with `Empty -> [ 1 ] | `Task _ -> [])
  in
  checki "take on empty" 1 (List.length takes);
  let (module Q : Ws_core.Queue_intf.S) = Ws_core.Registry.find qname in
  let steals =
    solo qname (fun q ->
        match Ws_core.Queue_intf.steal q with
        | `Empty -> [ 1 ]
        | `Abort -> if Q.may_abort then [ 1 ] else []
        | `Task _ -> [])
  in
  checki "steal on empty" 1 (List.length steals)

let test_interleaved_put_take qname () =
  let got =
    solo qname (fun q ->
        Ws_core.Queue_intf.put q 1;
        Ws_core.Queue_intf.put q 2;
        let a = Ws_core.Queue_intf.take q in
        Ws_core.Queue_intf.put q 3;
        let b = Ws_core.Queue_intf.take q in
        let c = Ws_core.Queue_intf.take q in
        let d = Ws_core.Queue_intf.take q in
        List.filter_map
          (function `Task t -> Some t | `Empty -> None)
          [ a; b; c; d ])
  in
  Alcotest.(check (list int)) "mixed puts and takes" [ 2; 3; 1 ] got

let test_preload qname () =
  (* preload happens host-side before the machine runs *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let params = { Ws_core.Queue_intf.default_params with capacity = 32; tag = "q" } in
  let (module Q : Ws_core.Queue_intf.S) = Ws_core.Registry.find qname in
  let q = Q.create m params in
  Q.preload q [ 10; 20; 30 ];
  let out = ref [] in
  let _ =
    Machine.spawn m ~name:"w" (fun () ->
        let rec go () =
          match Q.take q with
          | `Task t ->
              out := t :: !out;
              go ()
          | `Empty -> ()
        in
        go ())
  in
  (match Sched.run m (Sched.round_robin ()) with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "preload run did not quiesce");
  Alcotest.(check (list int)) "preloaded items taken LIFO" [ 10; 20; 30 ] !out

let test_wraparound qname () =
  (* more puts than capacity, drained in between: exercises index wrapping *)
  let got =
    solo qname ~capacity:8 (fun q ->
        let total = ref 0 in
        for round = 0 to 9 do
          for i = 0 to 5 do
            Ws_core.Queue_intf.put q ((round * 10) + i)
          done;
          List.iter (fun t -> total := !total + t) (take_all q)
        done;
        [ !total ])
  in
  let expected = List.init 10 (fun r -> List.init 6 (fun i -> (r * 10) + i)) in
  let expected = List.fold_left ( + ) 0 (List.concat expected) in
  checki "all items preserved across wraparound" expected (List.hd got)

(* ------------------------------------------------------------------ *)
(* FF-specific behaviour                                               *)
(* ------------------------------------------------------------------ *)

let test_ff_abort_within_delta qname () =
  (* queue holds exactly delta+0 tasks: a thief must abort (it can never
     certify t - delta > h when t - h <= delta) *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let params =
    { Ws_core.Queue_intf.capacity = 32; delta = 3; worker_fence = false; tag = "q" }
  in
  let (module Q : Ws_core.Queue_intf.S) = Ws_core.Registry.find qname in
  let q = Q.create m params in
  Q.preload q [ 1; 2; 3 ];
  let r = ref `Empty in
  let _ = Machine.spawn m ~name:"thief" (fun () -> r := Q.steal q) in
  (match Sched.run m (Sched.round_robin ()) with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "no quiesce");
  checkb "thief aborts within delta" true (!r = `Abort)

let test_ff_steals_beyond_delta qname () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let params =
    { Ws_core.Queue_intf.capacity = 32; delta = 3; worker_fence = false; tag = "q" }
  in
  let (module Q : Ws_core.Queue_intf.S) = Ws_core.Registry.find qname in
  let q = Q.create m params in
  Q.preload q [ 1; 2; 3; 4; 5 ];
  let r = ref `Empty in
  let _ = Machine.spawn m ~name:"thief" (fun () -> r := Q.steal q) in
  (match Sched.run m (Sched.round_robin ()) with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "no quiesce");
  checkb "thief steals the head beyond delta" true (!r = `Task 1)

let test_thep_echo_resolves_uncertainty () =
  (* THEP with a huge delta: the thief is always uncertain, yet — unlike
     FF-THE — it can still steal, by waiting for the worker's echo. *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let params =
    { Ws_core.Queue_intf.capacity = 64; delta = max_int; worker_fence = false; tag = "q" }
  in
  let module Q = Ws_core.Thep in
  let q = Q.create m params in
  Q.preload q (List.init 16 Fun.id);
  let stolen = ref [] in
  let taken = ref [] in
  let _ =
    Machine.spawn m ~name:"worker" (fun () ->
        let rec go () =
          match Q.take q with
          | `Task t ->
              taken := t :: !taken;
              Program.work 5;
              go ()
          | `Empty -> ()
        in
        go ())
  in
  let _ =
    Machine.spawn m ~name:"thief" (fun () ->
        for _ = 1 to 4 do
          match Q.steal q with
          | `Task t -> stolen := t :: !stolen
          | `Empty | `Abort -> ()
        done)
  in
  let rng = Random.State.make [| 5 |] in
  (match Sched.run m (Sched.weighted rng ~drain_weight:0.15) with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "no quiesce");
  checki "all 16 tasks extracted exactly once" 16
    (List.length !stolen + List.length !taken);
  checkb "the echo let the thief steal despite delta = inf" true
    (List.length !stolen > 0)

(* ------------------------------------------------------------------ *)
(* Randomized adversarial concurrency                                  *)
(* ------------------------------------------------------------------ *)

let spec_for qname =
  {
    Ws_harness.Scenarios.default_spec with
    queue = qname;
    sb_capacity = 3;
    delta = 2;
    (* with 1 client store between takes, ceil(3/2) = 2 is a sound delta *)
    client_stores = 1;
    preloaded = 6;
    puts = 4;
    steal_attempts = 6;
    thieves = 2;
  }

let test_random_safety qname () =
  let seeds = List.init 120 (fun i -> (31 * i) + 1) in
  match Ws_harness.Scenarios.random_check (spec_for qname) ~seeds () with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_random_safety_realistic qname () =
  (* same but on the realistic (egress + coalescing) machine; client stores
     prevent same-address coalescing, and delta covers capacity+1:
     ceil(4/2) = 2 with sb_capacity 3 -> use delta 2 *)
  let spec =
    {
      (spec_for qname) with
      buffer_model = Store_buffer.Realistic { coalesce = true };
      sb_capacity = 3;
      delta = 2;
    }
  in
  let seeds = List.init 120 (fun i -> (17 * i) + 3) in
  match Ws_harness.Scenarios.random_check spec ~seeds () with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Bounded exhaustive model checking                                   *)
(* ------------------------------------------------------------------ *)

let explore_spec qname =
  {
    Ws_harness.Scenarios.default_spec with
    queue = qname;
    sb_capacity = 1;
    delta = 1;
    client_stores = 1;
    (* delta = ceil(1/2) = 1 is sound *)
    preloaded = 2;
    puts = 0;
    steal_attempts = 1;
  }

(* Depth-truncated runs of each completed search; 0 for every other queue.
   Each THEP and THEP-sep one is the same unfair schedule. The thief holds
   the queue lock in its echo-wait loop, and its next step is the
   [spin_pause] there. The worker's take spins on that lock: a failed cas,
   then a pause. The search offers a pause only when every thread is at
   one, and there it takes the worker's (DPOR never demands the thief's: a
   pause touches no memory). So the thief never runs again, and the run
   goes on until the depth bound cuts it. The counts are the same at
   max_depth 400, 800 and 1600. A fair scheduler would run the thief,
   which then leaves its loop and unlocks, so no fair execution does this;
   but these runs leave the search short of a proof for both queues. *)
let explore_truncated = function "thep" -> 9 | "thep-sep" -> 21 | _ -> 0

let test_explore_safety qname () =
  let st, _ =
    Ws_harness.Scenarios.explore_check (explore_spec qname)
      ~preemption_bound:(Some 2) ~memo:true ~dpor:true ()
  in
  (match st.Tso.Explore.failures with
  | [] -> ()
  | (_, msg) :: _ -> Alcotest.fail msg);
  checkb "the search completed" true st.Tso.Explore.complete;
  checki "no deadlocks" 0 st.Tso.Explore.deadlocks;
  checki "depth-truncated runs" (explore_truncated qname)
    st.Tso.Explore.truncated

(* ------------------------------------------------------------------ *)
(* Broken variants MUST fail                                           *)
(* ------------------------------------------------------------------ *)

let test_the_without_fence_fails () =
  let spec = { (explore_spec "the") with worker_fence = false } in
  let st, _ =
    Ws_harness.Scenarios.explore_check spec ~max_runs:500_000
      ~preemption_bound:(Some 3) ()
  in
  checkb "explorer catches the missing THE fence" true
    (st.Tso.Explore.failures <> [])

let test_chase_lev_without_fence_fails () =
  let spec =
    {
      (explore_spec "chase-lev") with
      worker_fence = false;
      preloaded = 2;
      steal_attempts = 2;
      client_stores = 0;
    }
  in
  let st, _ =
    Ws_harness.Scenarios.explore_check spec ~max_runs:500_000
      ~preemption_bound:(Some 3) ()
  in
  checkb "explorer catches the missing Chase-Lev fence" true
    (st.Tso.Explore.failures <> [])

let test_ff_cl_undersized_delta_fails () =
  (* TSO[2], no client stores: two takes can hide, delta = 1 is unsound *)
  let spec =
    {
      Ws_harness.Scenarios.default_spec with
      queue = "ff-cl";
      sb_capacity = 2;
      delta = 1;
      worker_fence = false;
      preloaded = 3;
      puts = 0;
      steal_attempts = 2;
      client_stores = 0;
    }
  in
  let st, _ =
    Ws_harness.Scenarios.explore_check spec ~max_runs:1_000_000
      ~preemption_bound:(Some 3) ()
  in
  checkb "explorer catches the unsound delta" true (st.Tso.Explore.failures <> [])

let test_ff_the_undersized_delta_fails_random () =
  let spec =
    {
      Ws_harness.Scenarios.default_spec with
      queue = "ff-the";
      sb_capacity = 4;
      delta = 1;
      worker_fence = false;
      preloaded = 16;
      puts = 0;
      steal_attempts = 8;
      thieves = 1;
      client_stores = 0;
    }
  in
  let seeds = List.init 400 (fun i -> i + 1) in
  match Ws_harness.Scenarios.random_check spec ~seeds ~drain_weight:0.03 () with
  | Error _ -> () (* violation found, as it must be *)
  | Ok () -> Alcotest.fail "random testing missed the unsound delta"


(* ------------------------------------------------------------------ *)
(* Dynamic Chase-Lev growth and ABP specifics                          *)
(* ------------------------------------------------------------------ *)

let test_chase_lev_dyn_grows () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let params = { Ws_core.Queue_intf.default_params with capacity = 8; tag = "q" } in
  let q = Ws_core.Chase_lev_dyn.create m params in
  let out = ref [] in
  let _ =
    Machine.spawn m ~name:"w" (fun () ->
        for i = 1 to 50 do
          Ws_core.Chase_lev_dyn.put q i
        done;
        let rec drain () =
          match Ws_core.Chase_lev_dyn.take q with
          | `Task t ->
              out := t :: !out;
              drain ()
          | `Empty -> ()
        in
        drain ())
  in
  (match Sched.run m (Sched.round_robin ()) with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "no quiesce");
  checkb "grew at least twice (8 -> 16 -> 32 -> 64)" true
    (Ws_core.Chase_lev_dyn.grows q >= 2);
  Alcotest.(check (list int)) "all 50 tasks, LIFO" (List.init 50 (fun i -> i + 1))
    (List.rev !out |> List.rev)
    |> ignore;
  checki "all 50 extracted" 50 (List.length !out)

let test_chase_lev_dyn_growth_under_concurrency () =
  (* a thief keeps stealing while the owner grows the buffer repeatedly *)
  let spec =
    {
      Ws_harness.Scenarios.default_spec with
      queue = "chase-lev-dyn";
      sb_capacity = 3;
      preloaded = 4;
      puts = 20;
      steal_attempts = 12;
      thieves = 2;
    }
  in
  let seeds = List.init 150 (fun i -> (13 * i) + 1) in
  match Ws_harness.Scenarios.random_check spec ~seeds () with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_abp_abort_is_contention () =
  (* solo thief never aborts (no contention) ... *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let params = { Ws_core.Queue_intf.default_params with capacity = 32; tag = "q" } in
  let q = Ws_core.Abp.create m params in
  Ws_core.Abp.preload q [ 1; 2; 3 ];
  let results = ref [] in
  let _ =
    Machine.spawn m ~name:"thief" (fun () ->
        for _ = 1 to 4 do
          results := Ws_core.Abp.steal q :: !results
        done)
  in
  (match Sched.run m (Sched.round_robin ()) with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "no quiesce");
  checkb "no abort without contention" true
    (not (List.mem `Abort !results));
  (* ... and the tag defeats ABA across a reset *)
  checki "stole everything" 3
    (List.length (List.filter (function `Task _ -> true | _ -> false) !results))

let test_abp_tag_defeats_aba () =
  (* exhaustively: worker drains and refills (bumping the tag); no task may
     be extracted twice even though indices repeat *)
  let mk () =
    let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
    let params = { Ws_core.Queue_intf.default_params with capacity = 8; tag = "q" } in
    let q = Ws_core.Abp.create m params in
    let removed = Array.make 4 0 in
    let _ =
      Machine.spawn m ~name:"worker" (fun () ->
          Ws_core.Abp.put q 0;
          (match Ws_core.Abp.take q with
          | `Task i -> removed.(i) <- removed.(i) + 1
          | `Empty -> ());
          Ws_core.Abp.put q 1;
          match Ws_core.Abp.take q with
          | `Task i -> removed.(i) <- removed.(i) + 1
          | `Empty -> ())
    in
    let _ =
      Machine.spawn m ~name:"thief" (fun () ->
          for _ = 1 to 2 do
            match Ws_core.Abp.steal q with
            | `Task i -> removed.(i) <- removed.(i) + 1
            | `Empty | `Abort -> ()
          done)
    in
    let check () =
      let bad = ref None in
      Array.iteri
        (fun i c -> if c > 1 then bad := Some (Printf.sprintf "task %d x%d" i c))
        removed;
      match !bad with None -> Ok () | Some m -> Error m
    in
    { Tso.Explore.machine = m; check }
  in
  let st = Tso.Explore.search ~max_runs:400_000 ~mk () in
  (match st.Tso.Explore.failures with
  | [] -> ()
  | (_, msg) :: _ -> Alcotest.fail msg);
  checki "no truncation" 0 st.Tso.Explore.truncated

(* ------------------------------------------------------------------ *)
(* Pack                                                                *)
(* ------------------------------------------------------------------ *)

let pack2_roundtrip =
  QCheck.Test.make ~name:"pack2 round-trips" ~count:500
    QCheck.(pair (int_bound ((1 lsl 30) - 1)) (int_bound ((1 lsl 30) - 1)))
    (fun (hi, lo) ->
      let v = Ws_core.Pack.pack2 ~lo_bits:31 ~hi ~lo in
      Ws_core.Pack.unpack2 ~lo_bits:31 v = (hi, lo))

let pack3_roundtrip =
  QCheck.Test.make ~name:"pack3 round-trips" ~count:500
    QCheck.(
      triple (int_bound ((1 lsl 20) - 1)) (int_bound ((1 lsl 19) - 1))
        (int_bound ((1 lsl 19) - 1)))
    (fun (hi, mid, lo) ->
      let v = Ws_core.Pack.pack3 ~lo_bits:20 ~mid_bits:20 ~hi ~mid ~lo in
      Ws_core.Pack.unpack3 ~lo_bits:20 ~mid_bits:20 v = (hi, mid, lo))

let pack_rejects_negative () =
  Alcotest.check_raises "negative lo"
    (Invalid_argument "Pack: negative lo field") (fun () ->
      ignore (Ws_core.Pack.pack2 ~lo_bits:31 ~hi:0 ~lo:(-1)))

let pack_rejects_overflow () =
  Alcotest.check_raises "lo overflow"
    (Invalid_argument "Pack: lo field overflows 4 bits") (fun () ->
      ignore (Ws_core.Pack.pack2 ~lo_bits:4 ~hi:0 ~lo:16))

(* Single-threaded op sequences against the sequential spec (0 = put,
   1 = take, 2 = steal). THEP only gets put/take sequences: its solo steal
   can legitimately block (see test_thep_solo_steal_blocks). The queue is
   sized to the sequence, so even an all-put sequence stays inside the
   fixed-capacity queues' domain. *)
let seq_spec_holds qname ops =
  let (module Q : Ws_core.Queue_intf.S) = Ws_core.Registry.find qname in
  let results =
    solo qname ~capacity:(max 256 (List.length ops)) (fun q ->
        List.mapi
          (fun i op ->
            match op with
            | 0 ->
                Ws_core.Queue_intf.put q i;
                `Put i
            | 1 -> `Take (Ws_core.Queue_intf.take q)
            | _ -> `Steal (Ws_core.Queue_intf.steal q))
          ops)
  in
  (* replay against the spec; a lone sequential thread must behave like
     the strict spec except that FF thieves may abort *)
  let rec go state = function
    | [] -> true
    | `Put i :: rest -> (
        match Ws_linearize.Spec.conforms Ws_linearize.Spec.Strict state
                (Ws_linearize.Spec.Put i) Ws_linearize.Spec.R_ok with
        | Some s' -> go s' rest
        | None -> false)
    | `Take r :: rest -> (
        let resp =
          match r with
          | `Task t -> Ws_linearize.Spec.R_task t
          | `Empty -> Ws_linearize.Spec.R_empty
        in
        match Ws_linearize.Spec.conforms Ws_linearize.Spec.Strict state
                Ws_linearize.Spec.Take resp with
        | Some s' -> go s' rest
        | None -> false)
    | `Steal r :: rest -> (
        let resp =
          match r with
          | `Task t -> Ws_linearize.Spec.R_task t
          | `Empty -> Ws_linearize.Spec.R_empty
          | `Abort -> Ws_linearize.Spec.R_abort
        in
        let kind =
          if Q.may_abort then Ws_linearize.Spec.Relaxed
          else Ws_linearize.Spec.Strict
        in
        match Ws_linearize.Spec.conforms kind state Ws_linearize.Spec.Steal
                resp with
        | Some s' -> go s' rest
        | None -> false)
  in
  go Ws_linearize.Spec.initial results

let seq_spec_prop qname =
  let max_op = if is_thep qname then 1 else 2 in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s matches the sequential spec" qname)
    ~count:120
    QCheck.(list (int_bound max_op))
    (seq_spec_holds qname)

(* QCheck's lists run to 10,000 ops, so a put/take walk can pass 256 net
   puts; this fixed sequence holds the queue at 300 tasks. *)
let test_spec_long_sequence qname () =
  let ops = List.init 300 (fun _ -> 0) @ List.init 300 (fun _ -> 1) in
  checkb "300 puts then 300 takes match the spec" true
    (seq_spec_holds qname ops)

let () =
  let for_queues qs name speed f =
    List.map
      (fun q -> Alcotest.test_case (Printf.sprintf "%s [%s]" name q) speed (f q))
      qs
  in
  Alcotest.run "deque"
    [
      ( "sequential",
        for_queues all_queues "take LIFO" `Quick (fun q () -> test_lifo_take q ())
        @ for_queues all_queues "steal FIFO" `Quick (fun q () -> test_fifo_steal q ())
        @ for_queues all_queues "empty" `Quick (fun q () -> test_empty_results q ())
        @ for_queues strict_queues "interleaved" `Quick (fun q () ->
              test_interleaved_put_take q ())
        @ for_queues all_queues "preload" `Quick (fun q () -> test_preload q ())
        @ for_queues strict_queues "wraparound" `Quick (fun q () ->
              test_wraparound q ()) );
      ( "fence-free behaviour",
        for_queues [ "ff-the"; "ff-cl" ] "abort within delta" `Quick (fun q () ->
            test_ff_abort_within_delta q ())
        @ for_queues [ "ff-the"; "ff-cl" ] "steal beyond delta" `Quick (fun q () ->
              test_ff_steals_beyond_delta q ())
        @ [
            Alcotest.test_case "THEP echo resolves uncertainty" `Quick
              test_thep_echo_resolves_uncertainty;
            Alcotest.test_case "THEP lone thief blocks (§6 tightness)" `Quick
              test_thep_solo_steal_blocks;
          ] );
      ( "dynamic chase-lev & abp",
        [
          Alcotest.test_case "growth, sequential" `Quick test_chase_lev_dyn_grows;
          Alcotest.test_case "growth under concurrency" `Slow
            test_chase_lev_dyn_growth_under_concurrency;
          Alcotest.test_case "abp: abort means contention" `Quick
            test_abp_abort_is_contention;
          Alcotest.test_case "abp: tag defeats ABA (exhaustive)" `Slow
            test_abp_tag_defeats_aba;
        ] );
      ( "random adversarial",
        for_queues all_queues "safety (abstract)" `Slow (fun q () ->
            test_random_safety q ())
        @ for_queues all_queues "safety (realistic+coalescing)" `Slow (fun q () ->
              test_random_safety_realistic q ()) );
      ( "model checking",
        for_queues all_queues "exhaustive small-scope" `Slow (fun q () ->
            test_explore_safety q ())
        @ [
            Alcotest.test_case "THE without fence FAILS" `Slow
              test_the_without_fence_fails;
            Alcotest.test_case "Chase-Lev without fence FAILS" `Slow
              test_chase_lev_without_fence_fails;
            Alcotest.test_case "FF-CL undersized delta FAILS" `Slow
              test_ff_cl_undersized_delta_fails;
            Alcotest.test_case "FF-THE undersized delta FAILS (random)" `Slow
              test_ff_the_undersized_delta_fails_random;
          ] );
      ( "pack",
        [
          QCheck_alcotest.to_alcotest pack2_roundtrip;
          QCheck_alcotest.to_alcotest pack3_roundtrip;
          Alcotest.test_case "rejects negative" `Quick pack_rejects_negative;
          Alcotest.test_case "rejects overflow" `Quick pack_rejects_overflow;
        ] );
      ( "spec conformance",
        List.map (fun q -> QCheck_alcotest.to_alcotest (seq_spec_prop q))
          strict_queues
        @ for_queues [ "thep"; "thep-sep" ] "300 net puts" `Quick (fun q () ->
              test_spec_long_sequence q ()) );
    ]
