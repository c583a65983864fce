(* Tests for the bounded-TSO substrate: memory, store buffers (both models),
   the abstract machine's transition semantics, schedulers, the explorer and
   the timing engine. *)

open Tso

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let test_memory_alloc () =
  let mem = Memory.create () in
  let a = Memory.alloc mem ~name:"x" ~init:7 in
  let b = Memory.alloc mem ~name:"y" ~init:0 in
  checki "x init" 7 (Memory.get mem a);
  checki "y init" 0 (Memory.get mem b);
  Memory.set mem b 42;
  checki "y set" 42 (Memory.get mem b);
  checki "size" 2 (Memory.size mem);
  check Alcotest.string "name x" "x" (Memory.name mem a);
  check Alcotest.string "name y" "y" (Memory.name mem b)

let test_memory_array () =
  let mem = Memory.create () in
  let base = Memory.alloc_array mem ~name:"t" ~len:5 ~init:(-1) in
  checki "size" 5 (Memory.size mem);
  for i = 0 to 4 do
    checki "init" (-1) (Memory.get mem (Addr.offset base i))
  done;
  Memory.set mem (Addr.offset base 3) 9;
  checki "set elem" 9 (Memory.get mem (Addr.offset base 3));
  check Alcotest.string "elem name" "t[3]" (Memory.name mem (Addr.offset base 3));
  check (Alcotest.array Alcotest.int) "snapshot"
    [| -1; -1; -1; 9; -1 |]
    (Memory.snapshot mem)

let test_memory_growth () =
  let mem = Memory.create () in
  let addrs = List.init 500 (fun i -> Memory.alloc mem ~name:(Printf.sprintf "c%d" i) ~init:i) in
  List.iteri (fun i a -> checki "grown cell" i (Memory.get mem a)) addrs

let test_memory_names () =
  (* Names are formatted on demand from one entry per allocation; these are
     the strings the per-cell naming used to store. *)
  let mem = Memory.create () in
  let h = Memory.alloc mem ~name:"q0.H" ~init:0 in
  let tasks = Memory.alloc_array mem ~name:"q0.tasks" ~len:64 ~init:(-1) in
  let one = Memory.alloc_array mem ~name:"one" ~len:1 ~init:0 in
  let t = Memory.alloc mem ~name:"q0.T" ~init:0 in
  let visited = Memory.alloc_array mem ~name:"visited" ~len:3 ~init:0 in
  let last = Memory.alloc mem ~name:"scratch" ~init:0 in
  let name a = Memory.name mem a in
  check Alcotest.string "scalar before arrays" "q0.H" (name h);
  check Alcotest.string "first element" "q0.tasks[0]" (name tasks);
  check Alcotest.string "last element" "q0.tasks[63]"
    (name (Addr.offset tasks 63));
  check Alcotest.string "one-element array" "one[0]" (name one);
  check Alcotest.string "scalar between arrays" "q0.T" (name t);
  check Alcotest.string "second array, first" "visited[0]" (name visited);
  check Alcotest.string "second array, last" "visited[2]"
    (name (Addr.offset visited 2));
  check Alcotest.string "scalar after arrays" "scratch" (name last);
  Alcotest.check_raises "name out of bounds"
    (Invalid_argument "Memory: address 71 out of bounds (size 71)")
    (fun () -> ignore (Memory.name mem (Addr.of_index 71)))

let test_memory_pp () =
  let mem = Memory.create () in
  let _ = Memory.alloc mem ~name:"x" ~init:7 in
  let t = Memory.alloc_array mem ~name:"t" ~len:2 ~init:(-1) in
  Memory.set mem (Addr.offset t 1) 4;
  let _ = Memory.alloc mem ~name:"y" ~init:0 in
  check Alcotest.string "pp" "x = 7\nt[0] = -1\nt[1] = 4\ny = 0\n"
    (Format.asprintf "%a" Memory.pp mem)

let test_memory_oob () =
  let mem = Memory.create () in
  let _ = Memory.alloc mem ~name:"x" ~init:0 in
  Alcotest.check_raises "oob" (Invalid_argument "Memory: address 5 out of bounds (size 1)")
    (fun () -> ignore (Memory.get mem (Addr.of_index 5)))

(* ------------------------------------------------------------------ *)
(* Store buffer                                                        *)
(* ------------------------------------------------------------------ *)

let mk_mem2 () =
  let mem = Memory.create () in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let y = Memory.alloc mem ~name:"y" ~init:0 in
  (mem, x, y)

let test_sb_fifo () =
  let mem, x, y = mk_mem2 () in
  let sb = Store_buffer.create ~capacity:4 ~model:Store_buffer.Abstract in
  Store_buffer.push sb x 1;
  Store_buffer.push sb y 2;
  Store_buffer.push sb x 3;
  checki "entries" 3 (Store_buffer.entries sb);
  check (Alcotest.option Alcotest.int) "lookup newest x" (Some 3) (Store_buffer.lookup sb x);
  check (Alcotest.option Alcotest.int) "lookup y" (Some 2) (Store_buffer.lookup sb y);
  (match Store_buffer.drain sb mem with
  | Store_buffer.Wrote (a, v) ->
      checkb "first drain is oldest" true (Addr.equal a x);
      checki "oldest value" 1 v
  | _ -> Alcotest.fail "abstract drain must write memory");
  checki "memory x after drain" 1 (Memory.get mem x);
  check (Alcotest.option Alcotest.int) "x still forwarded from newer entry" (Some 3)
    (Store_buffer.lookup sb x)

let test_sb_capacity () =
  let _, x, _ = mk_mem2 () in
  let sb = Store_buffer.create ~capacity:2 ~model:Store_buffer.Abstract in
  Store_buffer.push sb x 1;
  Store_buffer.push sb x 2;
  checkb "full" true (Store_buffer.is_full sb);
  Alcotest.check_raises "push full" (Invalid_argument "Store_buffer.push: buffer full")
    (fun () -> Store_buffer.push sb x 3)

let test_sb_egress () =
  let mem, x, y = mk_mem2 () in
  let sb = Store_buffer.create ~capacity:2 ~model:(Store_buffer.Realistic { coalesce = false }) in
  Store_buffer.push sb x 1;
  Store_buffer.push sb y 2;
  (match Store_buffer.drain sb mem with
  | Store_buffer.Staged (a, 1) -> checkb "staged x" true (Addr.equal a x)
  | _ -> Alcotest.fail "realistic drain stages into B");
  checki "memory untouched while in B" 0 (Memory.get mem x);
  check (Alcotest.option Alcotest.int) "B still forwards" (Some 1) (Store_buffer.lookup sb x);
  (* without coalescing, B must flush before the next (different-address) drain *)
  checkb "cannot drain y over occupied B" false (Store_buffer.can_drain sb);
  let a, v = Store_buffer.flush_egress sb mem in
  checkb "flushed x" true (Addr.equal a x);
  checki "flushed value" 1 v;
  checki "memory x" 1 (Memory.get mem x);
  checkb "can drain y now" true (Store_buffer.can_drain sb)

let test_sb_coalescing () =
  let mem, x, _ = mk_mem2 () in
  let sb = Store_buffer.create ~capacity:3 ~model:(Store_buffer.Realistic { coalesce = true }) in
  Store_buffer.push sb x 1;
  Store_buffer.push sb x 2;
  Store_buffer.push sb x 3;
  ignore (Store_buffer.drain sb mem) (* x:=1 staged in B *);
  (match Store_buffer.drain sb mem with
  | Store_buffer.Coalesced (a, 2) -> checkb "coalesced same addr" true (Addr.equal a x)
  | _ -> Alcotest.fail "same-address drain must coalesce into B");
  ignore (Store_buffer.drain sb mem) (* x:=3 coalesces too *);
  checki "nothing reached memory yet" 0 (Memory.get mem x);
  let _, v = Store_buffer.flush_egress sb mem in
  checki "B holds newest coalesced value" 3 v;
  checki "memory sees only final value" 3 (Memory.get mem x);
  checkb "empty" true (Store_buffer.is_empty sb)

let test_sb_no_cross_address_coalescing () =
  let mem, x, y = mk_mem2 () in
  let sb = Store_buffer.create ~capacity:3 ~model:(Store_buffer.Realistic { coalesce = true }) in
  Store_buffer.push sb x 1;
  Store_buffer.push sb y 2;
  ignore (Store_buffer.drain sb mem);
  (* y may not coalesce over x: TSO would break (§7.3's A/B example) *)
  checkb "different address cannot drain into occupied B" false
    (Store_buffer.can_drain sb);
  ignore (Store_buffer.flush_egress sb mem);
  ignore (Store_buffer.drain sb mem);
  ignore (Store_buffer.flush_egress sb mem);
  checki "x" 1 (Memory.get mem x);
  checki "y" 2 (Memory.get mem y)

let test_sb_lookup_shadows_egress () =
  (* forwarding precedence: the newest entry of the buffer proper must
     shadow an older same-address store staged in B *)
  let mem, x, _ = mk_mem2 () in
  let sb =
    Store_buffer.create ~capacity:2
      ~model:(Store_buffer.Realistic { coalesce = false })
  in
  Store_buffer.push sb x 1;
  ignore (Store_buffer.drain sb mem) (* x:=1 staged into B *);
  check (Alcotest.option Alcotest.int) "B forwards when queue empty" (Some 1)
    (Store_buffer.lookup sb x);
  Store_buffer.push sb x 2;
  check (Alcotest.option Alcotest.int) "newest queue entry shadows B" (Some 2)
    (Store_buffer.lookup sb x);
  (match Store_buffer.egress_entry sb with
  | Some (a, 1) -> checkb "B holds the oldest store" true (Addr.equal a x)
  | _ -> Alcotest.fail "expected x:=1 in B");
  (match Store_buffer.buffered sb with
  | [ (a, 2) ] -> checkb "buffer proper holds the newest" true (Addr.equal a x)
  | _ -> Alcotest.fail "expected [x:=2] in the buffer proper");
  ignore (Store_buffer.flush_egress sb mem);
  checki "memory got B's value" 1 (Memory.get mem x);
  check (Alcotest.option Alcotest.int) "queue still forwards after flush"
    (Some 2) (Store_buffer.lookup sb x)

let test_sb_pso_lanes_stable () =
  let mem, x, y = mk_mem2 () in
  let sb = Store_buffer.create ~capacity:4 ~model:Store_buffer.Pso in
  Store_buffer.push sb y 1;
  Store_buffer.push sb x 2;
  Store_buffer.push sb y 3;
  let lanes = Store_buffer.drain_lanes sb in
  check (Alcotest.list Alcotest.int) "one sorted lane per pending address"
    [ Addr.to_index x; Addr.to_index y ]
    lanes;
  check (Alcotest.list Alcotest.int) "lanes are stable across calls" lanes
    (Store_buffer.drain_lanes sb);
  (match Store_buffer.drain_lane sb (Addr.to_index y) mem with
  | Store_buffer.Wrote (a, 1) -> checkb "oldest y first" true (Addr.equal a y)
  | _ -> Alcotest.fail "PSO drain writes memory directly");
  check (Alcotest.list Alcotest.int) "y still pending: lanes unchanged"
    [ Addr.to_index x; Addr.to_index y ]
    (Store_buffer.drain_lanes sb);
  (match Store_buffer.drain_lane sb (Addr.to_index y) mem with
  | Store_buffer.Wrote (_, 3) -> ()
  | _ -> Alcotest.fail "second y drain must write y:=3");
  check (Alcotest.list Alcotest.int) "y lane disappears once empty"
    [ Addr.to_index x ]
    (Store_buffer.drain_lanes sb)

(* qcheck: the abstract store buffer against a reference list model. *)
let sb_model_prop =
  QCheck.Test.make ~name:"store buffer matches reference model" ~count:300
    QCheck.(list (pair (int_bound 3) (int_bound 100)))
    (fun ops ->
      let mem = Memory.create () in
      let addrs = Array.init 4 (fun i -> Memory.alloc mem ~name:(Printf.sprintf "a%d" i) ~init:0) in
      let sb = Store_buffer.create ~capacity:8 ~model:Store_buffer.Abstract in
      (* reference: pending stores as a list (oldest first) + memory array *)
      let pending = ref [] in
      let refmem = Array.make 4 0 in
      List.iter
        (fun (ai, v) ->
          (* interleave pushes with occasional drains *)
          if Store_buffer.is_full sb || (v mod 5 = 0 && Store_buffer.can_drain sb)
          then begin
            (match Store_buffer.drain sb mem with
            | Store_buffer.Wrote _ -> ()
            | _ -> assert false);
            match !pending with
            | (i, w) :: rest ->
                refmem.(i) <- w;
                pending := rest
            | [] -> assert false
          end;
          Store_buffer.push sb addrs.(ai) v;
          pending := !pending @ [ (ai, v) ])
        ops;
      (* check forwarding for every address *)
      let ok_fwd =
        List.for_all
          (fun i ->
            let expected =
              List.fold_left
                (fun acc (j, v) -> if i = j then Some v else acc)
                None !pending
            in
            Store_buffer.lookup sb addrs.(i) = expected)
          [ 0; 1; 2; 3 ]
      in
      (* drain everything and compare final memory *)
      while Store_buffer.can_drain sb do
        ignore (Store_buffer.drain sb mem)
      done;
      List.iter (fun (i, v) -> refmem.(i) <- v) !pending;
      ok_fwd
      && List.for_all
           (fun i -> Memory.get mem addrs.(i) = refmem.(i))
           [ 0; 1; 2; 3 ])

(* qcheck: the ring store buffer against a list-plus-option reference, for
   every model, at capacities small enough that the ring wraps. Every operation is tried whether or not it
   is enabled: a disabled one must raise in the buffer exactly when the
   reference refuses it. *)
type sb_op =
  | Op_push of int * int
  | Op_drain
  | Op_drain_lane of int
  | Op_flush
  | Op_lookup of int
  | Op_clear
  | Op_set_egress of (int * int) option

let sb_op_to_string = function
  | Op_push (a, v) -> Printf.sprintf "push %d:=%d" a v
  | Op_drain -> "drain"
  | Op_drain_lane l -> Printf.sprintf "drain_lane %d" l
  | Op_flush -> "flush"
  | Op_lookup a -> Printf.sprintf "lookup %d" a
  | Op_clear -> "clear"
  | Op_set_egress None -> "set_egress none"
  | Op_set_egress (Some (a, v)) -> Printf.sprintf "set_egress %d:=%d" a v

let sb_models =
  [|
    Store_buffer.Abstract;
    Store_buffer.Realistic { coalesce = true };
    Store_buffer.Realistic { coalesce = false };
    Store_buffer.Pso;
  |]

let sb_ring_arb =
  let n_addrs = 3 in
  let addr = QCheck.Gen.int_bound (n_addrs - 1) in
  let value = QCheck.Gen.int_bound 9 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun a v -> Op_push (a, v)) addr value);
          (4, return Op_drain);
          (3, map (fun l -> Op_drain_lane l) addr);
          (3, return Op_flush);
          (2, map (fun a -> Op_lookup a) addr);
          (1, return Op_clear);
          ( 1,
            map (fun e -> Op_set_egress e) (opt (pair addr value)) );
        ])
  in
  QCheck.make
    ~print:(fun (m, cap, ops) ->
      Printf.sprintf "model %d, capacity %d: %s" m cap
        (String.concat "; " (List.map sb_op_to_string ops)))
    QCheck.Gen.(
      triple (int_bound 3) (int_range 1 5) (list_size (int_range 0 60) op))

let sb_ring_prop =
  QCheck.Test.make ~name:"ring store buffer matches list reference" ~count:500
    sb_ring_arb (fun (mi, cap, ops) ->
      let model = sb_models.(mi) in
      let n_addrs = 3 in
      let mem = Memory.create () in
      let addrs =
        Array.init n_addrs (fun i ->
            Memory.alloc mem ~name:(Printf.sprintf "a%d" i) ~init:0)
      in
      let sb = Store_buffer.create ~capacity:cap ~model in
      (* reference: buffer proper oldest-first, B, memory *)
      let q = ref [] and b = ref None in
      let refmem = Array.make n_addrs 0 in
      let ref_can_drain () =
        match !q with
        | [] -> false
        | (a, _) :: _ -> (
            match model with
            | Store_buffer.Abstract | Store_buffer.Pso -> true
            | Store_buffer.Realistic { coalesce } -> (
                match !b with
                | None -> true
                | Some (a', _) -> coalesce && a = a'))
      in
      let ref_lanes () =
        match model with
        | Store_buffer.Abstract | Store_buffer.Realistic _ ->
            if ref_can_drain () then [ 0 ] else []
        | Store_buffer.Pso -> List.sort_uniq compare (List.map fst !q)
      in
      let ref_drain_fifo () =
        match !q with
        | [] -> assert false
        | (a, v) :: rest -> (
            q := rest;
            match model with
            | Store_buffer.Abstract | Store_buffer.Pso ->
                refmem.(a) <- v;
                `Wrote (a, v)
            | Store_buffer.Realistic _ ->
                let was = !b in
                b := Some (a, v);
                if was = None then `Staged (a, v) else `Coalesced (a, v))
      in
      let ref_lookup a =
        match List.rev (List.filter (fun (a', _) -> a' = a) !q) with
        | (_, v) :: _ -> Some v
        | [] -> (
            match !b with Some (a', v) when a' = a -> Some v | _ -> None)
      in
      let of_result = function
        | Store_buffer.Wrote (a, v) -> `Wrote (Addr.to_index a, v)
        | Store_buffer.Staged (a, v) -> `Staged (Addr.to_index a, v)
        | Store_buffer.Coalesced (a, v) -> `Coalesced (Addr.to_index a, v)
      in
      let raises f =
        match f () with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      let step op =
        match op with
        | Op_push (a, v) ->
            if List.length !q >= cap then
              raises (fun () -> Store_buffer.push sb addrs.(a) v)
            else begin
              Store_buffer.push sb addrs.(a) v;
              q := !q @ [ (a, v) ];
              true
            end
        | Op_drain ->
            if ref_can_drain () then
              of_result (Store_buffer.drain sb mem) = ref_drain_fifo ()
            else raises (fun () -> Store_buffer.drain sb mem)
        | Op_drain_lane l -> (
            let lane =
              match model with Store_buffer.Pso -> l | _ -> l mod 2
            in
            if not (List.mem lane (ref_lanes ())) then
              raises (fun () -> Store_buffer.drain_lane sb lane mem)
            else
              let got = of_result (Store_buffer.drain_lane sb lane mem) in
              match model with
              | Store_buffer.Pso ->
                  let rec remove = function
                    | [] -> assert false
                    | (a, v) :: rest when a = lane -> (v, rest)
                    | e :: rest ->
                        let v, rest = remove rest in
                        (v, e :: rest)
                  in
                  let v, rest = remove !q in
                  q := rest;
                  refmem.(lane) <- v;
                  got = `Wrote (lane, v)
              | _ -> got = ref_drain_fifo ())
        | Op_flush -> (
            match !b with
            | None -> raises (fun () -> Store_buffer.flush_egress sb mem)
            | Some (a, v) ->
                let a', v' = Store_buffer.flush_egress sb mem in
                b := None;
                refmem.(a) <- v;
                Addr.to_index a' = a && v' = v)
        | Op_lookup a -> Store_buffer.lookup sb addrs.(a) = ref_lookup a
        | Op_clear ->
            Store_buffer.clear sb;
            q := [];
            b := None;
            true
        | Op_set_egress e ->
            Store_buffer.set_egress sb
              (Option.map (fun (a, v) -> (addrs.(a), v)) e);
            b := e;
            true
      in
      let agrees () =
        let to_ints = List.map (fun (a, v) -> (Addr.to_index a, v)) in
        let expected_list =
          match !b with None -> !q | Some e -> e :: !q
        in
        to_ints (Store_buffer.to_list sb) = expected_list
        && Store_buffer.pending sb = List.length expected_list
        && Store_buffer.entries sb = List.length !q
        && Store_buffer.is_full sb = (List.length !q >= cap)
        && Store_buffer.is_empty sb = (expected_list = [])
        && Store_buffer.can_drain sb = ref_can_drain ()
        && Store_buffer.can_flush_egress sb = Option.is_some !b
        && Store_buffer.drain_lanes sb = ref_lanes ()
        && List.for_all
             (fun a -> Store_buffer.lookup sb addrs.(a) = ref_lookup a)
             (List.init n_addrs Fun.id)
        && Memory.snapshot mem = refmem
      in
      List.for_all (fun op -> step op && agrees ()) ops)

(* ------------------------------------------------------------------ *)
(* Machine semantics                                                   *)
(* ------------------------------------------------------------------ *)

(* The SB litmus: Dekker's store buffering. r0 = r1 = 0 must be reachable
   under TSO and unreachable when both threads fence. *)
let sb_litmus_instance ~fences () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let y = Memory.alloc mem ~name:"y" ~init:0 in
  let r0 = ref (-1) and r1 = ref (-1) in
  let prog a b r () =
    Program.store a 1;
    if fences then Program.fence ();
    r := Program.load b
  in
  let _ = Machine.spawn m ~name:"t0" (prog x y r0) in
  let _ = Machine.spawn m ~name:"t1" (prog y x r1) in
  let check () =
    if !r0 = 0 && !r1 = 0 then Error "weak outcome" else Ok ()
  in
  { Explore.machine = m; check }

let test_sb_litmus_weak_outcome_reachable () =
  let st = Explore.search ~mk:(sb_litmus_instance ~fences:false) () in
  checkb "explorer finds the TSO-weak outcome" true (st.Explore.failures <> []);
  checki "no deadlocks" 0 st.Explore.deadlocks

let test_sb_litmus_fenced_is_sc () =
  let st = Explore.search ~mk:(sb_litmus_instance ~fences:true) () in
  checkb "fences forbid the weak outcome" true (st.Explore.failures = []);
  checkb "search completed" true (st.Explore.runs > 0 && st.Explore.truncated = 0)

let test_machine_enabledness () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:1) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let y = Memory.alloc mem ~name:"y" ~init:0 in
  let tid =
    Machine.spawn m ~name:"t" (fun () ->
        Program.store x 1;
        Program.store y 2;
        Program.fence ();
        ignore (Program.cas x ~expect:1 ~replace:5))
  in
  (* first store enabled *)
  checkb "step enabled" true (List.mem (Machine.Step tid) (Machine.enabled m));
  ignore (Machine.apply m (Machine.Step tid));
  (* buffer full (capacity 1): second store must wait for a drain *)
  checkb "store blocked" true (Machine.store_blocked m tid);
  check (Alcotest.list Alcotest.string) "only drain enabled"
    [ "drain" ]
    (List.map
       (function Machine.Drain _ -> "drain" | Machine.Step _ -> "step" | Machine.Flush _ -> "flush")
       (Machine.enabled m));
  ignore (Machine.apply m (Machine.Drain (tid, 0)));
  ignore (Machine.apply m (Machine.Step tid));
  (* fence must wait until y drains *)
  checkb "fence not enabled while buffered" true
    (not (List.mem (Machine.Step tid) (Machine.enabled m)));
  ignore (Machine.apply m (Machine.Drain (tid, 0)));
  ignore (Machine.apply m (Machine.Step tid)) (* fence *);
  ignore (Machine.apply m (Machine.Step tid)) (* cas, buffer empty *);
  checkb "done" true (Machine.thread_done m tid);
  checki "cas wrote memory directly" 5 (Memory.get mem x);
  checkb "quiescent" true (Machine.quiescent m)

let test_machine_forwarding () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let seen = ref (-1) in
  let tid =
    Machine.spawn m ~name:"t" (fun () ->
        Program.store x 33;
        seen := Program.load x)
  in
  ignore (Machine.apply m (Machine.Step tid));
  (* no drain yet: the load must be satisfied from the thread's own buffer *)
  ignore (Machine.apply m (Machine.Step tid));
  checki "store-to-load forwarding" 33 !seen;
  checki "memory not yet updated" 0 (Memory.get mem x)

let test_machine_events () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let events = ref [] in
  Machine.on_event m (fun e -> events := e :: !events);
  let tid = Machine.spawn m ~name:"t" (fun () -> Program.store x 1) in
  ignore (Machine.apply m (Machine.Step tid));
  ignore (Machine.apply m (Machine.Drain (tid, 0)));
  let kinds =
    List.rev_map
      (function
        | Machine.Ev_exec _ -> "exec"
        | Machine.Ev_drain _ -> "drain"
        | Machine.Ev_flush _ -> "flush"
        | Machine.Ev_done _ -> "done")
      !events
  in
  check (Alcotest.list Alcotest.string) "event stream" [ "exec"; "done"; "drain" ] kinds

let test_machine_event_order () =
  (* listeners fire in registration order, for every event *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let order = ref [] in
  Machine.on_event m (fun _ -> order := "first" :: !order);
  Machine.on_event m (fun _ -> order := "second" :: !order);
  let tid = Machine.spawn m ~name:"t" (fun () -> Program.store x 1) in
  ignore (Machine.apply m (Machine.Step tid)) (* Ev_exec then Ev_done *);
  check
    (Alcotest.list Alcotest.string)
    "registration order per event"
    [ "first"; "second"; "first"; "second" ]
    (List.rev !order);
  (* registration stays cheap and ordered as the listener set grows *)
  let hits = Array.make 64 (-1) in
  Array.iteri
    (fun i _ ->
      Machine.on_event m (fun _ -> if hits.(i) < 0 then hits.(i) <- i))
    hits;
  ignore (Machine.apply m (Machine.Drain (tid, 0)));
  checkb "all listeners fired" true (Array.for_all (fun v -> v >= 0) hits)

let test_fingerprint_covers_control_state () =
  (* a pure label step changes neither memory nor buffers, but it moves the
     program position, so the fingerprint must change *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let tid =
    Machine.spawn m ~name:"t" (fun () ->
        Program.label "a";
        Program.label "b")
  in
  let fp0 = Machine.fingerprint m in
  ignore (Machine.apply m (Machine.Step tid));
  let fp1 = Machine.fingerprint m in
  checkb "label step changes the fingerprint" true (fp0 <> fp1);
  ignore (Machine.apply m (Machine.Step tid));
  checkb "second label step changes it again" true (fp1 <> Machine.fingerprint m)

let test_fingerprint_distinguishes_egress () =
  (* a store staged in B and the same store still queued are different
     machine states (they enable different transitions) and must not share a
     fingerprint, even though the flattened pending-store list is equal *)
  let mk () =
    let m = Machine.create (Machine.realistic_config ~sb_capacity:2 ~coalesce:false) in
    let mem = Machine.memory m in
    let x = Memory.alloc mem ~name:"x" ~init:0 in
    let tid = Machine.spawn m ~name:"t" (fun () -> Program.store x 1) in
    ignore (Machine.apply m (Machine.Step tid));
    (m, tid)
  in
  let m_queued, _ = mk () in
  let m_staged, tid = mk () in
  check Alcotest.int "identical states share a fingerprint"
    (Machine.fingerprint m_queued)
    (Machine.fingerprint m_staged);
  ignore (Machine.apply m_staged (Machine.Drain (tid, 0))) (* stage into B *);
  checkb "queued vs staged-in-B differ" true
    (Machine.fingerprint m_queued <> Machine.fingerprint m_staged)

let test_snapshot_wrapped_ring () =
  (* Snapshot a state whose store-buffer ring has wrapped (the youngest
     entry sits in slot 0, behind the oldest) while B holds a store, restore
     it into a fresh machine, and drive both identically to quiescence. *)
  let mk () =
    let m = Machine.create (Machine.realistic_config ~sb_capacity:2 ~coalesce:false) in
    Machine.set_record_responses m true;
    let mem = Machine.memory m in
    let x = Memory.alloc mem ~name:"x" ~init:0 in
    let y = Memory.alloc mem ~name:"y" ~init:0 in
    let z = Memory.alloc mem ~name:"z" ~init:0 in
    let seen = ref (-1) in
    let _ =
      Machine.spawn m ~name:"t" (fun () ->
          Program.store x 1;
          Program.store y 2;
          Program.store z 3;
          seen := Program.load y;
          Program.fence ())
    in
    (m, seen)
  in
  let entries m =
    List.map (fun (a, v) -> (Addr.to_index a, v)) (Machine.buffered_entries m 0)
  in
  let m, seen = mk () in
  List.iter (Machine.apply m)
    [ Machine.Step 0; Machine.Step 0; Machine.Drain (0, 0); Machine.Step 0 ];
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "x:=1 in B, y:=2 then z:=3 in the wrapped ring"
    [ (0, 1); (1, 2); (2, 3) ]
    (entries m);
  let snap = Machine.snapshot_create () in
  Machine.snapshot m snap;
  let m', seen' = mk () in
  Machine.restore_into snap m';
  checki "restored fingerprint" (Machine.fingerprint m) (Machine.fingerprint m');
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "restored buffer" (entries m) (entries m');
  (* Prefer the thread's step, so the load forwards y from the ring. *)
  let rec drive () =
    match List.rev (Machine.enabled m) with
    | [] -> ()
    | tr :: _ ->
        Machine.apply m tr;
        Machine.apply m' tr;
        checki "fingerprints agree" (Machine.fingerprint m) (Machine.fingerprint m');
        drive ()
  in
  drive ();
  checkb "both quiescent" true (Machine.quiescent m && Machine.quiescent m');
  checki "load forwarded from the ring" 2 !seen;
  checki "restored load forwarded too" 2 !seen';
  check (Alcotest.array Alcotest.int) "same memory" (Memory.snapshot (Machine.memory m))
    (Memory.snapshot (Machine.memory m'))

let test_machine_rmw_atomicity () =
  (* two threads fetch-add the same cell 50 times each; the result must be
     exactly 100 under every schedule tried *)
  List.iter
    (fun seed ->
      let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
      let mem = Machine.memory m in
      let x = Memory.alloc mem ~name:"x" ~init:0 in
      for t = 0 to 1 do
        ignore
          (Machine.spawn m ~name:(Printf.sprintf "t%d" t) (fun () ->
               for _ = 1 to 50 do
                 ignore (Program.fetch_add x 1)
               done))
      done;
      let rng = Random.State.make [| seed |] in
      (match Sched.run m (Sched.weighted rng ~drain_weight:0.3) with
      | Sched.Quiescent -> ()
      | _ -> Alcotest.fail "not quiescent");
      checki "fetch_add total" 100 (Memory.get mem x))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Schedulers                                                          *)
(* ------------------------------------------------------------------ *)

let test_sched_replay_roundtrip () =
  let mk () =
    let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
    let mem = Machine.memory m in
    let x = Memory.alloc mem ~name:"x" ~init:0 in
    let y = Memory.alloc mem ~name:"y" ~init:0 in
    let r = ref 0 in
    let _ = Machine.spawn m ~name:"a" (fun () -> Program.store x 1; r := !r + Program.load y) in
    let _ = Machine.spawn m ~name:"b" (fun () -> Program.store y 1; r := !r + (10 * Program.load x)) in
    (m, r)
  in
  let m1, r1 = mk () in
  let recorded = ref [] in
  let rng = Random.State.make [| 77 |] in
  let policy = Sched.record (fun i -> recorded := i :: !recorded) (Sched.uniform rng) in
  (match Sched.run m1 policy with Sched.Quiescent -> () | _ -> Alcotest.fail "q");
  let m2, r2 = mk () in
  let fallback _ _ = Alcotest.fail "replay must cover the whole run" in
  (match Sched.run m2 (Sched.replay (List.rev !recorded) ~fallback) with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "q2");
  checki "replayed run reproduces outcome" !r1 !r2;
  check Alcotest.int "replayed run reproduces memory" (Machine.fingerprint m1)
    (Machine.fingerprint m2)

let test_sched_deadlock_detection () =
  (* a thread waiting forever on a CAS that can never succeed still
     terminates the scheduler via quiescence of others? No — build a real
     deadlock: impossible by construction (drains always enabled), so check
     instead that Max_steps fires on an infinite spin. *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let _ =
    Machine.spawn m ~name:"spinner" (fun () ->
        while Program.load x = 0 do
          Program.spin_pause ()
        done)
  in
  let rng = Random.State.make [| 1 |] in
  (match Sched.run ~max_steps:1000 m (Sched.uniform rng) with
  | Sched.Max_steps -> ()
  | _ -> Alcotest.fail "expected Max_steps")

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let timing_machine body =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let _ = Machine.spawn m ~name:"t" (body x) in
  m

let costs =
  {
    Timing.load_cost = 2;
    store_cost = 3;
    rmw_cost = 20;
    fence_cost = 10;
    drain_latency = 7;
    pause_cost = 1;
  }

let test_timing_work_only () =
  let m = timing_machine (fun _ () -> Program.work 100) in
  let r = Timing.run m costs in
  checki "work cycles" 100 r.Timing.makespan;
  checkb "quiescent" true (r.Timing.outcome = Sched.Quiescent)

let test_timing_fence_stall () =
  (* store (3) then fence: drain completes at 3 + 7 = 10; fence executes at
     10 and costs 10 -> finish 20 *)
  let m =
    timing_machine (fun x () ->
        Program.store x 1;
        Program.fence ())
  in
  let r = Timing.run m costs in
  checki "fence waits for drain" 20 r.Timing.makespan;
  checki "stall accounted" 7 r.Timing.threads.(0).Timing.fence_stall;
  checki "one fence" 1 r.Timing.threads.(0).Timing.fences

let test_timing_no_fence_no_stall () =
  let m =
    timing_machine (fun x () ->
        Program.store x 1;
        ignore (Program.load x))
  in
  let r = Timing.run m costs in
  (* store at 0 (cost 3), load at 3 (cost 2): finish 5; drain happens in
     background and does not delay the thread *)
  checki "no stall without fence" 5 r.Timing.makespan

let test_timing_deterministic () =
  let run () =
    let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
    let mem = Machine.memory m in
    let x = Memory.alloc mem ~name:"x" ~init:0 in
    for t = 0 to 2 do
      ignore
        (Machine.spawn m ~name:(Printf.sprintf "t%d" t) (fun () ->
             for i = 1 to 20 do
               Program.store x ((10 * t) + i);
               Program.work 5;
               ignore (Program.load x)
             done))
    done;
    let r = Timing.run m costs in
    (r.Timing.makespan, Machine.fingerprint m)
  in
  let a = run () and b = run () in
  checkb "timing is deterministic" true (a = b)

let test_timing_stats () =
  let m =
    timing_machine (fun x () ->
        Program.store x 1;
        Program.store x 2;
        ignore (Program.load x);
        ignore (Program.cas x ~expect:2 ~replace:3);
        Program.work 11)
  in
  let r = Timing.run m costs in
  let t = r.Timing.threads.(0) in
  checki "stores" 2 t.Timing.stores;
  checki "loads" 1 t.Timing.loads;
  checki "rmws" 1 t.Timing.rmws;
  checki "work" 11 t.Timing.work_cycles

let test_timing_domain_isolation () =
  (* two domains running [Timing.run] concurrently must not perturb each
     other's clocks — each run owns a private clock, with no module-global
     time left anywhere *)
  let mk extra =
    let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
    let mem = Machine.memory m in
    let x = Memory.alloc mem ~name:"x" ~init:0 in
    let y = Memory.alloc mem ~name:"y" ~init:0 in
    let _ =
      Machine.spawn m ~name:"a" (fun () ->
          Program.work (10_000 * extra);
          for i = 1 to 40 do
            Program.store x i;
            ignore (Program.load y)
          done)
    in
    let _ =
      Machine.spawn m ~name:"b" (fun () ->
          for i = 1 to 40 do
            Program.store y i;
            ignore (Program.load x);
            Program.fence ()
          done)
    in
    m
  in
  let seq0 = Timing.run (mk 0) costs in
  let seq9 = Timing.run (mk 9) costs in
  let d0 = Domain.spawn (fun () -> Timing.run (mk 0) costs) in
  let d9 = Domain.spawn (fun () -> Timing.run (mk 9) costs) in
  let par0 = Domain.join d0 and par9 = Domain.join d9 in
  checki "short run makespan unchanged" seq0.Timing.makespan
    par0.Timing.makespan;
  checki "long run makespan unchanged" seq9.Timing.makespan
    par9.Timing.makespan;
  checki "fence stalls unchanged" seq0.Timing.threads.(1).Timing.fence_stall
    par0.Timing.threads.(1).Timing.fence_stall;
  checkb "the two grids differ (test is not vacuous)" true
    (seq0.Timing.makespan <> seq9.Timing.makespan)

let test_timing_sharded_sink_byte_identical () =
  (* the sharded counter plane is invisible in the totals: a run whose
     threads accumulate into per-thread shards (merged at quiescence) must
     render the same sink JSON, byte for byte, as a run writing the plain
     sink directly — queue-op counters (Counted shim, shard-routed) and
     machine counters alike *)
  let build () =
    let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
    let params =
      {
        Ws_core.Queue_intf.capacity = 64;
        delta = 2;
        worker_fence = false;
        tag = "q";
      }
    in
    let q =
      Ws_core.Registry.create ~shard:0 (Ws_core.Registry.find "ff-the") m
        params
    in
    let _ =
      Machine.spawn m ~name:"owner" (fun () ->
          for i = 1 to 16 do
            Ws_core.Queue_intf.put q i
          done;
          let rec drain () =
            match Ws_core.Queue_intf.take q with
            | `Task _ -> drain ()
            | `Empty -> ()
          in
          drain ())
    in
    let _ =
      Machine.spawn m ~name:"thief" (fun () ->
          for _ = 1 to 8 do
            ignore (Ws_core.Queue_intf.steal q)
          done)
    in
    m
  in
  let plain = Telemetry.Sink.create () in
  let r1 = Timing.run ~sink:plain (build ()) costs in
  let merged = Telemetry.Sink.create () in
  let shards = Telemetry.Shards.create ~n:2 in
  let r2 = Timing.run ~sink:merged ~shards (build ()) costs in
  checki "same makespan" r1.Timing.makespan r2.Timing.makespan;
  Alcotest.(check string)
    "sink JSON byte-identical"
    (Telemetry.Json.to_string ~indent:true (Telemetry.Sink.to_json plain))
    (Telemetry.Json.to_string ~indent:true (Telemetry.Sink.to_json merged))

(* The engine as it stood before each core cached its next events: every
   step rescans every core (two feasibility calls each) and tests
   [Machine.quiescent] before selecting. Kept verbatim as the oracle that the
   event-driven engine must match field for field and byte for byte. It
   uses only public [Machine] and [Telemetry] API. *)
module Reference_timing = struct
  open Timing

  type core = {
    mutable clock : int;
    mutable drain_free : int;  (* when the drain engine can start its next write *)
    mutable buffer_emptied_at : int;  (* time of the drain that last emptied the buffer *)
    issue_times : int Queue.t;  (* completion times of buffered stores, oldest first *)
    store_ids : int Queue.t;  (* trace ids of buffered stores, parallel to issue_times *)
    mutable store_was_blocked : bool;  (* pending store has waited on a full buffer *)
    mutable instructions : int;
    mutable loads : int;
    mutable stores : int;
    mutable rmws : int;
    mutable fences : int;
    mutable fence_stall : int;
    mutable work_cycles : int;
  }

  type clock = { mutable now : int }

  let run ?(max_steps = 50_000_000) ?clock:clk ?sink ?shards ?tracer
      ?(trace_pid = 0) m costs =
    (match Machine.config m with
    | { buffer_model = Store_buffer.Abstract; _ } -> ()
    | _ -> invalid_arg "Timing.run: requires the Abstract buffer model");
    let clk = match clk with Some c -> c | None -> { now = 0 } in
    let n = Machine.thread_count m in
    (* One knob for counter collection: attaching the sink here also turns on
       the machine-level counters (loads/stores/occupancy/...); this function
       adds the stall attribution the machine cannot see. With [shards], each
       simulated thread accumulates into its own shard and the batched merge
       below (this run's quiescence point) folds them into the root sink, so
       the reported totals are byte-identical to an unsharded run. *)
    (match sink, shards with
    | Some s, Some sh -> Machine.set_sharded_sink m s sh
    | Some s, None -> Machine.set_sink m s
    | None, _ -> ());
    (* Stall attribution goes to the stalled thread's shard (or the root
       sink when unsharded). *)
    let stall_sink tid s =
      match shards with Some sh -> Telemetry.Shards.shard sh tid | None -> s
    in
    (match tracer with
    | None -> ()
    | Some tr ->
        for tid = 0 to n - 1 do
          Telemetry.Chrome_trace.set_thread_name tr ~pid:trace_pid ~tid
            (Machine.thread_name m tid)
        done);
    let next_store_id = ref 0 in
    let cores =
      Array.init n (fun _ ->
          {
            clock = 0;
            drain_free = 0;
            buffer_emptied_at = 0;
            issue_times = Queue.create ();
            store_ids = Queue.create ();
            store_was_blocked = false;
            instructions = 0;
            loads = 0;
            stores = 0;
            rmws = 0;
            fences = 0;
            fence_stall = 0;
            work_cycles = 0;
          })
    in
    (* [-1] encodes "no event" below, so the selection loop handles ints only
       (no option/tuple allocation per simulated event). *)
    let next_drain_time tid =
      let c = cores.(tid) in
      if Queue.is_empty c.issue_times then -1
      else max c.drain_free (Queue.peek c.issue_times) + costs.drain_latency
    in
    (* Time at which the instruction pending on [tid] can execute, or -1 if
       it must wait for a drain (full buffer / fence / RMW). *)
    let feasible_time tid =
      let c = cores.(tid) in
      match Machine.pending_class m tid with
      | Machine.C_none -> -1
      | Machine.C_load | Machine.C_work | Machine.C_free -> c.clock
      | Machine.C_store ->
          if Machine.store_blocked m tid then begin
            c.store_was_blocked <- true;
            -1
          end
          else c.clock
      | Machine.C_rmw | Machine.C_fence ->
          if Queue.is_empty c.issue_times then max c.clock c.buffer_emptied_at
          else -1
    in
    let steps = ref 0 in
    let outcome = ref Sched.Quiescent in
    let best_time = ref (-1) in
    let best_kind = ref 0 in
    let best_tid = ref 0 in
    let better time kind tid =
      !best_time < 0
      || time < !best_time
      || time = !best_time
         && (kind < !best_kind || (kind = !best_kind && tid < !best_tid))
    in
    (try
       while not (Machine.quiescent m) do
         if !steps >= max_steps then begin
           outcome := Sched.Max_steps;
           raise Exit
         end;
         (* Select the lexicographically least (time, kind, tid) event; drains
            (kind 0) beat instructions on ties so a load at time t sees every
            store that reached memory by t. *)
         best_time := -1;
         for tid = 0 to n - 1 do
           let dt = next_drain_time tid in
           if dt >= 0 && better dt 0 tid then begin
             best_time := dt;
             best_kind := 0;
             best_tid := tid
           end;
           let ft = feasible_time tid in
           if ft >= 0 && better ft 1 tid then begin
             best_time := ft;
             best_kind := 1;
             best_tid := tid
           end
         done;
         (if !best_time < 0 then begin
            outcome := Sched.Deadlock;
            raise Exit
          end
          else if !best_kind = 0 then begin
            (* drain *)
            let time = !best_time in
            let tid = !best_tid in
            clk.now <- time;
            let c = cores.(tid) in
            Machine.apply m (Machine.Drain (tid, 0));
            ignore (Queue.pop c.issue_times);
            c.drain_free <- time;
            if Queue.is_empty c.issue_times then c.buffer_emptied_at <- time;
            match tracer with
            | None -> ()
            | Some tr ->
                let id = Queue.pop c.store_ids in
                Telemetry.Chrome_trace.async_end tr ~name:"sb-store" ~cat:"sb"
                  ~pid:trace_pid ~tid ~ts:time ~id ();
                Telemetry.Chrome_trace.counter tr ~name:"sb-entries" ~cat:"sb"
                  ~pid:trace_pid ~tid ~ts:time
                  ~values:[ ("entries", Queue.length c.issue_times) ]
                  ()
          end
          else begin
            let time = !best_time in
            let tid = !best_tid in
            clk.now <- time;
            let c = cores.(tid) in
            let cls = Machine.pending_class m tid in
            let work = Machine.pending_work m tid in
            (* Grab the description before [apply] consumes the instruction;
               only when tracing — it allocates a string per instruction. *)
            let descr =
              match tracer with
              | None -> None
              | Some _ -> Machine.pending_request m tid
            in
            let clock_before = c.clock in
            Machine.apply m (Machine.Step tid);
            c.instructions <- c.instructions + 1;
            (match cls with
            | Machine.C_load ->
                c.loads <- c.loads + 1;
                c.clock <- time + costs.load_cost
            | Machine.C_store ->
                c.stores <- c.stores + 1;
                c.clock <- time + costs.store_cost;
                Queue.push c.clock c.issue_times;
                (* If the store sat on a full buffer, the wait ended when the
                   drain engine freed a slot at [drain_free]. *)
                if c.store_was_blocked then begin
                  c.store_was_blocked <- false;
                  match sink with
                  | None -> ()
                  | Some s ->
                      let s = stall_sink tid s in
                      s.Telemetry.Sink.drain_stall_cycles <-
                        s.Telemetry.Sink.drain_stall_cycles
                        + max 0 (c.drain_free - clock_before)
                end
            | Machine.C_rmw ->
                c.rmws <- c.rmws + 1;
                c.fence_stall <- c.fence_stall + (time - clock_before);
                c.clock <- time + costs.rmw_cost
            | Machine.C_fence ->
                c.fences <- c.fences + 1;
                c.fence_stall <- c.fence_stall + (time - clock_before);
                c.clock <- time + costs.fence_cost
            | Machine.C_work ->
                c.work_cycles <- c.work_cycles + work;
                c.clock <- time + work
            | Machine.C_free -> c.clock <- time + costs.pause_cost
            | Machine.C_none -> assert false);
            (match cls, sink with
            | (Machine.C_rmw | Machine.C_fence), Some s ->
                let s = stall_sink tid s in
                s.Telemetry.Sink.fence_stall_cycles <-
                  s.Telemetry.Sink.fence_stall_cycles + (time - clock_before)
            | _ -> ());
            match tracer with
            | None -> ()
            | Some tr ->
                let stall = time - clock_before in
                (match cls with
                | (Machine.C_rmw | Machine.C_fence) when stall > 0 ->
                    Telemetry.Chrome_trace.complete tr ~name:"fence-stall"
                      ~cat:"stall" ~pid:trace_pid ~tid ~ts:clock_before
                      ~dur:stall ()
                | _ -> ());
                let name =
                  match descr with Some d -> d | None -> "instr"
                in
                let cat =
                  match cls with
                  | Machine.C_load -> "load"
                  | Machine.C_store -> "store"
                  | Machine.C_rmw -> "rmw"
                  | Machine.C_fence -> "fence"
                  | Machine.C_work -> "work"
                  | Machine.C_free -> "free"
                  | Machine.C_none -> assert false
                in
                Telemetry.Chrome_trace.complete tr ~name ~cat ~pid:trace_pid
                  ~tid ~ts:time
                  ~dur:(max 0 (c.clock - time))
                  ();
                match cls with
                | Machine.C_store ->
                    let id = !next_store_id in
                    incr next_store_id;
                    Queue.push id c.store_ids;
                    Telemetry.Chrome_trace.async_begin tr ~name:"sb-store"
                      ~cat:"sb" ~pid:trace_pid ~tid ~ts:time ~id ();
                    Telemetry.Chrome_trace.counter tr ~name:"sb-entries"
                      ~cat:"sb" ~pid:trace_pid ~tid ~ts:time
                      ~values:[ ("entries", Queue.length c.issue_times) ]
                      ()
                | _ -> ()
          end);
         incr steps
       done
     with Exit -> ());
    (* Quiescence point: no simulated thread is running, so the batched
       shard merge is safe and the root sink now carries the run's totals. *)
    (match sink, shards with
    | Some s, Some sh -> Telemetry.Shards.merge ~into:s sh
    | _ -> ());
    let threads =
      Array.map
        (fun c ->
          {
            finish_time = c.clock;
            instructions = c.instructions;
            loads = c.loads;
            stores = c.stores;
            rmws = c.rmws;
            fences = c.fences;
            fence_stall = c.fence_stall;
            work_cycles = c.work_cycles;
          })
        cores
    in
    let makespan = Array.fold_left (fun acc c -> max acc c.clock) 0 cores in
    { makespan; outcome = !outcome; steps = !steps; threads }
end

(* Random small machines run under both engines. A load feeds the value it
   reads back into the program (odd values add work), so the instruction
   stream itself depends on the event order. *)
type timing_op =
  | T_load of int
  | T_store of int * int
  | T_fence
  | T_cas of int * int * int
  | T_fetch_add of int * int
  | T_work of int
  | T_pause

type timing_case = {
  sb : int;
  cells : int;
  tcosts : Timing.cost_model;
  limit : int option;  (** [max_steps], when the run is cut short *)
  progs : timing_op list array;
}

let timing_case_machine tc =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:tc.sb) in
  let base =
    Memory.alloc_array (Machine.memory m) ~name:"c" ~len:tc.cells ~init:0
  in
  let cell a = Addr.offset base a in
  let exec = function
    | T_load a ->
        let v = Program.load (cell a) in
        if v land 1 = 1 then Program.work v
    | T_store (a, v) -> Program.store (cell a) v
    | T_fence -> Program.fence ()
    | T_cas (a, expect, replace) ->
        ignore (Program.cas (cell a) ~expect ~replace)
    | T_fetch_add (a, d) -> ignore (Program.fetch_add (cell a) d)
    | T_work n -> Program.work n
    | T_pause -> Program.spin_pause ()
  in
  Array.iteri
    (fun i ops ->
      ignore
        (Machine.spawn m ~name:(Printf.sprintf "t%d" i) (fun () ->
             List.iter exec ops)))
    tc.progs;
  m

(* Everything a run shows: the reports of a plain-sink, a sharded-sink and
   a traced run, both sinks' JSON, the final memory and the trace bytes. *)
let timing_observe ~reference tc =
  let run ?sink ?shards ?tracer m =
    if reference then
      Reference_timing.run ?max_steps:tc.limit ?sink ?shards ?tracer
        ~trace_pid:3 m tc.tcosts
    else
      Timing.run ?max_steps:tc.limit ?sink ?shards ?tracer ~trace_pid:3 m
        tc.tcosts
  in
  let json s = Telemetry.Json.to_string (Telemetry.Sink.to_json s) in
  let m = timing_case_machine tc in
  let plain = Telemetry.Sink.create () in
  let r = run ~sink:plain m in
  let mem = Memory.snapshot (Machine.memory m) in
  let merged = Telemetry.Sink.create () in
  let shards = Telemetry.Shards.create ~n:2 in
  let r_sharded = run ~sink:merged ~shards (timing_case_machine tc) in
  let tr = Telemetry.Chrome_trace.create () in
  let r_traced = run ~tracer:tr (timing_case_machine tc) in
  ( (r, r_sharded, r_traced),
    (json plain, json merged),
    mem,
    Telemetry.Chrome_trace.to_string tr )

let timing_matches_reference tc =
  timing_observe ~reference:true tc = timing_observe ~reference:false tc

let timing_case_gen =
  let open QCheck.Gen in
  let cost = int_range 0 30 in
  let* sb = int_range 1 4 in
  let* cells = int_range 1 4 in
  let addr = int_bound (cells - 1) in
  let op =
    frequency
      [
        (3, map (fun a -> T_load a) addr);
        (4, map2 (fun a v -> T_store (a, v)) addr (int_range 1 5));
        (1, return T_fence);
        ( 1,
          map3 (fun a e r -> T_cas (a, e, r)) addr (int_bound 3) (int_range 1 5)
        );
        (1, map2 (fun a d -> T_fetch_add (a, d)) addr (int_range 1 3));
        (1, map (fun n -> T_work n) (int_range 1 40));
        (1, return T_pause);
      ]
  in
  let* progs = array_size (int_range 1 5) (list_size (int_range 0 12) op) in
  let* load_cost = cost
  and* store_cost = cost
  and* rmw_cost = cost
  and* fence_cost = cost
  and* drain_latency = int_range 0 40
  and* pause_cost = cost in
  let+ limit = frequency [ (2, return None); (1, map Option.some (int_bound 60)) ] in
  {
    sb;
    cells;
    tcosts =
      {
        Timing.load_cost;
        store_cost;
        rmw_cost;
        fence_cost;
        drain_latency;
        pause_cost;
      };
    limit;
    progs;
  }

let print_timing_case tc =
  let op = function
    | T_load a -> Printf.sprintf "r%d" a
    | T_store (a, v) -> Printf.sprintf "w%d=%d" a v
    | T_fence -> "fence"
    | T_cas (a, e, r) -> Printf.sprintf "cas%d(%d->%d)" a e r
    | T_fetch_add (a, d) -> Printf.sprintf "fadd%d+%d" a d
    | T_work n -> Printf.sprintf "work%d" n
    | T_pause -> "pause"
  in
  let c = tc.tcosts in
  Printf.sprintf
    "sb=%d cells=%d costs(ld=%d st=%d rmw=%d fence=%d drain=%d pause=%d) \
     max_steps=%s\n%s"
    tc.sb tc.cells c.Timing.load_cost c.Timing.store_cost c.Timing.rmw_cost
    c.Timing.fence_cost c.Timing.drain_latency c.Timing.pause_cost
    (match tc.limit with None -> "-" | Some n -> string_of_int n)
    (String.concat "\n"
       (Array.to_list
          (Array.map (fun ops -> String.concat "; " (List.map op ops)) tc.progs)))

let timing_oracle_prop =
  QCheck.Test.make ~name:"event-driven engine = per-step scan reference"
    ~count:300
    (QCheck.make ~print:print_timing_case timing_case_gen)
    timing_matches_reference

let oracle_case ?limit progs =
  { sb = 1; cells = 2; tcosts = costs; limit; progs }

let test_timing_oracle_full_buffer () =
  (* sb_capacity 1: the second store waits for the first to drain *)
  let tc =
    oracle_case
      [|
        [ T_store (0, 1); T_store (1, 2); T_store (0, 3); T_load 1 ];
        [ T_store (1, 5); T_work 2; T_store (1, 7); T_fence ];
      |]
  in
  checkb "matches reference" true (timing_matches_reference tc);
  let s = Telemetry.Sink.create () in
  ignore (Timing.run ~sink:s (timing_case_machine tc) tc.tcosts);
  checkb "drain stall recorded" true (s.Telemetry.Sink.drain_stall_cycles > 0)

let test_timing_oracle_max_steps_boundary () =
  let progs =
    [|
      [ T_store (0, 1); T_fence; T_load 1; T_fetch_add (0, 2) ];
      [ T_store (1, 3); T_pause; T_cas (0, 1, 4); T_work 5 ];
    |]
  in
  let needed =
    (Timing.run (timing_case_machine (oracle_case progs)) costs).steps
  in
  let outcome limit =
    let tc = oracle_case ~limit progs in
    checkb
      (Printf.sprintf "max_steps %d matches reference" limit)
      true (timing_matches_reference tc);
    (Timing.run ~max_steps:limit (timing_case_machine tc) costs).outcome
  in
  checkb "budget equal to the steps needed: quiescent" true
    (outcome needed = Sched.Quiescent);
  checkb "one step short: max steps" true
    (outcome (needed - 1) = Sched.Max_steps)

(* ------------------------------------------------------------------ *)
(* Explore                                                             *)
(* ------------------------------------------------------------------ *)

let test_explore_replay_failure () =
  let st = Explore.search ~mk:(sb_litmus_instance ~fences:false) () in
  match st.Explore.failures with
  | [] -> Alcotest.fail "expected a weak-outcome failure"
  | (choices, _) :: _ -> (
      match Explore.replay_choices ~mk:(sb_litmus_instance ~fences:false) choices with
      | Error _ -> () (* the failure reproduces *)
      | Ok () -> Alcotest.fail "replayed schedule did not reproduce the failure")

let test_explore_counts_preemptions () =
  (* TSO's store/load reordering comes from the memory subsystem, not from
     thread interleaving: even with a preemption bound of 0 (threads run
     serially), the weak outcome is reachable purely by delaying drains. *)
  let st =
    Explore.search ~preemption_bound:(Some 0)
      ~mk:(sb_litmus_instance ~fences:false) ()
  in
  checkb "weak outcome needs no preemptions" true (st.Explore.failures <> []);
  checkb "thread interleavings were pruned" true (st.Explore.pruned > 0);
  (* sequentially-consistent interleaving nondeterminism, by contrast, DOES
     need preemptions: with fences and bound 0 the space is tiny *)
  let fenced =
    Explore.search ~preemption_bound:(Some 0)
      ~mk:(sb_litmus_instance ~fences:true) ()
  in
  checkb "fenced + bound 0 has no failures" true (fenced.Explore.failures = [])

let test_explore_memo_equivalence () =
  (* the visited-state cache cuts runs without changing the verdict, and a
     memoized failure prefix still replays *)
  let plain = Explore.search ~mk:(sb_litmus_instance ~fences:false) () in
  let memo = Explore.search ~memo:true ~mk:(sb_litmus_instance ~fences:false) () in
  checkb "weak outcome still found" true (memo.Explore.failures <> []);
  checkb "memo explores fewer runs" true (memo.Explore.runs < plain.Explore.runs);
  checkb "memo hits reported" true (memo.Explore.memo_hits > 0);
  checki "plain search reports no memo hits" 0 plain.Explore.memo_hits;
  (match memo.Explore.failures with
  | (choices, _) :: _ -> (
      match Explore.replay_choices ~mk:(sb_litmus_instance ~fences:false) choices with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "memoized failure prefix did not reproduce")
  | [] -> assert false);
  let memo_f = Explore.search ~memo:true ~mk:(sb_litmus_instance ~fences:true) () in
  checkb "no false positives under memoization" true (memo_f.Explore.failures = []);
  checkb "memoized fenced search still exhausts" true
    (memo_f.Explore.truncated = 0 && memo_f.Explore.runs > 0);
  (* dominance check: memoization stays exact under a preemption bound — a
     state first seen with little remaining budget must not mask a later
     visit with more *)
  let bounded =
    Explore.search ~preemption_bound:(Some 0) ~memo:true
      ~mk:(sb_litmus_instance ~fences:false) ()
  in
  checkb "weak outcome found at bound 0 with memo" true
    (bounded.Explore.failures <> [])

(* ------------------------------------------------------------------ *)
(* Transition footprints                                               *)
(* ------------------------------------------------------------------ *)

let test_footprint_independence () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let y = Memory.alloc mem ~name:"y" ~init:0 in
  let t0 = Machine.spawn m ~name:"t0" (fun () -> Program.store x 1) in
  let t1 =
    Machine.spawn m ~name:"t1" (fun () ->
        ignore (Program.load x);
        ignore (Program.load y))
  in
  let indep = Machine.independent in
  let f_store = Machine.footprint m (Machine.Step t0) in
  let f_load_x = Machine.footprint m (Machine.Step t1) in
  (* a store step only enters the issuing thread's buffer — no shared
     address — so it commutes with the other thread's load even of the
     same cell (TSO in one line: the reordering lives in the drain) *)
  checkb "buffered store || load of same cell" true (indep f_store f_load_x);
  checkb "independence is symmetric" true
    (indep f_load_x f_store = indep f_store f_load_x);
  (* transitions of the same thread never commute *)
  checkb "same thread is dependent" false (indep f_store f_store);
  ignore (Machine.apply m (Machine.Step t0)) (* x=1 now queued in t0's SB *);
  let f_drain = Machine.footprint m (Machine.Drain (t0, 0)) in
  let f_load_x = Machine.footprint m (Machine.Step t1) in
  (* the drain is the memory write of x: it must not commute with a load
     of x... *)
  checkb "drain x || load x" false (indep f_drain f_load_x);
  checkb "dependence is symmetric" false (indep f_load_x f_drain);
  checki "drain footprint writes x" (Addr.to_index x)
    (Machine.footprint_write f_drain);
  ignore (Machine.apply m (Machine.Step t1)) (* t1 consumed its load of x *);
  let f_load_y = Machine.footprint m (Machine.Step t1) in
  (* ...but it commutes with a load of a different cell *)
  checkb "drain x || load y" true (indep f_drain f_load_y)

let test_footprint_rmw_and_flush () =
  (* CAS reads and writes its cell, so two CASes on the same cell conflict
     write/write, and a drain of that cell conflicts with either *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let t0 = Machine.spawn m ~name:"t0" (fun () -> Program.store x 1) in
  let t1 =
    Machine.spawn m ~name:"t1" (fun () ->
        ignore (Program.cas x ~expect:0 ~replace:2))
  in
  let t2 =
    Machine.spawn m ~name:"t2" (fun () ->
        ignore (Program.cas x ~expect:0 ~replace:3))
  in
  let f_cas1 = Machine.footprint m (Machine.Step t1) in
  let f_cas2 = Machine.footprint m (Machine.Step t2) in
  checkb "cas x || cas x" false (Machine.independent f_cas1 f_cas2);
  checki "cas reads x" (Addr.to_index x) (Machine.footprint_read f_cas1);
  checki "cas writes x" (Addr.to_index x) (Machine.footprint_write f_cas1);
  ignore (Machine.apply m (Machine.Step t0));
  let f_drain = Machine.footprint m (Machine.Drain (t0, 0)) in
  checkb "drain x || cas x" false (Machine.independent f_drain f_cas1);
  (* realistic model: a drain stages into B, and the flush out of B carries
     the memory write — both claim the address *)
  let m2 = Machine.create (Machine.realistic_config ~sb_capacity:2 ~coalesce:false) in
  let mem2 = Machine.memory m2 in
  let a = Memory.alloc mem2 ~name:"a" ~init:0 in
  let b = Memory.alloc mem2 ~name:"b" ~init:0 in
  let u0 = Machine.spawn m2 ~name:"u0" (fun () -> Program.store a 1) in
  let u1 =
    Machine.spawn m2 ~name:"u1" (fun () ->
        ignore (Program.load a);
        ignore (Program.load b))
  in
  ignore (Machine.apply m2 (Machine.Step u0));
  let f_stage = Machine.footprint m2 (Machine.Drain (u0, 0)) in
  checki "staging drain claims the write" (Addr.to_index a)
    (Machine.footprint_write f_stage);
  ignore (Machine.apply m2 (Machine.Drain (u0, 0))) (* a=1 staged in B *);
  let f_flush = Machine.footprint m2 (Machine.Flush u0) in
  let f_load_a = Machine.footprint m2 (Machine.Step u1) in
  checkb "flush a || load a" false (Machine.independent f_flush f_load_a);
  ignore (Machine.apply m2 (Machine.Step u1));
  let f_load_b = Machine.footprint m2 (Machine.Step u1) in
  checkb "flush a || load b" true (Machine.independent f_flush f_load_b)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)
(* ------------------------------------------------------------------ *)

(* A deterministic two-thread instance with enough variety to exercise the
   whole snapshot payload: buffered stores, a load response, a CAS. *)
let snap_mk () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let y = Memory.alloc mem ~name:"y" ~init:0 in
  let _ =
    Machine.spawn m ~name:"t0" (fun () ->
        Program.store x 1;
        let v = Program.load y in
        Program.store x (v + 2))
  in
  let _ =
    Machine.spawn m ~name:"t1" (fun () ->
        Program.store y 7;
        ignore (Program.cas x ~expect:0 ~replace:9))
  in
  Machine.set_record_responses m true;
  m

let rec drive m n =
  if n > 0 then
    match Machine.enabled m with
    | [] -> ()
    | tr :: _ ->
        ignore (Machine.apply m tr);
        drive m (n - 1)

let quiesce m = drive m max_int

let test_snapshot_restore_fingerprint () =
  let m1 = snap_mk () in
  drive m1 5;
  let fp = Machine.fingerprint m1 in
  let snap = Machine.snapshot_create () in
  Machine.snapshot m1 snap;
  (* the snapshot must share nothing with the source: driving the source
     on must not disturb what was captured *)
  quiesce m1;
  checkb "source moved past the captured state" true
    (Machine.fingerprint m1 <> fp);
  let m2 = snap_mk () in
  Machine.restore_into snap m2;
  checki "restored fingerprint equals the captured one" fp
    (Machine.fingerprint m2);
  checkb "restored machine keeps recording" true (Machine.record_responses m2);
  (* the restored continuations are live: the same deterministic schedule
     converges to the same final state as the source *)
  quiesce m2;
  checki "restored machine converges with the source" (Machine.fingerprint m1)
    (Machine.fingerprint m2);
  (* and the snapshot also shares nothing with machines it was restored
     into: a second restore lands on the captured state again *)
  let m3 = snap_mk () in
  Machine.restore_into snap m3;
  checki "second restore from the same snapshot" fp (Machine.fingerprint m3)

let test_snapshot_restore_listeners () =
  (* the machine.mli contract: listeners attached to the restore target
     survive the restore, but the fast-forward itself is silent — no event
     is emitted for the replayed prefix, and a Trace attached before the
     restore records only what runs afterwards *)
  let m1 = snap_mk () in
  drive m1 5;
  let snap = Machine.snapshot_create () in
  Machine.snapshot m1 snap;
  let m2 = snap_mk () in
  let trace = Trace.attach m2 in
  let events = ref 0 in
  Machine.on_event m2 (fun _ -> incr events);
  Machine.restore_into snap m2;
  checki "fast-forward emits no event" 0 !events;
  checkb "trace saw nothing during the restore" true
    (Trace.entries trace = []);
  (* the listeners were not detached: the first post-restore transition
     reaches both of them *)
  (match Machine.enabled m2 with
  | [] -> Alcotest.fail "restored machine should not be quiescent"
  | tr :: _ -> ignore (Machine.apply m2 tr));
  checkb "listener fires after the restore" true (!events > 0);
  checkb "trace records post-restore transitions" true
    (Trace.entries trace <> [])

let test_snapshot_preconditions () =
  (* recording must start before the first instruction *)
  let m = snap_mk () in
  drive m 1;
  (try
     Machine.set_record_responses m true;
     (* already recording: toggling on again is a no-op, so force the
        error path via a non-recording machine below *)
     ()
   with Invalid_argument _ -> Alcotest.fail "re-enabling while recording");
  let plain = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory plain in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let tid = Machine.spawn plain ~name:"t" (fun () -> Program.store x 1) in
  ignore (Machine.apply plain (Machine.Step tid));
  (try
     Machine.set_record_responses plain true;
     Alcotest.fail "enabling recording mid-run must raise"
   with Invalid_argument _ -> ());
  (* snapshotting a non-recording machine must raise *)
  let snap = Machine.snapshot_create () in
  (try
     Machine.snapshot plain snap;
     Alcotest.fail "snapshot of a non-recording machine must raise"
   with Invalid_argument _ -> ());
  (* restoring onto a driven machine must raise *)
  let src = snap_mk () in
  drive src 3;
  Machine.snapshot src snap;
  let used = snap_mk () in
  drive used 1;
  try
    Machine.restore_into snap used;
    Alcotest.fail "restore onto a driven machine must raise"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* PSO (the §10 future-work model)                                     *)
(* ------------------------------------------------------------------ *)

(* The work-stealing publication idiom: store the task, then bump the tail.
   TSO orders the two stores for free; PSO does not, so a thief can observe
   the new tail before the task — unless a fence sits between the stores. *)
let publication_instance ~config ~fenced () =
  let m = Machine.create config in
  let mem = Machine.memory m in
  let task = Memory.alloc mem ~name:"task" ~init:(-1) in
  let tail = Memory.alloc mem ~name:"tail" ~init:0 in
  let seen = ref None in
  let _ =
    Machine.spawn m ~name:"worker" (fun () ->
        Program.store task 7;
        if fenced then Program.fence ();
        Program.store tail 1)
  in
  let _ =
    Machine.spawn m ~name:"thief" (fun () ->
        if Program.load tail = 1 then seen := Some (Program.load task))
  in
  let check () =
    match !seen with
    | Some v when v <> 7 -> Error (Printf.sprintf "stale task %d published" v)
    | _ -> Ok ()
  in
  { Explore.machine = m; check }

let test_pso_breaks_publication () =
  let st =
    Explore.search
      ~mk:(publication_instance ~config:(Machine.pso_config ~sb_capacity:4) ~fenced:false)
      ()
  in
  checkb "PSO reorders the publication stores" true (st.Explore.failures <> [])

let test_pso_fence_restores_publication () =
  let st =
    Explore.search
      ~mk:(publication_instance ~config:(Machine.pso_config ~sb_capacity:4) ~fenced:true)
      ()
  in
  checkb "a store-store fence fixes it" true (st.Explore.failures = []);
  checki "search exhausted" 0 st.Explore.truncated

let test_tso_orders_publication_for_free () =
  let st =
    Explore.search
      ~mk:
        (publication_instance ~config:(Machine.abstract_config ~sb_capacity:4)
           ~fenced:false)
      ()
  in
  checkb "TSO's FIFO buffer orders the stores without a fence" true
    (st.Explore.failures = [])

let test_pso_mp_allowed () =
  (* message passing, forbidden under TSO, becomes observable under PSO *)
  let mk config () =
    let m = Machine.create config in
    let mem = Machine.memory m in
    let data = Memory.alloc mem ~name:"data" ~init:0 in
    let flag = Memory.alloc mem ~name:"flag" ~init:0 in
    let f = ref (-1) and d = ref (-1) in
    let _ =
      Machine.spawn m ~name:"w" (fun () ->
          Program.store data 1;
          Program.store flag 1)
    in
    let _ =
      Machine.spawn m ~name:"r" (fun () ->
          f := Program.load flag;
          d := Program.load data)
    in
    let check () = if !f = 1 && !d = 0 then Error "mp observed" else Ok () in
    { Explore.machine = m; check }
  in
  let pso = Explore.search ~mk:(mk (Machine.pso_config ~sb_capacity:4)) () in
  checkb "MP observable under PSO" true (pso.Explore.failures <> []);
  let tso = Explore.search ~mk:(mk (Machine.abstract_config ~sb_capacity:4)) () in
  checkb "MP forbidden under TSO" true (tso.Explore.failures = [])

let test_pso_forwarding_still_works () =
  let m = Machine.create (Machine.pso_config ~sb_capacity:4) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let y = Memory.alloc mem ~name:"y" ~init:0 in
  let got = ref (-1) in
  let tid =
    Machine.spawn m ~name:"t" (fun () ->
        Program.store x 1;
        Program.store y 2;
        Program.store x 3;
        got := Program.load x)
  in
  for _ = 1 to 3 do
    ignore (Machine.apply m (Machine.Step tid))
  done;
  (* drain y's lane only: x's stores stay buffered and must still forward *)
  ignore (Machine.apply m (Machine.Drain (tid, Addr.to_index y)));
  ignore (Machine.apply m (Machine.Step tid));
  checki "newest same-address store forwards under PSO" 3 !got;
  checki "y drained out of order" 2 (Memory.get mem y);
  checki "x not yet in memory" 0 (Memory.get mem x)


(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_records_and_renders () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let trace = Trace.attach m in
  let t0 = Machine.spawn m ~name:"alpha" (fun () -> Program.store x 5) in
  let t1 = Machine.spawn m ~name:"beta" (fun () -> ignore (Program.load x)) in
  ignore (Machine.apply m (Machine.Step t0));
  ignore (Machine.apply m (Machine.Step t1));
  ignore (Machine.apply m (Machine.Drain (t0, 0)));
  checki "three applies recorded (plus dones)" 5 (Trace.length trace);
  let s = Trace.render trace in
  let contains needle =
    let ln = String.length needle and ls = String.length s in
    let rec go i = i + ln <= ls && (String.sub s i ln = needle || go (i + 1)) in
    go 0
  in
  checkb "thread names in header" true (contains "alpha" && contains "beta");
  checkb "store rendered" true (contains "store x := 5");
  checkb "drain rendered" true (contains "~ drain x=5");
  Trace.clear trace;
  checki "cleared" 0 (Trace.length trace)

let test_trace_last_filter () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let trace = Trace.attach m in
  let tid =
    Machine.spawn m ~name:"t" (fun () ->
        for i = 1 to 4 do
          Program.store x i
        done)
  in
  for _ = 1 to 4 do
    ignore (Machine.apply m (Machine.Step tid))
  done;
  let full = Trace.render trace in
  let last2 = Trace.render ~last:2 trace in
  checkb "filtered is shorter" true (String.length last2 < String.length full)


(* ------------------------------------------------------------------ *)
(* Differential testing against the reference enumerator               *)
(* ------------------------------------------------------------------ *)

let op_gen ~cells =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun a -> Reference.Load a) (int_bound (cells - 1)));
      ( 4,
        map2 (fun a v -> Reference.Store (a, v)) (int_bound (cells - 1))
          (int_range 1 3) );
      (1, return Reference.Fence);
      ( 1,
        map3
          (fun a e r -> Reference.Cas (a, e, r))
          (int_bound (cells - 1))
          (int_bound 2) (int_range 1 3) );
    ]

let program_gen ~cells ~threads ~max_ops =
  QCheck.Gen.(
    array_size (return threads) (list_size (int_range 1 max_ops) (op_gen ~cells)))

let differential_prop =
  QCheck.Test.make
    ~name:"machine outcome set = independent reference enumerator" ~count:60
    (QCheck.make
       ~print:(fun p ->
         String.concat " || "
           (Array.to_list
              (Array.map
                 (fun ops ->
                   String.concat "; "
                     (List.map
                        (function
                          | Reference.Load a -> Printf.sprintf "r(%d)" a
                          | Reference.Store (a, v) -> Printf.sprintf "w(%d,%d)" a v
                          | Reference.Fence -> "fence"
                          | Reference.Cas (a, e, r) ->
                              Printf.sprintf "cas(%d,%d,%d)" a e r)
                        ops))
                 p)))
       (program_gen ~cells:2 ~threads:2 ~max_ops:3))
    (fun program ->
      let cells = 2 and sb_capacity = 2 in
      let reference = Reference.outcomes ~cells ~sb_capacity program in
      let machine = Reference.machine_outcomes ~cells ~sb_capacity program in
      Reference.Outcome_set.equal reference machine)

let test_differential_sb_example () =
  (* the SB litmus expressed through the differential harness: the weak
     outcome must be in both sets *)
  let program =
    [|
      [ Reference.Store (0, 1); Reference.Load 1 ];
      [ Reference.Store (1, 1); Reference.Load 0 ];
    |]
  in
  let outcomes = Reference.outcomes ~cells:2 ~sb_capacity:2 program in
  let weak = { Reference.reads = [ 0; 0 ]; memory = [ 1; 1 ] } in
  checkb "weak outcome enumerated" true
    (Reference.Outcome_set.mem weak outcomes);
  let machine = Reference.machine_outcomes ~cells:2 ~sb_capacity:2 program in
  checkb "sets agree" true (Reference.Outcome_set.equal outcomes machine);
  (* and with fences both implementations lose exactly the weak outcomes *)
  let fenced =
    [|
      [ Reference.Store (0, 1); Reference.Fence; Reference.Load 1 ];
      [ Reference.Store (1, 1); Reference.Fence; Reference.Load 0 ];
    |]
  in
  let f_ref = Reference.outcomes ~cells:2 ~sb_capacity:2 fenced in
  checkb "fences forbid the weak outcome" true
    (not (Reference.Outcome_set.mem weak f_ref));
  let f_m = Reference.machine_outcomes ~cells:2 ~sb_capacity:2 fenced in
  checkb "fenced sets agree" true (Reference.Outcome_set.equal f_ref f_m)

let test_differential_capacity_matters () =
  (* with capacity 1, a thread's second store forces its first to drain, so
     fewer weak behaviours survive; both implementations must agree anyway *)
  let program =
    [|
      [ Reference.Store (0, 1); Reference.Store (1, 1); Reference.Load 1 ];
      [ Reference.Store (1, 2); Reference.Load 0 ];
    |]
  in
  List.iter
    (fun sb_capacity ->
      let r = Reference.outcomes ~cells:2 ~sb_capacity program in
      let m = Reference.machine_outcomes ~cells:2 ~sb_capacity program in
      checkb
        (Printf.sprintf "agree at capacity %d" sb_capacity)
        true
        (Reference.Outcome_set.equal r m))
    [ 1; 2; 3 ]


(* ------------------------------------------------------------------ *)
(* API corners                                                         *)
(* ------------------------------------------------------------------ *)

let test_machine_introspection () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:3) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let tid =
    Machine.spawn m ~name:"alpha" (fun () ->
        Program.store x 1;
        Program.store x 2)
  in
  check Alcotest.string "thread name" "alpha" (Machine.thread_name m tid);
  checki "one thread" 1 (Machine.thread_count m);
  checki "nothing buffered yet" 0 (Machine.buffered_stores m tid);
  ignore (Machine.apply m (Machine.Step tid));
  ignore (Machine.apply m (Machine.Step tid));
  checki "two buffered stores" 2 (Machine.buffered_stores m tid);
  checkb "not quiescent with buffered stores" true (not (Machine.quiescent m));
  checkb "done but not quiescent" true (Machine.thread_done m tid);
  check (Alcotest.option Alcotest.string) "no pending request when done" None
    (Machine.pending_request m tid);
  let fp1 = Machine.fingerprint m in
  ignore (Machine.apply m (Machine.Drain (tid, 0)));
  checkb "fingerprint tracks drains" true (fp1 <> Machine.fingerprint m);
  ignore (Machine.apply m (Machine.Drain (tid, 0)));
  checkb "quiescent after drains" true (Machine.quiescent m);
  checki "final memory" 2 (Memory.get mem x)

let test_program_describe () =
  let open Program in
  check Alcotest.string "load" "load @3" (describe (Req_load (Addr.of_index 3)));
  check Alcotest.string "store" "store @1 := 9" (describe (Req_store (Addr.of_index 1, 9)));
  check Alcotest.string "cas" "cas @0 (1 -> 2)" (describe (Req_cas (Addr.of_index 0, 1, 2)));
  check Alcotest.string "fence" "fence" (describe Req_fence);
  check Alcotest.string "pause" "pause" (describe Req_pause)

let test_timing_max_steps_outcome () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let _ =
    Machine.spawn m ~name:"spinner" (fun () ->
        while Program.load x = 0 do
          Program.spin_pause ()
        done)
  in
  let r = Timing.run ~max_steps:500 m costs in
  checkb "max steps surfaces" true (r.Timing.outcome = Sched.Max_steps)

let test_weighted_zero_drain_bias () =
  (* drain_weight 0: drains only happen when they are the sole choice, so
     reordering is maximal, yet runs still terminate *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let _ =
    Machine.spawn m ~name:"t" (fun () ->
        for i = 1 to 10 do
          Program.store x i
        done)
  in
  let rng = Random.State.make [| 4 |] in
  (match Sched.run m (Sched.weighted rng ~drain_weight:0.0) with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "must still quiesce");
  checki "all stores landed" 10 (Memory.get mem x)

let test_round_robin_policy_covers () =
  (* round robin visits every enabled transition class over time *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  for t = 0 to 1 do
    ignore
      (Machine.spawn m
         ~name:(Printf.sprintf "t%d" t)
         (fun () -> Program.store x ((10 * t) + 1)))
  done;
  match Sched.run m (Sched.round_robin ()) with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "round robin must finish"

let () =
  Alcotest.run "tso"
    [
      ( "memory",
        [
          Alcotest.test_case "alloc and rw" `Quick test_memory_alloc;
          Alcotest.test_case "arrays" `Quick test_memory_array;
          Alcotest.test_case "growth" `Quick test_memory_growth;
          Alcotest.test_case "out of bounds" `Quick test_memory_oob;
          Alcotest.test_case "names on demand" `Quick test_memory_names;
          Alcotest.test_case "pp" `Quick test_memory_pp;
        ] );
      ( "store-buffer",
        [
          Alcotest.test_case "fifo drain + forwarding" `Quick test_sb_fifo;
          Alcotest.test_case "capacity" `Quick test_sb_capacity;
          Alcotest.test_case "egress B" `Quick test_sb_egress;
          Alcotest.test_case "same-address coalescing" `Quick test_sb_coalescing;
          Alcotest.test_case "no cross-address coalescing" `Quick
            test_sb_no_cross_address_coalescing;
          Alcotest.test_case "lookup: queue shadows egress" `Quick
            test_sb_lookup_shadows_egress;
          Alcotest.test_case "PSO drain lanes are stable" `Quick
            test_sb_pso_lanes_stable;
          QCheck_alcotest.to_alcotest sb_model_prop;
          QCheck_alcotest.to_alcotest sb_ring_prop;
        ] );
      ( "machine",
        [
          Alcotest.test_case "SB litmus weak outcome reachable" `Quick
            test_sb_litmus_weak_outcome_reachable;
          Alcotest.test_case "SB litmus fenced = SC" `Quick
            test_sb_litmus_fenced_is_sc;
          Alcotest.test_case "enabledness rules" `Quick test_machine_enabledness;
          Alcotest.test_case "store-to-load forwarding" `Quick
            test_machine_forwarding;
          Alcotest.test_case "event stream" `Quick test_machine_events;
          Alcotest.test_case "listener order" `Quick test_machine_event_order;
          Alcotest.test_case "fingerprint covers control state" `Quick
            test_fingerprint_covers_control_state;
          Alcotest.test_case "fingerprint splits egress from queue" `Quick
            test_fingerprint_distinguishes_egress;
          Alcotest.test_case "snapshot restores a wrapped ring and B" `Quick
            test_snapshot_wrapped_ring;
          Alcotest.test_case "rmw atomicity" `Quick test_machine_rmw_atomicity;
        ] );
      ( "sched",
        [
          Alcotest.test_case "record/replay round-trip" `Quick
            test_sched_replay_roundtrip;
          Alcotest.test_case "max-steps on livelock" `Quick
            test_sched_deadlock_detection;
        ] );
      ( "timing",
        [
          Alcotest.test_case "pure work" `Quick test_timing_work_only;
          Alcotest.test_case "fence stall" `Quick test_timing_fence_stall;
          Alcotest.test_case "no fence, no stall" `Quick
            test_timing_no_fence_no_stall;
          Alcotest.test_case "deterministic" `Quick test_timing_deterministic;
          Alcotest.test_case "instruction stats" `Quick test_timing_stats;
          Alcotest.test_case "concurrent domains are isolated" `Quick
            test_timing_domain_isolation;
          Alcotest.test_case "sharded sink byte-identical to plain" `Quick
            test_timing_sharded_sink_byte_identical;
          QCheck_alcotest.to_alcotest timing_oracle_prop;
          Alcotest.test_case "oracle: store on a full buffer" `Quick
            test_timing_oracle_full_buffer;
          Alcotest.test_case "oracle: max_steps at the quiescence boundary"
            `Quick test_timing_oracle_max_steps_boundary;
        ] );
      ( "explore",
        [
          Alcotest.test_case "failure replay" `Quick test_explore_replay_failure;
          Alcotest.test_case "preemption bound" `Quick
            test_explore_counts_preemptions;
          Alcotest.test_case "memoization equivalence" `Quick
            test_explore_memo_equivalence;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "independence of loads, stores, drains" `Quick
            test_footprint_independence;
          Alcotest.test_case "rmw and flush dependence" `Quick
            test_footprint_rmw_and_flush;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "restore reproduces the fingerprint" `Quick
            test_snapshot_restore_fingerprint;
          Alcotest.test_case "preconditions raise" `Quick
            test_snapshot_preconditions;
          Alcotest.test_case "listeners survive, fast-forward is silent"
            `Quick test_snapshot_restore_listeners;
        ] );
      ( "api-corners",
        [
          Alcotest.test_case "machine introspection" `Quick
            test_machine_introspection;
          Alcotest.test_case "request descriptions" `Quick test_program_describe;
          Alcotest.test_case "timing max-steps" `Quick test_timing_max_steps_outcome;
          Alcotest.test_case "zero drain bias" `Quick test_weighted_zero_drain_bias;
          Alcotest.test_case "round robin coverage" `Quick
            test_round_robin_policy_covers;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest differential_prop;
          Alcotest.test_case "SB through the harness" `Quick
            test_differential_sb_example;
          Alcotest.test_case "capacity sensitivity" `Quick
            test_differential_capacity_matters;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records and renders" `Quick
            test_trace_records_and_renders;
          Alcotest.test_case "last filter" `Quick test_trace_last_filter;
        ] );
      ( "pso",
        [
          Alcotest.test_case "PSO breaks put-publication" `Quick
            test_pso_breaks_publication;
          Alcotest.test_case "store-store fence restores it" `Quick
            test_pso_fence_restores_publication;
          Alcotest.test_case "TSO orders it for free" `Quick
            test_tso_orders_publication_for_free;
          Alcotest.test_case "MP: PSO allowed, TSO forbidden" `Quick
            test_pso_mp_allowed;
          Alcotest.test_case "forwarding under PSO" `Quick
            test_pso_forwarding_still_works;
        ] );
    ]
