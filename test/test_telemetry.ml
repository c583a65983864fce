(* Telemetry unit tests: histogram bucketing, sink merge/reset semantics,
   the strict JSON parser, and the Chrome-trace exporter (span nesting for a
   known two-thread interleaving, byte-stable output). *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

module H = Telemetry.Histogram
module S = Telemetry.Sink
module J = Telemetry.Json
module CT = Telemetry.Chrome_trace

(* --- histogram -------------------------------------------------------- *)

let test_bucket_of () =
  check int "0 -> bucket 0" 0 (H.bucket_of 0);
  check int "negative clamps to bucket 0" 0 (H.bucket_of (-7));
  check int "1 -> bucket 1" 1 (H.bucket_of 1);
  check int "2 -> bucket 2" 2 (H.bucket_of 2);
  check int "3 -> bucket 2" 2 (H.bucket_of 3);
  check int "4 -> bucket 3" 3 (H.bucket_of 4);
  check int "7 -> bucket 3" 3 (H.bucket_of 7);
  check int "8 -> bucket 4" 4 (H.bucket_of 8);
  (* bucket i >= 1 holds [2^(i-1), 2^i): check both edges for a few i *)
  for i = 1 to 20 do
    let lo = 1 lsl (i - 1) in
    check int (Printf.sprintf "lo edge of bucket %d" i) i (H.bucket_of lo);
    check int
      (Printf.sprintf "hi edge of bucket %d" i)
      i
      (H.bucket_of ((2 * lo) - 1))
  done

let test_histogram_observe () =
  let h = H.create () in
  List.iter (H.observe h) [ 0; 0; 1; 2; 3; 8; 1000 ];
  check int "total" 7 (H.total h);
  check int "sum" (0 + 0 + 1 + 2 + 3 + 8 + 1000) (H.sum h);
  check int "max" 1000 (H.max_value h);
  check int "bucket 0 count" 2 (H.count h 0);
  check int "bucket 1 count" 1 (H.count h 1);
  check int "bucket 2 count" 2 (H.count h 2);
  check int "bucket 4 count" 1 (H.count h (H.bucket_of 8));
  check bool "buckets are (lo, hi, count), lowest first"
    true
    (H.buckets h
    = [ (0, 0, 2); (1, 1, 1); (2, 3, 2); (8, 15, 1); (1024, 2047, 1) ]
      (* 1000 falls in [512, 1024) *)
    || H.buckets h
       = [ (0, 0, 2); (1, 1, 1); (2, 3, 2); (8, 15, 1); (512, 1023, 1) ])

let test_histogram_merge_reset () =
  let a = H.create () and b = H.create () in
  List.iter (H.observe a) [ 1; 5 ];
  List.iter (H.observe b) [ 0; 5; 900 ];
  H.merge ~into:a b;
  check int "merged total" 5 (H.total a);
  check int "merged sum" (1 + 5 + 0 + 5 + 900) (H.sum a);
  check int "merged max" 900 (H.max_value a);
  check int "src total unchanged" 3 (H.total b);
  check int "src sum unchanged" 905 (H.sum b);
  H.reset a;
  check int "reset total" 0 (H.total a);
  check int "reset sum" 0 (H.sum a);
  check int "reset max" 0 (H.max_value a);
  check bool "reset buckets empty" true (H.buckets a = [])

let test_histogram_negative () =
  (* negative observations used to be clamped into bucket 0, silently
     inflating the smallest bucket; now they are counted apart and leave
     every positive-domain statistic untouched *)
  let h = H.create () in
  List.iter (H.observe h) [ 5; -1; 7; -100 ];
  check int "negative counted" 2 (H.negative h);
  check int "total excludes negatives" 2 (H.total h);
  check int "sum excludes negatives" 12 (H.sum h);
  check int "bucket 0 not polluted" 0 (H.count h 0);
  let b = H.create () in
  H.observe b (-3);
  H.merge ~into:h b;
  check int "negative merges" 3 (H.negative h);
  H.reset h;
  check int "negative resets" 0 (H.negative h)

let test_histogram_saturating_sum () =
  let h = H.create () in
  H.observe h max_int;
  H.observe h max_int;
  check int "sum saturates instead of wrapping negative" max_int (H.sum h);
  check int "total still counts" 2 (H.total h);
  let b = H.create () in
  H.observe b max_int;
  H.merge ~into:h b;
  check int "merge saturates too" max_int (H.sum h)

let test_histogram_percentile () =
  let h = H.create () in
  check int "empty percentile" 0 (H.percentile h 0.5);
  (* 100 observations of 10, one of 1000: p50 sits in 10's bucket, p999
     in 1000's — and no percentile exceeds the observed max *)
  for _ = 1 to 100 do
    H.observe h 10
  done;
  H.observe h 1000;
  check int "p50 in the bulk bucket" (H.bucket_of 10)
    (H.bucket_of (H.percentile h 0.5));
  check int "p999 capped at the observed max" 1000 (H.percentile h 0.999);
  check bool "p0 clamps to first rank" true (H.percentile h 0.0 >= 10);
  H.observe h (-5);
  check int "negatives do not shift percentiles" 1000 (H.percentile h 0.999)

let test_histogram_percentile_edges () =
  (* empty: [percentile] answers 0 by definition, [percentile_opt] makes
     "no data" distinguishable from "all zeros" *)
  let h = H.create () in
  check int "empty percentile is 0" 0 (H.percentile h 0.99);
  check bool "empty percentile_opt is None" true (H.percentile_opt h 0.5 = None);
  H.observe h 0;
  check int "all-zeros percentile is also 0" 0 (H.percentile h 0.99);
  check bool "all-zeros percentile_opt is Some 0" true
    (H.percentile_opt h 0.99 = Some 0);
  (* a single observation is every percentile, capped at the value *)
  let one = H.create () in
  H.observe one 37;
  List.iter
    (fun q ->
      check int
        (Printf.sprintf "single observation at q=%.3f" q)
        37 (H.percentile one q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  check bool "single observation percentile_opt" true
    (H.percentile_opt one 0.99 = Some 37)

(* [to_json] is the on-disk form of the native stage histograms in a
   wsrepro-overload/v1 report: exact and byte-stable, with each occupied
   power-of-two bucket's bounds and count (3 zeros in [0,0], the 5 in
   [4,7], the 20 in [16,31]), and a negative sample counted apart from
   the total. *)
let test_histogram_to_json () =
  let h = H.create () in
  List.iter (H.observe h) [ 0; 0; 0; 5; 20; -3 ];
  let render () = J.to_string ~indent:false (H.to_json h) in
  let s = render () in
  check string "byte-stable across renders" s (render ());
  check string "exact form"
    "{\"total\": 5, \"sum\": 25, \"max\": 20, \"negative\": 1, \"buckets\": \
     [{\"lo\": 0, \"hi\": 0, \"count\": 3}, {\"lo\": 4, \"hi\": 7, \"count\": \
     1}, {\"lo\": 16, \"hi\": 31, \"count\": 1}]}"
    s;
  check bool "parses back to the same value" true
    (J.parse s = Ok (H.to_json h))

(* --- sink ------------------------------------------------------------- *)

let filled_sink () =
  let s = S.create () in
  s.S.loads <- 10;
  s.S.stores <- 20;
  s.S.fences <- 3;
  s.S.fence_stall_cycles <- 120;
  s.S.steal_attempts <- 5;
  s.S.steal_aborts <- 2;
  s.S.tasks_run <- 64;
  s.S.shrink_iterations <- 7;
  s.S.witness_events <- 4;
  s.S.forensics_report_bytes <- 2048;
  H.observe (S.sb_occupancy s) 4;
  H.observe (S.egress_depth s) 1;
  s

let test_forensics_counters () =
  (* the forensics layer's counters ride the generic sink plumbing: they
     must be exported by [fields] (so sidecars pick them up) and obey the
     same merge/reset laws as every other scalar *)
  let s = filled_sink () in
  let field k = List.assoc k (S.fields s) in
  check int "shrink_iterations exported" 7 (field "shrink_iterations");
  check int "witness_events exported" 4 (field "witness_events");
  check int "forensics_report_bytes exported" 2048
    (field "forensics_report_bytes");
  S.merge ~into:s (filled_sink ());
  check int "shrink_iterations merges" 14 s.S.shrink_iterations;
  check int "witness_events merges" 8 s.S.witness_events;
  check int "forensics_report_bytes merges" 4096 s.S.forensics_report_bytes;
  S.reset s;
  check int "shrink_iterations resets" 0 s.S.shrink_iterations;
  check int "witness_events resets" 0 s.S.witness_events;
  check int "forensics_report_bytes resets" 0 s.S.forensics_report_bytes

let test_sink_merge () =
  let a = filled_sink () and b = filled_sink () in
  S.merge ~into:a b;
  check int "loads add" 20 a.S.loads;
  check int "stores add" 40 a.S.stores;
  check int "fence stall adds" 240 a.S.fence_stall_cycles;
  check int "steal aborts add" 4 a.S.steal_aborts;
  check int "histograms merge too" 2 (H.total (S.sb_occupancy a));
  (* src unchanged *)
  check int "src loads unchanged" 10 b.S.loads;
  check int "src histogram unchanged" 1 (H.total (S.sb_occupancy b));
  (* every scalar doubles: fields of a = 2 * fields of b *)
  List.iter2
    (fun (k, va) (k', vb) ->
      check string "field order stable" k k';
      check int (k ^ " doubled") (2 * vb) va)
    (S.fields a) (S.fields b)

let test_sink_reset () =
  let s = filled_sink () in
  S.reset s;
  List.iter (fun (k, v) -> check int (k ^ " zero after reset") 0 v) (S.fields s);
  check int "histogram cleared" 0 (H.total (S.sb_occupancy s));
  check int "egress histogram cleared" 0 (H.total (S.egress_depth s))

(* --- json ------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("schema", J.Str "test/v1");
        ("n", J.Int 42);
        ("x", J.Float 1.5);
        ("flag", J.Bool true);
        ("nothing", J.Null);
        ("list", J.List [ J.Int 1; J.Int 2; J.Str "a\"b\\c\n" ]);
        ("nested", J.Obj [ ("k", J.Int (-7)) ]);
      ]
  in
  (match J.parse (J.to_string v) with
  | Ok v' -> check bool "roundtrip" true (v = v')
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e);
  (match J.parse (J.to_string ~indent:false v) with
  | Ok v' -> check bool "compact roundtrip" true (v = v')
  | Error e -> Alcotest.failf "compact roundtrip failed: %s" e);
  check bool "member" true (J.member "n" v = Some (J.Int 42));
  check bool "member missing" true (J.member "zzz" v = None)

let test_json_rejects () =
  let bad =
    [
      "";
      "{";
      "[1, 2";
      "{\"a\": }";
      "{\"a\": 1,}";
      "tru";
      "\"unterminated";
      "{\"a\": 1} trailing";
      "nan";
    ]
  in
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "parser accepted %S" s
      | Error _ -> ())
    bad

(* --- chrome trace ----------------------------------------------------- *)

(* A known 2-thread interleaving: two cores, each storing to its own flag
   then fencing and reading the other's — the classic SB shape, which gives
   the timing engine stores, drains, fence stalls and loads on both
   tracks. *)
let traced_run () =
  let m =
    Tso.Machine.create
      (Tso.Machine.abstract_config ~sb_capacity:2)
  in
  let mem = Tso.Machine.memory m in
  let x = Tso.Memory.alloc mem ~name:"x" ~init:0 in
  let y = Tso.Memory.alloc mem ~name:"y" ~init:0 in
  let r0 = ref (-1) and r1 = ref (-1) in
  let _ =
    Tso.Machine.spawn m ~name:"t0" (fun () ->
        Tso.Program.store x 1;
        Tso.Program.fence ();
        r0 := Tso.Program.load y)
  in
  let _ =
    Tso.Machine.spawn m ~name:"t1" (fun () ->
        Tso.Program.store y 1;
        Tso.Program.fence ();
        r1 := Tso.Program.load x)
  in
  let tracer = CT.create () in
  let report = Tso.Timing.run ~tracer m Tso.Timing.default_costs in
  (tracer, report)

type span = { ts : int; dur : int; tid : int }

let spans_of_json j =
  match J.member "traceEvents" j with
  | Some (J.List evs) ->
      List.filter_map
        (fun e ->
          let field k =
            match J.member k e with Some (J.Int i) -> Some i | _ -> None
          in
          match (J.member "ph" e, field "ts", field "tid") with
          | Some (J.Str "X"), Some ts, Some tid ->
              let dur = Option.value ~default:0 (field "dur") in
              Some { ts; dur; tid }
          | _ -> None)
        evs
  | _ -> Alcotest.fail "trace has no traceEvents list"

let test_trace_spans_nest () =
  let tracer, report = traced_run () in
  check bool "run quiesced" true (report.Tso.Timing.outcome = Tso.Sched.Quiescent);
  let j = CT.to_json tracer in
  let spans = spans_of_json j in
  check bool "spans recorded" true (List.length spans > 0);
  check bool "both threads have spans" true
    (List.exists (fun s -> s.tid = 0) spans
    && List.exists (fun s -> s.tid = 1) spans);
  (* Spans on one core's track must nest: for any two, either disjoint or
     one contains the other. The timing engine only emits sequential,
     adjacent spans per core, so we check the stronger property. *)
  List.iter
    (fun tid ->
      let mine =
        List.sort
          (fun a b -> compare (a.ts, a.dur) (b.ts, b.dur))
          (List.filter (fun s -> s.tid = tid) spans)
      in
      ignore
        (List.fold_left
           (fun prev_end s ->
             check bool
               (Printf.sprintf "tid %d span at %d starts after previous end"
                  tid s.ts)
               true (s.ts >= prev_end);
             s.ts + s.dur)
           0 mine))
    [ 0; 1 ];
  (* every async sb-store interval closes exactly once, same id *)
  match J.member "traceEvents" j with
  | Some (J.List evs) ->
      let ids ph =
        List.filter_map
          (fun e ->
            match (J.member "ph" e, J.member "id" e) with
            | Some (J.Str p), Some (J.Int id) when p = ph -> Some id
            | _ -> None)
          evs
      in
      let sort = List.sort compare in
      check bool "async begins pair with ends" true
        (sort (ids "b") = sort (ids "e"))
  | _ -> Alcotest.fail "trace has no traceEvents list"

let test_trace_deterministic () =
  let t1, _ = traced_run () in
  let t2, _ = traced_run () in
  check string "same run, same bytes" (CT.to_string t1) (CT.to_string t2);
  (match J.parse (CT.to_string t1) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "trace is not valid JSON: %s" e);
  check int "nothing dropped" 0 (CT.dropped t1)

let test_trace_limit () =
  let t = CT.create ~limit:3 () in
  for i = 0 to 9 do
    CT.complete t ~name:"e" ~tid:0 ~ts:i ~dur:1 ()
  done;
  check int "capped at limit" 3 (CT.length t);
  check int "overflow counted" 7 (CT.dropped t);
  match J.parse (CT.to_string t) with
  | Ok j ->
      check bool "dropped recorded in document" true
        (match J.member "otherData" j with
        | Some od -> J.member "dropped" od = Some (J.Int 7)
        | None -> false)
  | Error e -> Alcotest.failf "capped trace invalid: %s" e

(* --- flight recorder -------------------------------------------------- *)

module FR = Telemetry.Flight_recorder

let test_flight_wraparound () =
  let r = FR.create ~capacity:8 ~slots:1 () in
  check int "capacity is a power of two" 8 (FR.capacity r);
  for i = 1 to 13 do
    FR.record r ~slot:0 FR.Spawn ~task:i ~arg:(i - 1)
  done;
  check int "wrote is monotone, not capped" 13 (FR.wrote r ~slot:0);
  check
    Alcotest.(array int)
    "dropped is exact per ring" [| 5; 0 |] (FR.dropped r);
  let evs = FR.events_of_slot r 0 in
  check int "ring retains exactly capacity events" 8 (List.length evs);
  check
    Alcotest.(list int)
    "the 5 oldest were overwritten, order preserved"
    [ 6; 7; 8; 9; 10; 11; 12; 13 ]
    (List.map (fun (e : FR.event) -> e.task) evs);
  let rec mono = function
    | (a : FR.event) :: (b :: _ as tl) -> a.ts <= b.ts && mono tl
    | _ -> true
  in
  check bool "timestamps nondecreasing" true (mono evs)

let test_flight_capacity_rounding () =
  let r = FR.create ~capacity:5 ~slots:2 () in
  check int "5 rounds up to 8" 8 (FR.capacity r);
  check int "slots as requested" 2 (FR.slots r)

(* A hand-written two-slot schedule: slot 0 spawns and pops task 0, spawns
   task 1, which slot 1 steals and runs — the minimal recording with one
   stolen lineage. *)
let forced_steal_recorder () =
  let r = FR.create ~capacity:64 ~slots:2 () in
  FR.record r ~slot:0 FR.Spawn ~task:0 ~arg:(-1);
  FR.record r ~slot:0 FR.Run ~task:0 ~arg:FR.origin_pop;
  FR.record r ~slot:0 FR.Spawn ~task:1 ~arg:0;
  FR.record r ~slot:1 FR.Steal ~task:1 ~arg:0;
  FR.record r ~slot:1 FR.Run ~task:1 ~arg:0;
  r

let test_flight_lineage_reconstruct () =
  let r = forced_steal_recorder () in
  let lineages, unresolved = FR.reconstruct r in
  check int "no unresolved runs" 0 unresolved;
  check int "two tasks reconstructed" 2 (List.length lineages);
  let l0 = List.find (fun (l : FR.lineage) -> l.id = 0) lineages in
  check bool "task 0 was popped locally" true (l0.origin = FR.Pop);
  check int "task 0 has no stolen ancestry" 0 l0.steal_depth;
  let l1 = List.find (fun (l : FR.lineage) -> l.id = 1) lineages in
  check bool "task 1 stolen from slot 0" true (l1.origin = FR.Stolen 0);
  check int "thief ran it on slot 1" 1 l1.run_slot;
  check int "spawned on slot 0" 0 l1.spawn_slot;
  check int "parent is task 0" 0 l1.parent;
  check int "one stolen link on the ancestry path" 1 l1.steal_depth

let test_flight_report_validate_reject () =
  let r = forced_steal_recorder () in
  let s1 = FR.report_string r in
  check string "report is byte-stable" s1 (FR.report_string r);
  let doc =
    match J.parse s1 with
    | Ok j -> j
    | Error e -> Alcotest.failf "report is not valid JSON: %s" e
  in
  (match FR.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid report rejected: %s" e);
  (* the same document under a drifted schema id must be rejected *)
  let drifted =
    match doc with
    | J.Obj fields ->
        J.Obj
          (List.map
             (function
               | "schema", _ -> ("schema", J.Str "wsrepro-flight/v0")
               | kv -> kv)
             fields)
    | _ -> Alcotest.fail "report did not parse as an object"
  in
  check bool "drifted schema rejected" true
    (Result.is_error (FR.validate drifted));
  check bool "structurally empty document rejected" true
    (Result.is_error (FR.validate (J.Obj [ ("schema", J.Str FR.schema_id) ])))

(* --- sharded counter plane ------------------------------------------- *)

(* A deterministic op stream: op [i] bumps a scalar counter and observes
   into both histograms, with enough variety to touch every field class. *)
let apply_op (s : S.t) i =
  s.S.loads <- s.S.loads + 1;
  if i mod 2 = 0 then s.S.stores <- s.S.stores + 1;
  if i mod 3 = 0 then s.S.puts <- s.S.puts + 1;
  if i mod 5 = 0 then s.S.steals <- s.S.steals + 1;
  s.S.steps <- s.S.steps + i;
  H.observe (S.sb_occupancy s) (i mod 17);
  H.observe (S.egress_depth s) (i * 7 mod 64)

let test_shards_merge_equals_sequential () =
  (* one sink sees the whole stream; N shards see it partitioned *)
  let seq = S.create () in
  for i = 0 to 999 do
    apply_op seq i
  done;
  let shards = Telemetry.Shards.create ~n:3 in
  let sinks = Telemetry.Shards.sinks shards in
  for i = 0 to 999 do
    apply_op sinks.(i mod 7 mod 3) i
  done;
  let merged = S.create () in
  Telemetry.Shards.merge ~into:merged shards;
  check bool "scalar fields equal" true (S.fields merged = S.fields seq);
  check string "rendered JSON byte-identical (histograms included)"
    (J.to_string ~indent:true (S.to_json seq))
    (J.to_string ~indent:true (S.to_json merged))

let test_shards_drain_semantics () =
  let shards = Telemetry.Shards.create ~n:4 in
  for i = 0 to 99 do
    apply_op (Telemetry.Shards.sinks shards).(i mod 4) i
  done;
  let root = S.create () in
  Telemetry.Shards.merge ~into:root shards;
  let once = J.to_string (S.to_json root) in
  (* merge drains the shards: a second merge must add nothing *)
  Telemetry.Shards.merge ~into:root shards;
  check string "second merge is a no-op" once (J.to_string (S.to_json root));
  Array.iter
    (fun sh -> check bool "shard reset" true (List.for_all (fun (_, v) -> v = 0) (S.fields sh)))
    (Telemetry.Shards.sinks shards);
  (* ...even into a different target: drained shards contribute zero *)
  let fresh = S.create () in
  Telemetry.Shards.merge ~into:fresh shards;
  check string "drained shards merge as empty into a fresh sink"
    (J.to_string (S.to_json (S.create ())))
    (J.to_string (S.to_json fresh))

let test_shards_clamp_and_histogram () =
  let shards = Telemetry.Shards.create ~n:2 in
  check int "two shards" 2 (Array.length (Telemetry.Shards.sinks shards));
  let clamped = Telemetry.Shards.create ~n:0 in
  check int "n <= 0 clamps to 1 shard" 1
    (Array.length (Telemetry.Shards.sinks clamped));
  (* a histogram observed in one shard merges exactly once *)
  H.observe (S.sb_occupancy (Telemetry.Shards.sinks shards).(1)) 9;
  let root = S.create () in
  Telemetry.Shards.merge ~into:root shards;
  check int "shard histogram sample counted once" 1
    (H.total (S.sb_occupancy root))

(* The merge law for every partition: a stream routed over any number of
   shards, in any pattern, merges to what one sink would have rendered. *)
let shards_partition_prop =
  QCheck.Test.make ~name:"any routing over any shard count merges exactly"
    ~count:200
    QCheck.(
      pair (int_range 1 8)
        (small_list (pair (int_bound 999) (int_bound 63))))
    (fun (n, stream) ->
      let seq = S.create () in
      List.iter (fun (i, _) -> apply_op seq i) stream;
      let shards = Telemetry.Shards.create ~n in
      let sinks = Telemetry.Shards.sinks shards in
      List.iter (fun (i, r) -> apply_op sinks.(r mod n) i) stream;
      let merged = S.create () in
      Telemetry.Shards.merge ~into:merged shards;
      J.to_string (S.to_json seq) = J.to_string (S.to_json merged))

(* --- windowed time series --------------------------------------------- *)

module W = Telemetry.Windowed

let test_windowed_rotation () =
  let t = W.create ~slots:4 ~width:100 () in
  check int "latest of empty is -1" (-1) (W.latest t);
  check bool "empty has no windows" true (W.windows t = []);
  W.observe t ~now:10 1;
  W.observe t ~now:50 2;
  W.observe t ~now:150 3;
  check int "two windows live" 2 (List.length (W.windows t));
  check int "latest" 1 (W.latest t);
  (* window 4 maps to slot 0 and evicts window 0; window 1 survives *)
  W.observe t ~now:420 9;
  let ws = List.map fst (W.windows t) in
  check bool "window 0 evicted by window 4" true (ws = [ 1; 4 ]);
  check int "evicting slot starts fresh" 1
    (H.total (List.assoc 4 (W.windows t)));
  (* per-window percentiles: window 1 saw only 3 *)
  check int "window 1 p50" 3 (H.percentile (List.assoc 1 (W.windows t)) 0.5);
  check int "window 4 p50" 9 (H.percentile (List.assoc 4 (W.windows t)) 0.5);
  (* negative now clamps to window 0 *)
  let n = W.create ~slots:2 ~width:10 () in
  W.observe n ~now:(-5) 7;
  check bool "negative now lands in window 0" true
    (List.map fst (W.windows n) = [ 0 ])

let test_windowed_stale_and_zero_width () =
  let t = W.create ~slots:2 ~width:10 () in
  W.observe t ~now:35 5;
  (* window 1 maps to slot 1; window 3 owns it now, so this is stale *)
  W.observe t ~now:15 7;
  check bool "stale sample dropped" true
    (List.map fst (W.windows t) = [ 3 ]);
  check int "stale sample did not pollute" 1
    (H.total (List.assoc 3 (W.windows t)));
  Alcotest.check_raises "zero width rejected"
    (Invalid_argument "Windowed.create: width must be positive") (fun () ->
      ignore (W.create ~width:0 ()))

(* --- JSON parser fuzz ---------------------------------------------------- *)

(* Documents: random values as the emitter writes them, then cut, spliced
   with hostile bytes (structural characters, escapes, NUL, bytes that are
   not UTF-8), nested far past the parser's bound, or plain random
   bytes. *)
let json_value_gen =
  let open QCheck.Gen in
  let key = string_size ~gen:printable (int_bound 4) in
  sized_size (int_bound 12)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return J.Null;
               map (fun b -> J.Bool b) bool;
               map (fun i -> J.Int i) int;
               map (fun f -> J.Float f) (float_range (-1e6) 1e6);
               map (fun s -> J.Str s) (string_size ~gen:char (int_bound 6));
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2))));
               ( 1,
                 map
                   (fun l -> J.Obj l)
                   (list_size (int_bound 4) (pair key (self (n / 2)))) );
             ])

let hostile_byte =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ '{'; '}'; '['; ']'; '"'; '\\'; ','; ':'; '-'; '.'; 'e'; 'u'; '0'; '\000' ];
        map Char.chr (int_range 0x80 0xff);
        char;
      ])

let json_doc_gen =
  let open QCheck.Gen in
  let doc = map (fun (v, indent) -> J.to_string ~indent v) (pair json_value_gen bool) in
  let mutate s =
    let n = String.length s in
    let* i = int_bound n in
    let* j = int_bound n in
    let lo = min i j and hi = max i j in
    oneof
      [
        return (String.sub s 0 lo);
        map
          (fun c -> String.sub s 0 lo ^ String.make 1 c ^ String.sub s lo (n - lo))
          hostile_byte;
        map
          (fun c ->
            if lo >= n then s
            else String.sub s 0 lo ^ String.make 1 c ^ String.sub s (lo + 1) (n - lo - 1))
          hostile_byte;
        return (String.sub s 0 lo ^ String.sub s hi (n - hi));
      ]
  in
  let nested =
    let* d = oneof [ int_range 500 520; int_range 1 100_000 ] in
    let* opening = oneofl [ "["; "{\"k\":"; " [ " ] in
    let* closed = bool in
    return
      (String.concat "" (List.init d (fun _ -> opening))
      ^ "1"
      ^ if closed && opening = "[" then String.make d ']' else "")
  in
  frequency
    [
      (2, doc);
      (6, doc >>= fun s -> mutate s >>= mutate);
      (1, nested);
      (1, string_size ~gen:hostile_byte (int_bound 40));
    ]

(* Total: every input is a value or an [Error], within a second. *)
let json_parse_total s =
  match Time_bound.within ~seconds:1.0 (fun () -> J.parse s) with
  | Ok _ | Error _ -> true
  | exception Time_bound.Timeout -> QCheck.Test.fail_report "parse hung"
  | exception e ->
      QCheck.Test.fail_reportf "parse raised %s" (Printexc.to_string e)

let json_fuzz_prop =
  QCheck.Test.make ~name:"Json.parse accepts or refuses, never raises or hangs"
    ~count:1000
    (QCheck.make ~print:String.escaped json_doc_gen)
    json_parse_total

let test_json_nesting_bound () =
  let nest d = String.make d '[' ^ String.make d ']' in
  check bool "512 levels parse" true (Result.is_ok (J.parse (nest 512)));
  (match J.parse (nest 513) with
  | Ok _ -> Alcotest.fail "513 levels accepted"
  | Error e ->
      check string "refused at the 513th level"
        "offset 512: nested deeper than 512 levels" e);
  check bool "a megabyte of '[' is refused at once" true
    (Result.is_error (J.parse (String.make 1_000_000 '[')))

(* The ring against a reference that keeps, per slot, the newest window
   that reached it and that window's samples. The clock may go backwards,
   so stale samples are exercised too. *)
let windowed_model_prop =
  QCheck.Test.make ~name:"windowed ring matches a reference model" ~count:300
    QCheck.(
      triple (int_range 1 6) (int_range 1 20)
        (small_list (pair (int_range (-10) 400) (int_bound 1000))))
    (fun (slots, width, stream) ->
      let t = W.create ~slots ~width () in
      let resident = Array.make slots None in
      let render (w, h) = (w, J.to_string (H.to_json h)) in
      let expected () =
        Array.to_list resident
        |> List.filter_map (function
             | None -> None
             | Some (w, vs) ->
                 let h = H.create () in
                 List.iter (H.observe h) vs;
                 Some (w, J.to_string (H.to_json h)))
        |> List.sort compare
      in
      List.for_all
        (fun (now, v) ->
          W.observe t ~now v;
          let w = max now 0 / width in
          let s = w mod slots in
          (match resident.(s) with
          | Some (w0, vs) when w0 = w -> resident.(s) <- Some (w, v :: vs)
          | Some (w0, _) when w0 > w -> ()
          | _ -> resident.(s) <- Some (w, [ v ]));
          let exp = expected () in
          List.map render (W.windows t) = exp
          && W.latest t = List.fold_left (fun m (w, _) -> max m w) (-1) exp)
        stream)

let () =
  Alcotest.run "telemetry"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket_of" `Quick test_bucket_of;
          Alcotest.test_case "observe" `Quick test_histogram_observe;
          Alcotest.test_case "merge/reset" `Quick test_histogram_merge_reset;
          Alcotest.test_case "negative observations" `Quick
            test_histogram_negative;
          Alcotest.test_case "saturating sum" `Quick
            test_histogram_saturating_sum;
          Alcotest.test_case "percentile" `Quick test_histogram_percentile;
          Alcotest.test_case "percentile empty/single edges" `Quick
            test_histogram_percentile_edges;
          Alcotest.test_case "to_json exact form" `Quick
            test_histogram_to_json;
        ] );
      ( "sink",
        [
          Alcotest.test_case "merge" `Quick test_sink_merge;
          Alcotest.test_case "reset" `Quick test_sink_reset;
          Alcotest.test_case "forensics counters" `Quick
            test_forensics_counters;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
          Alcotest.test_case "nesting bound" `Quick test_json_nesting_bound;
        ] );
      ("json-fuzz", [ QCheck_alcotest.to_alcotest json_fuzz_prop ]);
      ( "chrome-trace",
        [
          Alcotest.test_case "spans nest" `Quick test_trace_spans_nest;
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "event limit" `Quick test_trace_limit;
        ] );
      ( "flight-recorder",
        [
          Alcotest.test_case "wraparound with exact dropped" `Quick
            test_flight_wraparound;
          Alcotest.test_case "capacity rounding" `Quick
            test_flight_capacity_rounding;
          Alcotest.test_case "lineage reconstruction" `Quick
            test_flight_lineage_reconstruct;
          Alcotest.test_case "report validate/reject" `Quick
            test_flight_report_validate_reject;
        ] );
      ( "shards",
        [
          Alcotest.test_case "merge equals sequential sink" `Quick
            test_shards_merge_equals_sequential;
          Alcotest.test_case "merge drains" `Quick test_shards_drain_semantics;
          Alcotest.test_case "clamp and histogram merge" `Quick
            test_shards_clamp_and_histogram;
          QCheck_alcotest.to_alcotest shards_partition_prop;
        ] );
      ( "windowed",
        [
          Alcotest.test_case "rotation and eviction" `Quick
            test_windowed_rotation;
          Alcotest.test_case "stale drop and zero width" `Quick
            test_windowed_stale_and_zero_width;
          QCheck_alcotest.to_alcotest windowed_model_prop;
        ] );
    ]
