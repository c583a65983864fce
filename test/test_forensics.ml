(* Counterexample forensics: ddmin schedule shrinking, reorder-witness
   extraction, and the wsrepro-forensics/v1 report.

   The scenario under test is the known delta-soundness violation: FF-THE
   with S = 2 and no client stores between takes needs delta = ceil(2/1) = 2,
   so delta = 1 lets the thief certify a stale tail and a task is extracted
   twice. The paired configuration delta = 2 is provably clean. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let violating_spec =
  {
    Ws_harness.Scenarios.default_spec with
    sb_capacity = 2;
    delta = 1;
    client_stores = 0;
    preloaded = 3;
    steal_attempts = 1;
  }

let mk = Ws_harness.Scenarios.instance violating_spec

(* One exhaustive search, shared by every test (the explorer is
   deterministic, so the recorded failure is too). *)
let failure =
  lazy
    (let st, _ =
       Ws_harness.Scenarios.explore_check violating_spec
         ~preemption_bound:(Some 3) ~memo:true ()
     in
     match Tso.Explore.failures_in_replay_order st with
     | (choices, msg) :: _ -> (choices, msg)
     | [] -> Alcotest.fail "expected a delta violation at S = delta + 1")

let test_delta_pairing () =
  (* the violation really is the delta argument's edge: the same scenario
     with delta = 2 explores clean *)
  let _, clean =
    Ws_harness.Scenarios.explore_check
      { violating_spec with delta = 2 }
      ~preemption_bound:(Some 3) ~memo:true ()
  in
  checkb "delta=2 is sound at S=2" true clean

let test_shrink_minimizes () =
  let choices, msg = Lazy.force failure in
  match Forensics.Shrink.minimize ~mk ~choices ~message:msg () with
  | Error e -> Alcotest.fail e
  | Ok r ->
      checkb "strictly shorter" true
        (List.length r.Forensics.Shrink.choices < List.length choices);
      check Alcotest.string "verdict message preserved" msg
        r.Forensics.Shrink.message;
      checkb "original kept verbatim" true
        (r.Forensics.Shrink.original = choices);
      checkb "oracle was consulted" true (r.Forensics.Shrink.iterations > 1);
      checkb "minimized still reproduces" true
        (Forensics.Shrink.reproduces ~mk ~message:msg
           r.Forensics.Shrink.choices);
      (* 1-minimality: removing any single choice kills the repro *)
      let arr = Array.of_list r.Forensics.Shrink.choices in
      Array.iteri
        (fun i _ ->
          let shorter =
            List.filteri (fun j _ -> j <> i) r.Forensics.Shrink.choices
          in
          checkb
            (Printf.sprintf "dropping choice %d no longer reproduces" i)
            false
            (Forensics.Shrink.reproduces ~mk ~message:msg shorter))
        arr

let test_shrink_rejects_stale () =
  (* a choice sequence that does not replay to the message is a stale
     failure record: minimize must refuse rather than return garbage *)
  let choices, _ = Lazy.force failure in
  match
    Forensics.Shrink.minimize ~mk ~choices ~message:"some other verdict" ()
  with
  | Ok _ -> Alcotest.fail "minimize accepted a non-reproducing sequence"
  | Error _ -> ()

let test_witness_depth_exceeds_delta () =
  (* the delta argument, observed: a violation at S = delta + 1 must
     contain a load that committed with more than delta stores pending *)
  let choices, msg = Lazy.force failure in
  let r = Forensics.Witness.replay ~mk choices in
  (match r.Forensics.Witness.verdict with
  | Error m -> check Alcotest.string "replay reaches the verdict" msg m
  | Ok () -> Alcotest.fail "witness replay came back clean");
  checkb "at least one reorder witness" true
    (r.Forensics.Witness.witnesses <> []);
  checkb
    (Printf.sprintf "max depth %d exceeds delta %d"
       r.Forensics.Witness.max_depth violating_spec.delta)
    true
    (r.Forensics.Witness.max_depth > violating_spec.delta);
  List.iter
    (fun (w : Forensics.Witness.t) ->
      checki (w.Forensics.Witness.instr ^ ": depth = |pending|")
        (List.length w.Forensics.Witness.pending)
        w.Forensics.Witness.depth;
      checkb "depth bounded by the buffer capacity" true
        (w.Forensics.Witness.depth <= violating_spec.sb_capacity);
      checkb "witnesses are loads" true
        (String.length w.Forensics.Witness.instr >= 4
        && String.sub w.Forensics.Witness.instr 0 4 = "load"))
    r.Forensics.Witness.witnesses;
  checkb "timeline rendered" true (r.Forensics.Witness.timeline <> "");
  checkb "events recorded" true (r.Forensics.Witness.events <> [])

let test_witness_replay_agrees () =
  (* the witness replay drives the explorer's own replay loop: on every
     prefix of the failure, and past its end, it reaches the verdict that
     [Explore.replay_choices] reaches under the same suffix budget, or is
     refused where that is *)
  let choices, msg = Lazy.force failure in
  let outcome f =
    match f () with
    | v -> Some v
    | exception Invalid_argument _ -> None
  in
  let same label candidate =
    let max_steps = (4 * List.length candidate) + 1_000 in
    let by_witness =
      outcome (fun () ->
          (Forensics.Witness.replay ~mk candidate).Forensics.Witness.verdict)
    and by_explorer =
      outcome (fun () ->
          Tso.Explore.replay_choices ~max_steps ~mk candidate)
    in
    check
      Alcotest.(option (result unit string))
      label by_explorer by_witness
  in
  List.iteri
    (fun keep _ ->
      same
        (Printf.sprintf "first %d choices" keep)
        (List.filteri (fun i _ -> i < keep) choices))
    choices;
  same "the whole failure" choices;
  same "one choice past its end" (choices @ [ 0 ]);
  same "a bad index" [ 999 ];
  check
    Alcotest.(result unit string)
    "the whole failure's verdict" (Error msg)
    (Forensics.Witness.replay ~mk choices).Forensics.Witness.verdict

let build_report ?sink () =
  let choices, msg = Lazy.force failure in
  match
    Ws_harness.Runner.forensics_report violating_spec ?sink ~choices
      ~message:msg ()
  with
  | Error e -> Alcotest.fail e
  | Ok r -> r

let test_report_roundtrip () =
  let r = build_report () in
  let choices, msg = Lazy.force failure in
  checkb "minimized strictly shorter than original" true
    (List.length r.Forensics.Report.minimized < List.length choices);
  check Alcotest.string "message carried" msg r.Forensics.Report.message;
  checkb "report sees the witness depth" true
    (Forensics.Report.max_reorder_depth r > violating_spec.delta);
  checkb "summary is non-empty" true (Forensics.Report.summary r <> "");
  (* emit -> parse -> validate with the in-tree JSON layer only *)
  let s = Forensics.Report.to_string r in
  match Telemetry.Json.parse s with
  | Error e -> Alcotest.fail ("report does not re-parse: " ^ e)
  | Ok j -> (
      (match Telemetry.Json.member "schema" j with
      | Some (Telemetry.Json.Str tag) ->
          check Alcotest.string "schema tag" "wsrepro-forensics/v1" tag
      | _ -> Alcotest.fail "missing schema tag");
      match Forensics.Report.validate j with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("emitted report fails validation: " ^ e))

let test_report_byte_stable () =
  (* two independent builds of the same failure render identical bytes *)
  let a = Forensics.Report.to_string (build_report ()) in
  let b = Forensics.Report.to_string (build_report ()) in
  checkb "byte-stable across builds" true (String.equal a b)

let test_validate_rejects () =
  let r = build_report () in
  let j = Forensics.Report.to_json r in
  let set k v = function
    | Telemetry.Json.Obj fields ->
        Telemetry.Json.Obj
          (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) fields)
    | other -> other
  in
  let expect_error label doc =
    match Forensics.Report.validate doc with
    | Ok () -> Alcotest.fail (label ^ ": corrupted report passed validation")
    | Error _ -> ()
  in
  expect_error "wrong schema" (set "schema" (Telemetry.Json.Str "nope") j);
  expect_error "inconsistent max depth"
    (set "max_reorder_depth" (Telemetry.Json.Int 99) j);
  expect_error "empty timeline" (set "timeline" (Telemetry.Json.Str "") j);
  expect_error "schedule length mismatch"
    (set "minimized"
       (Telemetry.Json.Obj
          [
            ("length", Telemetry.Json.Int 3);
            ("choices", Telemetry.Json.List [ Telemetry.Json.Int 0 ]);
          ])
       j);
  expect_error "witnesses must be objects"
    (set "witnesses" (Telemetry.Json.List [ Telemetry.Json.Int 1 ]) j)

let test_sink_counters () =
  let sink = Telemetry.Sink.create () in
  let r = build_report ~sink () in
  checkb "shrink_iterations counted" true
    (sink.Telemetry.Sink.shrink_iterations > 0);
  checkb "witness_events counted" true
    (sink.Telemetry.Sink.witness_events > 0);
  checki "report bytes not yet counted" 0
    sink.Telemetry.Sink.forensics_report_bytes;
  let s = Forensics.Report.to_string ~sink r in
  checki "forensics_report_bytes = emitted length" (String.length s)
    sink.Telemetry.Sink.forensics_report_bytes

let () =
  Alcotest.run "forensics"
    [
      ( "shrink",
        [
          Alcotest.test_case "ddmin minimizes to 1-minimal" `Quick
            test_shrink_minimizes;
          Alcotest.test_case "rejects stale failures" `Quick
            test_shrink_rejects_stale;
        ] );
      ( "witness",
        [
          Alcotest.test_case "delta pairing: delta=2 is clean" `Quick
            test_delta_pairing;
          Alcotest.test_case "depth exceeds delta on the violation" `Quick
            test_witness_depth_exceeds_delta;
          Alcotest.test_case "verdicts agree with Explore.replay_choices"
            `Quick test_witness_replay_agrees;
        ] );
      ( "report",
        [
          Alcotest.test_case "build/emit/parse/validate" `Quick
            test_report_roundtrip;
          Alcotest.test_case "byte-stable" `Quick test_report_byte_stable;
          Alcotest.test_case "validate rejects corruption" `Quick
            test_validate_rejects;
          Alcotest.test_case "telemetry counters" `Quick test_sink_counters;
        ] );
    ]
