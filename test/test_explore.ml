(* Regression tests for the explorer's reductions and bookkeeping:
   - independent searches fanned out over several domains must return
     byte-identical statistics to the same searches run one after another;
   - memoized search must report the same verdicts while exploring fewer
     runs;
   - memoized exploration turns queue scenarios that blow the run budget
     into full proofs;
   - [complete] says whether the search finished within its run budget. *)

open Tso

let checkb = Alcotest.check Alcotest.bool

let pp_stats ppf (s : Explore.stats) =
  Format.fprintf ppf
    "{runs=%d; truncated=%d; deadlocks=%d; pruned=%d; memo_hits=%d; \
     complete=%b; failures=[%a]}"
    s.Explore.runs s.truncated s.deadlocks s.pruned s.memo_hits s.complete
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf (tr, msg) ->
         Format.fprintf ppf "([%s], %s)"
           (String.concat ";" (List.map string_of_int tr))
           msg))
    s.failures

let stats = Alcotest.testable pp_stats ( = )
let max_runs = 400_000

(* --- independent searches on several domains --------------------------- *)

(* The explorer runs one search on one domain; what runs in parallel is
   independent searches, fanned out by [Par_runner] behind the figure
   commands' [--jobs]. Each search owns its machines, memo table and DPOR
   state, so no result may depend on how many domains ran the searches. *)
let fan_out ~jobs f = Ws_harness.Par_runner.map ~jobs f Ws_litmus.Classic.all

let check_fanned_out ~label f =
  let seq = fan_out ~jobs:1 f and par = fan_out ~jobs:4 f in
  List.iter2
    (fun (t : Ws_litmus.Classic.t) (s, p) ->
      Alcotest.check stats (t.name ^ ": " ^ label) s p)
    Ws_litmus.Classic.all (List.combine seq par)

let test_parallel_byte_identical () =
  check_fanned_out ~label:"jobs=4 equals sequential" (fun t ->
      Explore.search ~max_runs ~mk:t.Ws_litmus.Classic.mk ())

let delta_spec queue delta =
  {
    Ws_harness.Scenarios.default_spec with
    queue;
    sb_capacity = 2;
    delta;
    worker_fence = false;
    preloaded = 3;
    puts = 0;
    steal_attempts = 2;
    client_stores = 0;
  }

let test_parallel_delta_grid () =
  (* a small δ grid of memoized DPOR proofs and sightings, on two domains
     as the Fig. 8 grid runs them: every cell equals its sequential twin *)
  let cells =
    List.concat_map
      (fun q -> [ delta_spec q 1; delta_spec q 2 ])
      [ "ff-the"; "ff-cl" ]
  in
  let go spec =
    Ws_harness.Scenarios.explore_check spec ~preemption_bound:(Some 3)
      ~memo:true ~dpor:true ()
  in
  let seq = Ws_harness.Par_runner.map ~jobs:1 go cells in
  let par = Ws_harness.Par_runner.map ~jobs:2 go cells in
  List.iter2
    (fun (spec : Ws_harness.Scenarios.spec) ((s, s_clean), (p, p_clean)) ->
      let cell = Printf.sprintf "%s delta=%d" spec.queue spec.delta in
      Alcotest.check stats (cell ^ ": jobs=2 equals sequential") s p;
      checkb (cell ^ ": same clean verdict") s_clean p_clean)
    cells (List.combine seq par);
  checkb "the grid holds a sighting and a proof" true
    (List.exists (fun (s, _) -> s.Explore.failures <> []) seq
    && List.exists snd seq)

let test_memo_same_verdicts () =
  let reduced = ref false in
  List.iter
    (fun (t : Ws_litmus.Classic.t) ->
      let plain = Ws_litmus.Classic.run t in
      let memo = Ws_litmus.Classic.run ~memo:true t in
      checkb (t.name ^ ": verdict unchanged") plain.observed memo.observed;
      checkb (t.name ^ ": ok unchanged") plain.ok memo.ok;
      checkb
        (t.name ^ ": memo never explores more")
        true (memo.runs <= plain.runs);
      if memo.runs < plain.runs then reduced := true)
    Ws_litmus.Classic.all;
  checkb "memoization reduced runs on at least one litmus case" true !reduced

let test_memo_parallel_verdicts () =
  let run jobs =
    Ws_harness.Par_runner.map ~jobs
      (fun t -> Ws_litmus.Classic.run ~memo:true t)
      Ws_litmus.Classic.all
  in
  List.iter2
    (fun (seq : Ws_litmus.Classic.result) (par : Ws_litmus.Classic.result) ->
      let name = seq.test.name in
      checkb (name ^ ": memo+jobs verdict unchanged") seq.observed par.observed;
      checkb (name ^ ": memo+jobs ok unchanged") seq.ok par.ok;
      checkb (name ^ ": memo+jobs exhausted unchanged") seq.exhausted
        par.exhausted;
      Alcotest.(check int) (name ^ ": memo+jobs runs unchanged") seq.runs
        par.runs)
    (run 1) (run 4)

let test_scenario_memo_completes () =
  (* the default ff-the scenario blows the 200k-run budget unmemoized;
     memoization collapses it to a complete (exhaustive) proof *)
  let spec = Ws_harness.Scenarios.default_spec in
  let st, clean =
    Ws_harness.Scenarios.explore_check spec ~preemption_bound:(Some 3)
      ~memo:true ()
  in
  checkb "no violation" true clean;
  checkb "memo hits reported" true (st.Explore.memo_hits > 0);
  checkb "well under the run budget" true (st.Explore.runs < 10_000)

(* --- failure orientation ----------------------------------------------- *)

(* S = delta + 1 with no client stores between takes: delta = ceil(S/1) = 2,
   so delta = 1 is unsound and the search records real violations *)
let violating_spec =
  {
    Ws_harness.Scenarios.default_spec with
    sb_capacity = 2;
    delta = 1;
    client_stores = 0;
    preloaded = 3;
    steal_attempts = 1;
  }

let test_failures_replay_order () =
  (* the orientation contract: every recorded failure, consumed exactly as
     returned (root-first, first-sighted first), replays to its verdict *)
  let mk = Ws_harness.Scenarios.instance violating_spec in
  let exercise label st =
    let fs = Explore.failures_in_replay_order st in
    checkb (label ^ ": identity on stats.failures") true
      (fs = st.Explore.failures);
    checkb (label ^ ": violations recorded") true (fs <> []);
    List.iter
      (fun (choices, msg) ->
        match Explore.replay_choices ~mk choices with
        | Error m -> Alcotest.(check string) (label ^ ": replay verdict") msg m
        | Ok () -> Alcotest.fail (label ^ ": failure prefix replayed clean")
        | exception Invalid_argument e ->
            Alcotest.fail (label ^ ": failure prefix did not replay: " ^ e))
      fs
  in
  exercise "seq"
    (Explore.search ~max_runs ~preemption_bound:(Some 3) ~memo:true ~mk ())

(* --- one schedule-replay driver ----------------------------------------- *)

(* Every failure the memoised search of [violating_spec] records,
   root-first. *)
let violating_failures =
  lazy
    (let mk = Ws_harness.Scenarios.instance violating_spec in
     match
       Explore.failures_in_replay_order
         (Explore.search ~max_runs ~preemption_bound:(Some 3) ~memo:true ~mk ())
     with
     | [] -> Alcotest.fail "violating_spec must violate"
     | fs -> fs)

(* [f] on a fresh instance from [mk], released on every exit. *)
let with_instance mk f =
  let inst = mk () in
  Fun.protect
    ~finally:(fun () -> Machine.release inst.Explore.machine)
    (fun () -> f inst)

let verdict = Alcotest.(result unit string)

let test_replay_on_agrees () =
  (* on a caller's instance, [replay_on] reaches each recorded verdict, as
     [replay_choices] does on an instance of its own *)
  let agree label mk fs =
    checkb (label ^ ": failures recorded") true (fs <> []);
    List.iter
      (fun (choices, msg) ->
        let v = with_instance mk (fun inst -> Explore.replay_on inst choices) in
        Alcotest.check verdict (label ^ ": the recorded verdict") (Error msg) v;
        Alcotest.check verdict (label ^ ": replay_choices agrees") v
          (Explore.replay_choices ~mk choices))
      fs
  in
  agree "violating_spec"
    (Ws_harness.Scenarios.instance violating_spec)
    (Lazy.force violating_failures);
  List.iter
    (fun name ->
      let t = Ws_litmus.Classic.find name in
      agree name t.Ws_litmus.Classic.mk
        (Explore.failures_in_replay_order
           (Explore.search ~max_runs ~memo:true ~mk:t.mk ())))
    (* the classic outcomes TSO allows, so their searches record failures *)
    [ "SB"; "n6" ]

(* The transitions a replay fires, found by hand: each index into
   [next_choices], then the first enabled transition until none is. *)
let fired_by_hand mk choices =
  with_instance mk (fun inst ->
      let m = inst.Explore.machine in
      let fired = ref [] in
      let fire tr =
        fired := tr :: !fired;
        Machine.apply m tr
      in
      List.iter (fun i -> fire (List.nth (Explore.next_choices m) i)) choices;
      let rec finish () =
        match Machine.enabled m with
        | [] -> ()
        | tr :: _ ->
            fire tr;
            finish ()
      in
      finish ();
      List.rev !fired)

let fired_by_hook mk choices =
  with_instance mk (fun inst ->
      let seen = ref [] in
      ignore
        (Explore.replay_on ~before:(fun tr -> seen := tr :: !seen) inst choices);
      List.rev !seen)

let test_replay_on_before_hook () =
  (* [before] sees every transition once, just before it fires, the forced
     suffix's included *)
  let mk = Ws_harness.Scenarios.instance violating_spec in
  List.iter
    (fun (choices, _) ->
      let seen = fired_by_hook mk choices in
      checkb "a recorded failure: as fired by hand" true
        (seen = fired_by_hand mk choices);
      Alcotest.(check int)
        "a recorded failure's suffix is empty" (List.length choices)
        (List.length seen))
    (Lazy.force violating_failures);
  let sb = (Ws_litmus.Classic.find "SB").Ws_litmus.Classic.mk in
  let whole = fired_by_hook sb [] in
  checkb "no choices: the greedy run, as fired by hand" true
    (whole = fired_by_hand sb []);
  checkb "which fires transitions" true (whole <> []);
  let root =
    with_instance sb (fun inst -> Explore.next_choices inst.Explore.machine)
  in
  let last = List.length root - 1 in
  checkb "SB offers its second thread at the root" true (last > 0);
  let seen = fired_by_hook sb [ last ] in
  checkb "one choice, then the suffix: as fired by hand" true
    (seen = fired_by_hand sb [ last ]);
  checkb "the chosen transition fires first" true
    (List.hd seen = List.nth root last && List.hd seen <> List.hd whole)

let test_replay_on_rejects () =
  (* a schedule that does not fit the instance raises, each with its own
     message *)
  let mk = Ws_harness.Scenarios.instance violating_spec in
  let choices, _ = List.hd (Lazy.force violating_failures) in
  let raises ?max_steps label expected choices =
    match
      with_instance mk (fun inst -> Explore.replay_on ?max_steps inst choices)
    with
    | _ -> Alcotest.fail (label ^ ": replayed")
    | exception Invalid_argument e -> Alcotest.(check string) label expected e
  in
  let n =
    with_instance mk (fun inst ->
        List.length (Explore.next_choices inst.Explore.machine))
  in
  raises "a negative index" "Explore.replay_on: bad choice index" [ -1 ];
  raises "an index past the root's choices"
    "Explore.replay_on: bad choice index" [ n ];
  raises "a choice past the end of the run"
    "Explore.replay_on: run ended early" (choices @ [ 0 ]);
  raises ~max_steps:0 "a suffix past max_steps"
    "Explore.replay_on: suffix exceeded max_steps"
    (List.filteri (fun i _ -> i < 2) choices)

let test_replay_on_leaves_instance () =
  (* the instance stays the caller's: a replay that raises part-way leaves
     its threads paused until the caller releases them, and a finished one
     leaves the machine quiescent with its check readable again *)
  let mk = Ws_harness.Scenarios.instance violating_spec in
  let choices, msg = List.hd (Lazy.force violating_failures) in
  let inst = mk () in
  (match Explore.replay_on ~max_steps:0 inst [ List.hd choices ] with
  | _ -> Alcotest.fail "a one-choice prefix must hit max_steps"
  | exception Invalid_argument _ -> ());
  checkb "threads still paused after the raise" false
    (Machine.all_done inst.Explore.machine);
  Machine.release inst.Explore.machine;
  checkb "released by the caller" true (Machine.all_done inst.Explore.machine);
  with_instance mk (fun inst ->
      let v = Explore.replay_on inst choices in
      Alcotest.check verdict "the recorded verdict" (Error msg) v;
      checkb "quiescent after a full replay" true
        (Machine.enabled inst.Explore.machine = []);
      Alcotest.check verdict "check reads the same verdict again" v
        (inst.Explore.check ()))

let test_next_choices_view () =
  (* [next_choices] is [Machine.enabled] without its pause steps, unless
     only pause steps are enabled; reading it changes nothing *)
  let reduced = ref 0 in
  let expected m =
    let en = Machine.enabled m in
    let productive =
      List.filter
        (function
          | Machine.Step t -> Machine.pending_class m t <> Machine.C_free
          | Machine.Drain _ | Machine.Flush _ -> true)
        en
    in
    if productive = [] then en
    else begin
      if List.length productive < List.length en then incr reduced;
      productive
    end
  in
  let walk label mk pick =
    with_instance mk (fun inst ->
        let m = inst.Explore.machine in
        let rec go budget =
          let cs = Explore.next_choices m in
          checkb (label ^ ": the reduced enabled set") true (cs = expected m);
          let fp = Machine.fingerprint m in
          checkb (label ^ ": a second read agrees") true
            (Explore.next_choices m = cs);
          Alcotest.(check int) (label ^ ": reading changes no state") fp
            (Machine.fingerprint m);
          match cs with
          | [] -> ()
          | _ when budget = 0 -> ()
          | _ ->
              Machine.apply m (pick cs);
              go (budget - 1)
        in
        go 400)
  in
  let last cs = List.nth cs (List.length cs - 1) in
  List.iter
    (fun (label, spec) ->
      let mk = Ws_harness.Scenarios.instance spec in
      walk (label ^ ", first choice") mk List.hd;
      walk (label ^ ", last choice") mk last)
    [
      ("ff-the", Ws_harness.Scenarios.default_spec);
      ("violating ff-the", violating_spec);
      ("thep", { Ws_harness.Scenarios.default_spec with queue = "thep" });
    ];
  checkb "some walk dropped a pause step" true (!reduced > 0)

(* --- snapshot-based sibling exploration -------------------------------- *)

let test_snapshot_replay_oracle () =
  (* replay-from-root is the differential oracle for the snapshot path:
     both must produce byte-identical statistics and failures *)
  List.iter
    (fun (t : Ws_litmus.Classic.t) ->
      let replay = Explore.search ~max_runs ~snapshots:false ~mk:t.mk () in
      let snap = Explore.search ~max_runs ~mk:t.mk () in
      Alcotest.check stats (t.name ^ ": snapshots equal replay") replay snap)
    Ws_litmus.Classic.all;
  (* and on a queue scenario with memo + DPOR + preemption bound stacked *)
  let go snapshots =
    Explore.search ~preemption_bound:(Some 3) ~memo:true ~dpor:true ~snapshots
      ~mk:(Ws_harness.Scenarios.instance Ws_harness.Scenarios.default_spec)
      ()
  in
  Alcotest.check stats "scenario: snapshots equal replay under memo+DPOR"
    (go false) (go true)

let test_probe_precheck_oracle () =
  (* a memoised snapshot search keys each fresh sibling on its probe
     before it builds one, while replay from the root builds every sibling
     and looks it up on arrival: both must report identical statistics and
     failures, with and without DPOR, also where violations are found *)
  let same ?preemption_bound name mk =
    List.iter
      (fun dpor ->
        let go snapshots =
          Explore.search ~max_runs ?preemption_bound ~memo:true ~dpor
            ~snapshots ~mk ()
        in
        Alcotest.check stats
          (Printf.sprintf "%s%s: precheck equals replay" name
             (if dpor then " with DPOR" else ""))
          (go false) (go true))
      [ false; true ]
  in
  List.iter
    (fun (t : Ws_litmus.Classic.t) -> same t.name t.mk)
    Ws_litmus.Classic.all;
  same ~preemption_bound:(Some 3) "default scenario"
    (Ws_harness.Scenarios.instance Ws_harness.Scenarios.default_spec);
  same ~preemption_bound:(Some 3) "ff-the at an unsound delta"
    (Ws_harness.Scenarios.instance violating_spec)

let test_snapshot_oracle_unreduced_bounded () =
  (* the unreduced search under a preemption bound, which can cut a
     node's first child so that a sibling is its first explored one:
     snapshots must still match replay, stateless on the litmus suite and
     memoised on a queue scenario *)
  List.iter
    (fun (t : Ws_litmus.Classic.t) ->
      let go snapshots =
        Explore.search ~max_runs ~preemption_bound:(Some 1) ~snapshots
          ~mk:t.mk ()
      in
      Alcotest.check stats
        (t.name ^ ": snapshots equal replay at bound 1")
        (go false) (go true))
    Ws_litmus.Classic.all;
  let go snapshots =
    Explore.search ~preemption_bound:(Some 3) ~memo:true ~snapshots
      ~mk:(Ws_harness.Scenarios.instance Ws_harness.Scenarios.default_spec)
      ()
  in
  let snap = go true in
  Alcotest.check stats "scenario: snapshots equal replay under memo+bound"
    (go false) snap;
  Alcotest.(check int) "the unreduced search keeps no sleep set" 0
    snap.Explore.sleep_skips

(* --- source-DPOR -------------------------------------------------------- *)

let test_dpor_classic_differential () =
  (* DPOR must preserve every verdict (and replayable failure prefixes)
     while never exploring more runs than the unreduced search, and in
     aggregate far fewer; snapshot-based sibling exploration must stay
     byte-identical to replay-from-root under it *)
  let total_plain = ref 0 and total_dpor = ref 0 in
  List.iter
    (fun (t : Ws_litmus.Classic.t) ->
      let plain = Explore.search ~max_runs ~mk:t.mk () in
      let dpor = Explore.search ~max_runs ~dpor:true ~mk:t.mk () in
      checkb (t.name ^ ": verdict unchanged")
        (plain.Explore.failures <> [])
        (dpor.Explore.failures <> []);
      checkb (t.name ^ ": DPOR never explores more") true
        (dpor.Explore.runs <= plain.Explore.runs);
      checkb (t.name ^ ": DPOR still exhausts") true
        (dpor.Explore.truncated = 0);
      total_plain := !total_plain + plain.Explore.runs;
      total_dpor := !total_dpor + dpor.Explore.runs;
      List.iter
        (fun (choices, _) ->
          match Explore.replay_choices ~mk:t.mk choices with
          | Error _ -> ()
          | Ok () ->
              Alcotest.failf "%s: DPOR failure prefix did not replay" t.name)
        dpor.Explore.failures;
      let replay =
        Explore.search ~max_runs ~dpor:true ~snapshots:false ~mk:t.mk ()
      in
      Alcotest.check stats (t.name ^ ": DPOR snapshots equal replay") replay
        dpor)
    Ws_litmus.Classic.all;
  checkb "DPOR cuts the suite at least 5x against the unreduced search" true
    (!total_dpor * 5 <= !total_plain)

let test_dpor_parallel_verdicts () =
  check_fanned_out ~label:"DPOR jobs=4 equals sequential" (fun t ->
      Explore.search ~max_runs ~dpor:true ~mk:t.Ws_litmus.Classic.mk ())

let test_dpor_delta_scenarios () =
  (* the §4 delta-soundness pair under DPOR: the delta=1 duplication is
     still sighted (with a replayable prefix), delta=2 still proves clean *)
  let spec = delta_spec "ff-cl" in
  let sighted, _ =
    Ws_harness.Scenarios.explore_check (spec 1) ~preemption_bound:(Some 3)
      ~memo:true ~dpor:true ()
  in
  checkb "delta=1: DPOR sights the duplication" true
    (sighted.Explore.failures <> []);
  (match sighted.Explore.failures with
  | (choices, _) :: _ -> (
      match
        Explore.replay_choices
          ~mk:(Ws_harness.Scenarios.instance (spec 1))
          choices
      with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "DPOR duplication prefix did not replay")
  | [] -> ());
  let proof, clean =
    Ws_harness.Scenarios.explore_check (spec 2) ~preemption_bound:(Some 3)
      ~memo:true ~dpor:true ()
  in
  checkb "delta=2: DPOR+memo proof is clean" true clean;
  checkb "delta=2: DPOR+memo proof completes under budget" true
    (proof.Explore.runs < 200_000)

let test_dpor_joined_read_clock () =
  (* A write is ordered after every read of its address since the last
     write, not only the latest one: the address's read clock joins them
     all. Without that join, DPOR sees races that happens-before already
     orders and plants reversals that sleep sets then skip, so the runs
     stay the same and the skips grow (here 5 -> 7). The program was
     found by comparing both on random three-thread programs. *)
  let mk () =
    let m = Machine.create (Machine.abstract_config ~sb_capacity:1) in
    let mem = Machine.memory m in
    let cell name = Memory.alloc mem ~name ~init:0 in
    let x = cell "x" and y = cell "y" and z = cell "z" in
    let spawn name body = ignore (Machine.spawn m ~name body) in
    spawn "t0" (fun () ->
        ignore (Program.fetch_add z 1);
        ignore (Program.fetch_add y 1);
        Program.fence ());
    spawn "t1" (fun () ->
        Program.store x 2;
        ignore (Program.load y);
        ignore (Program.fetch_add x 1);
        ignore (Program.load z));
    spawn "t2" (fun () -> ignore (Program.load z));
    { Explore.machine = m; check = (fun () -> Ok ()) }
  in
  let st = Explore.search ~dpor:true ~mk () in
  Alcotest.(check (list int))
    "runs, sleep skips, truncated" [ 8; 5; 0 ]
    [ st.Explore.runs; st.Explore.sleep_skips; st.Explore.truncated ]

let test_dpor_capacity_sweep () =
  (* the classic-suite differential across store-buffer capacities of a
     queue scenario: capacity moves where the reordering lives, so the
     independence relation is exercised with short and long drain chains *)
  List.iter
    (fun sb_capacity ->
      let spec =
        {
          Ws_harness.Scenarios.default_spec with
          sb_capacity;
          preloaded = 2;
          steal_attempts = 1;
        }
      in
      let go dpor =
        Ws_harness.Scenarios.explore_check spec ~max_runs:40_000
          ~preemption_bound:(Some 3) ~dpor ()
      in
      let plain, plain_clean = go false in
      let dpor, dpor_clean = go true in
      checkb
        (Printf.sprintf "sb=%d: clean verdict agrees" sb_capacity)
        plain_clean dpor_clean;
      checkb
        (Printf.sprintf "sb=%d: DPOR never explores more" sb_capacity)
        true
        (dpor.Explore.runs <= plain.Explore.runs))
    [ 1; 2; 3 ]

(* --- memo table ---------------------------------------------------------- *)

let test_memo_store_frontier () =
  (* a revisit is pruned only by an entry with at least its depth and its
     preemption budget, so incomparable budgets both stay on a state's
     frontier *)
  let s = Memo_store.create () in
  let seen d p = Memo_store.seen s 42 ~depth_rem:d ~preempt_rem:p in
  checkb "first visit is novel" false (seen 10 1);
  checkb "less of both is covered" true (seen 9 0);
  checkb "equal budget is covered" true (seen 10 1);
  checkb "more preemptions, less depth: novel" false (seen 5 3);
  checkb "covered by the second entry" true (seen 5 2);
  checkb "the first entry still covers" true (seen 10 1);
  checkb "more depth than either: novel" false (seen 11 1);
  checkb "the new entry covers the first's budget" true (seen 11 0);
  checkb "no entry has both maxima" false (seen 11 3);
  checkb "which now covers every earlier visit" true
    (seen 11 3 && seen 5 3 && seen 10 1);
  checkb "another fingerprint has its own frontier" false
    (Memo_store.seen s 43 ~depth_rem:0 ~preempt_rem:0);
  Alcotest.(check (pair int int))
    "lookups and hits" (13, 8)
    (Memo_store.lookups s, Memo_store.hits s)

(* The list-based table the flat one replaced, kept verbatim as the
   reference: a hashtable from each fingerprint to its Pareto frontier. *)
module List_memo = struct
  let rec covered frontier depth_rem preempt_rem =
    match frontier with
    | [] -> false
    | (d, p) :: rest ->
        (d >= depth_rem && p >= preempt_rem)
        || covered rest depth_rem preempt_rem

  let check tbl fp ~depth_rem ~preempt_rem =
    let frontier = try Hashtbl.find tbl fp with Not_found -> [] in
    covered frontier depth_rem preempt_rem
    || begin
         Hashtbl.replace tbl fp
           ((depth_rem, preempt_rem)
           :: List.filter
                (fun (d, p) -> not (d <= depth_rem && p <= preempt_rem))
                frontier);
         false
       end
end

(* Fingerprints that differ in their low bits only, their high bits only,
   the extremes, and arbitrary ones. *)
let memo_key_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun i -> i) (int_range (-8) 8);
      map (fun i -> i lsl 52) (int_range (-512) 511);
      oneofl [ max_int; min_int; max_int - 1; min_int + 1 ];
      int;
    ]

let memo_budget_gen =
  QCheck.Gen.(frequency [ (6, int_range 0 4); (1, return max_int) ])

(* A table of [n] keys and lookups over them: a handful of keys to build
   deep frontiers, or thousands so that probe runs crowd and the table
   grows. *)
let memo_case_gen =
  let open QCheck.Gen in
  let* n =
    frequency
      [ (3, int_range 1 8); (2, int_range 50 500); (2, int_range 2500 5000) ]
  in
  let* keys = array_size (return n) memo_key_gen in
  let+ ops =
    list_size
      (int_range 0 ((3 * n) + 100))
      (triple (int_bound (n - 1)) memo_budget_gen memo_budget_gen)
  in
  (keys, ops)

let print_memo_case (keys, ops) =
  Printf.sprintf "%d keys, %d lookups: %s" (Array.length keys)
    (List.length ops)
    (String.concat "; "
       (List.map
          (fun (k, d, p) -> Printf.sprintf "(%d, %d, %d)" keys.(k) d p)
          (List.filteri (fun i _ -> i < 40) ops)))

let memo_matches_list_table (keys, ops) =
  let store = Memo_store.create () and tbl = Hashtbl.create 16 in
  let hits = ref 0 in
  List.iteri
    (fun i (k, d, p) ->
      let fp = keys.(k) in
      let want = List_memo.check tbl fp ~depth_rem:d ~preempt_rem:p in
      let got = Memo_store.seen store fp ~depth_rem:d ~preempt_rem:p in
      if got <> want then
        QCheck.Test.fail_reportf "lookup %d (%d, %d, %d): %b, reference %b" i
          fp d p got want;
      if want then incr hits)
    ops;
  Memo_store.lookups store = List.length ops && Memo_store.hits store = !hits

let memo_table_prop =
  QCheck.Test.make ~name:"flat memo table = list-based reference" ~count:120
    (QCheck.make ~print:print_memo_case memo_case_gen)
    memo_matches_list_table

(* --- complete ----------------------------------------------------------- *)

let test_complete () =
  (* [complete] is false iff the run budget stopped the search *)
  let t = Ws_litmus.Classic.find "SB" in
  let full = Explore.search ~max_runs ~mk:t.mk () in
  checkb "plain search completes" true full.Explore.complete;
  let half = max 1 (full.Explore.runs / 2) in
  let partial = Explore.search ~max_runs:half ~mk:t.mk () in
  checkb "a binding budget leaves it incomplete" false partial.Explore.complete;
  Alcotest.(check int) "stopped at the budget" half partial.Explore.runs;
  (* the budget stops the search at its last run, before it can tell that
     nothing is left *)
  checkb "a budget met exactly still binds" false
    (Explore.search ~max_runs:full.Explore.runs ~mk:t.mk ()).Explore.complete;
  let dpor = Explore.search ~max_runs ~dpor:true ~mk:t.mk () in
  checkb "DPOR search completes" true dpor.Explore.complete;
  let memo = Explore.search ~max_runs ~memo:true ~mk:t.mk () in
  checkb "memoized search completes" true memo.Explore.complete;
  let bounded =
    Explore.search ~max_runs ~preemption_bound:(Some 2) ~mk:t.mk ()
  in
  checkb "bounded search completes" true bounded.Explore.complete

let test_cut_never_clean () =
  (* a budget-cut search is never a clean verdict, even with no failure:
     THE without its fence duplicates a task, but not in the first 5 runs *)
  let spec =
    {
      Ws_harness.Scenarios.default_spec with
      queue = "the";
      worker_fence = false;
      preloaded = 2;
      steal_attempts = 1;
    }
  in
  let cut, cut_clean =
    Ws_harness.Scenarios.explore_check spec ~max_runs:5
      ~preemption_bound:(Some 3) ()
  in
  checkb "the first 5 runs find nothing" true (cut.Explore.failures = []);
  checkb "so the cut search is not clean" false cut_clean;
  let whole, _ =
    Ws_harness.Scenarios.explore_check spec ~preemption_bound:(Some 3)
      ~memo:true ~dpor:true ()
  in
  checkb "the completed search finds the duplicate" true
    (whole.Explore.complete && whole.Explore.failures <> [])

let test_truncated_never_clean () =
  (* a search that finishes without a failure but cut runs at its depth
     bound is not a clean verdict either; the same search at the default
     depth bound is *)
  let go ?max_depth () =
    Ws_harness.Scenarios.explore_check Ws_harness.Scenarios.default_spec
      ?max_depth ~preemption_bound:(Some 3) ~memo:true ~dpor:true ()
  in
  let shallow, shallow_clean = go ~max_depth:20 () in
  checkb "the shallow search completes" true shallow.Explore.complete;
  checkb "with no failure" true (shallow.Explore.failures = []);
  checkb "but cuts runs at the depth bound" true
    (shallow.Explore.truncated > 0);
  checkb "so it is not clean" false shallow_clean;
  let deep, deep_clean = go () in
  Alcotest.(check int) "the default bound cuts none" 0 deep.Explore.truncated;
  checkb "and that search is clean" true deep_clean

let test_classic_exhausted () =
  (* [Classic.run]'s [exhausted] is [complete] (with no depth cut), and a
     forbidden outcome is only [ok] once the search exhausted *)
  let t = Ws_litmus.Classic.find "SB+fences" in
  let full = Ws_litmus.Classic.run t in
  checkb "the full search is exhaustive" true full.exhausted;
  checkb "and decides the forbidden outcome" true
    ((not full.observed) && full.ok);
  let cut = Ws_litmus.Classic.run ~max_runs:(full.runs / 2) t in
  checkb "a binding budget is not exhaustive" false cut.exhausted;
  checkb "nor observes the outcome" false cut.observed;
  checkb "so it decides nothing" false cut.ok

(* --- instance lifecycle ---------------------------------------------- *)

let test_instances_released () =
  (* whoever builds an instance releases it: after every kind of search,
     no machine the builder handed out may still hold a paused thread (its
     fiber stack would never be freed) *)
  let kept = ref [] in
  let keeping mk () =
    let inst = mk () in
    kept := inst.Explore.machine :: !kept;
    inst
  in
  let expect label f =
    kept := [];
    f ();
    let built = List.length !kept in
    let paused =
      List.length (List.filter (fun m -> not (Machine.all_done m)) !kept)
    in
    checkb (label ^ ": siblings were built") true (built > 1);
    Alcotest.(check int)
      (Printf.sprintf "%s: machines still paused, of %d built" label built)
      0 paused
  in
  let mk = keeping (Ws_harness.Scenarios.instance violating_spec) in
  let pb = Some 2 and max_runs = 3000 in
  let search ?snapshots ?(max_runs = max_runs) ?max_depth ?memo ?dpor () () =
    ignore
      (Explore.search ~max_runs ?max_depth ~preemption_bound:pb ?snapshots
         ?memo ?dpor ~mk ())
  in
  expect "stateless plain" (search ());
  expect "stateless dpor" (search ~dpor:true ());
  expect "memo plain" (search ~memo:true ());
  expect "memo dpor" (search ~memo:true ~dpor:true ());
  expect "snapshots:false" (search ~snapshots:false ~dpor:true ());
  expect "snapshots:false memo" (search ~snapshots:false ~memo:true ());
  expect "Stop mid-tree" (search ~max_runs:40 ());
  expect "Stop mid-tree dpor" (search ~max_runs:40 ~dpor:true ());
  (* every run is cut at depth 12, so [Stop] itself is raised at a leaf
     whose threads are still paused *)
  expect "Stop at a truncated leaf" (search ~max_runs:40 ~max_depth:12 ());
  expect "Stop at a truncated leaf, no snapshots"
    (search ~max_runs:40 ~max_depth:12 ~snapshots:false ~dpor:true ());
  (* forensics' ddmin replays many truncated candidates that raise *)
  let choices =
    match
      (Explore.search ~preemption_bound:(Some 3) ~memo:true ~mk ())
        .Explore.failures
    with
    | (choices, _) :: _ -> choices
    | [] -> Alcotest.fail "violating_spec must violate"
  in
  expect "replay_choices raising" (fun () ->
      for keep = 1 to 4 do
        let candidate = List.filteri (fun i _ -> i < keep) choices in
        match Explore.replay_choices ~max_steps:0 ~mk candidate with
        | _ -> Alcotest.fail "a truncated candidate must hit max_steps"
        | exception Invalid_argument _ -> ()
      done);
  (* the witness replay of a report, and of a schedule it rejects part-way *)
  expect "Witness.replay" (fun () ->
      ignore (Forensics.Witness.replay ~mk choices);
      for keep = 1 to 4 do
        let candidate = List.filteri (fun i _ -> i < keep) choices @ [ 999 ] in
        match Forensics.Witness.replay ~mk candidate with
        | _ -> Alcotest.fail "choice 999 must be rejected"
        | exception Invalid_argument _ -> ()
      done)

(* --- source-DPOR golden table ------------------------------------------- *)

type golden_mode = Stateless | Memo

(* Recorded from the explorer's DPOR before the explorer released the
   instances it builds, and unchanged by that; a later change to the DPOR
   state must keep every number. One row per (queue, sb, (tasks, steals,
   delta, client stores), mode):
   [| runs; truncated; deadlocks; pruned; memo_hits; sleep_skips;
   peak_depth |], the first 12 hex digits of the MD5 of the failures
   (choices and messages), and the failure messages. Stateless rows search
   at preemption bound 2 under a 4,000-run cap, memoised rows at bound 3
   to completion. *)
let dpor_golden =
  [
    ("the", 1, (1, 1, 1, 0), Stateless, [| 4000; 0; 0; 3613; 0; 1198; 44 |], "d41d8cd98f00", []);
    ("the", 1, (1, 1, 1, 0), Memo, [| 53; 0; 0; 31; 539; 21; 44 |], "d41d8cd98f00", []);
    ("the", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 3570; 0; 1325; 52 |], "d41d8cd98f00", []);
    ("the", 1, (2, 1, 1, 1), Memo, [| 86; 0; 0; 106; 1355; 42; 56 |], "d41d8cd98f00", []);
    ("the", 1, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 3613; 0; 1198; 56 |], "d41d8cd98f00", []);
    ("the", 1, (3, 1, 2, 0), Memo, [| 119; 0; 0; 163; 1342; 33; 56 |], "d41d8cd98f00", []);
    ("the", 1, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 4369; 0; 1637; 56 |], "d41d8cd98f00", []);
    ("the", 1, (2, 2, 1, 0), Memo, [| 437; 0; 0; 638; 4363; 209; 60 |], "d41d8cd98f00", []);
    ("the", 2, (1, 1, 1, 0), Stateless, [| 4000; 0; 0; 1028; 0; 525; 44 |], "d41d8cd98f00", []);
    ("the", 2, (1, 1, 1, 0), Memo, [| 57; 0; 0; 34; 774; 0; 44 |], "d41d8cd98f00", []);
    ("the", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 684; 0; 778; 52 |], "d41d8cd98f00", []);
    ("the", 2, (2, 1, 1, 1), Memo, [| 90; 0; 0; 119; 1917; 0; 56 |], "d41d8cd98f00", []);
    ("the", 2, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 1028; 0; 525; 56 |], "d41d8cd98f00", []);
    ("the", 2, (3, 1, 2, 0), Memo, [| 131; 0; 0; 171; 1829; 0; 56 |], "d41d8cd98f00", []);
    ("the", 2, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 862; 0; 649; 56 |], "d41d8cd98f00", []);
    ("the", 2, (2, 2, 1, 0), Memo, [| 504; 0; 0; 739; 6681; 0; 60 |], "d41d8cd98f00", []);
    ("chase-lev", 1, (1, 1, 1, 0), Stateless, [| 1148; 0; 0; 1858; 0; 204; 34 |], "d41d8cd98f00", []);
    ("chase-lev", 1, (1, 1, 1, 0), Memo, [| 20; 0; 0; 12; 183; 4; 34 |], "d41d8cd98f00", []);
    ("chase-lev", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 5181; 0; 624; 46 |], "d41d8cd98f00", []);
    ("chase-lev", 1, (2, 1, 1, 1), Memo, [| 31; 0; 0; 18; 408; 6; 46 |], "d41d8cd98f00", []);
    ("chase-lev", 1, (3, 1, 2, 0), Stateless, [| 2536; 0; 0; 5014; 0; 384; 46 |], "d41d8cd98f00", []);
    ("chase-lev", 1, (3, 1, 2, 0), Memo, [| 44; 0; 0; 16; 340; 8; 46 |], "d41d8cd98f00", []);
    ("chase-lev", 1, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 6388; 0; 721; 42 |], "d41d8cd98f00", []);
    ("chase-lev", 1, (2, 2, 1, 0), Memo, [| 122; 0; 0; 188; 755; 33; 42 |], "d41d8cd98f00", []);
    ("chase-lev", 2, (1, 1, 1, 0), Stateless, [| 4000; 0; 0; 6458; 0; 628; 34 |], "d41d8cd98f00", []);
    ("chase-lev", 2, (1, 1, 1, 0), Memo, [| 20; 0; 0; 12; 218; 4; 34 |], "d41d8cd98f00", []);
    ("chase-lev", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 3908; 0; 705; 46 |], "d41d8cd98f00", []);
    ("chase-lev", 2, (2, 1, 1, 1), Memo, [| 31; 0; 0; 20; 516; 6; 46 |], "d41d8cd98f00", []);
    ("chase-lev", 2, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 7565; 0; 587; 46 |], "d41d8cd98f00", []);
    ("chase-lev", 2, (3, 1, 2, 0), Memo, [| 44; 0; 0; 16; 375; 8; 46 |], "d41d8cd98f00", []);
    ("chase-lev", 2, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 6388; 0; 721; 42 |], "d41d8cd98f00", []);
    ("chase-lev", 2, (2, 2, 1, 0), Memo, [| 121; 0; 0; 176; 840; 33; 42 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 1, (1, 1, 1, 0), Stateless, [| 2184; 0; 0; 4409; 0; 328; 39 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 1, (1, 1, 1, 0), Memo, [| 22; 0; 0; 22; 287; 5; 39 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 6077; 0; 658; 52 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 1, (2, 1, 1, 1), Memo, [| 33; 0; 0; 32; 621; 8; 52 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 1, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 9402; 0; 510; 53 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 1, (3, 1, 2, 0), Memo, [| 46; 0; 0; 30; 568; 11; 53 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 1, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 7867; 0; 737; 48 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 1, (2, 2, 1, 0), Memo, [| 138; 0; 0; 416; 1222; 41; 48 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 2, (1, 1, 1, 0), Stateless, [| 4000; 0; 0; 7604; 0; 623; 39 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 2, (1, 1, 1, 0), Memo, [| 22; 0; 0; 22; 333; 5; 39 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 5122; 0; 686; 52 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 2, (2, 1, 1, 1), Memo, [| 33; 0; 0; 35; 762; 8; 52 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 2, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 9058; 0; 547; 53 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 2, (3, 1, 2, 0), Memo, [| 46; 0; 0; 30; 614; 11; 53 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 2, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 7867; 0; 737; 48 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 2, (2, 2, 1, 0), Memo, [| 137; 0; 0; 403; 1403; 41; 48 |], "d41d8cd98f00", []);
    ("abp", 1, (1, 1, 1, 0), Stateless, [| 390; 0; 0; 590; 0; 45; 26 |], "d41d8cd98f00", []);
    ("abp", 1, (1, 1, 1, 0), Memo, [| 16; 0; 0; 8; 88; 10; 26 |], "d41d8cd98f00", []);
    ("abp", 1, (2, 1, 1, 1), Stateless, [| 3228; 0; 0; 3263; 0; 169; 37 |], "d41d8cd98f00", []);
    ("abp", 1, (2, 1, 1, 1), Memo, [| 29; 0; 0; 6; 322; 9; 37 |], "d41d8cd98f00", []);
    ("abp", 1, (3, 1, 2, 0), Stateless, [| 718; 0; 0; 1406; 0; 85; 38 |], "d41d8cd98f00", []);
    ("abp", 1, (3, 1, 2, 0), Memo, [| 31; 0; 0; 35; 137; 23; 38 |], "d41d8cd98f00", []);
    ("abp", 1, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 6609; 0; 215; 34 |], "d41d8cd98f00", []);
    ("abp", 1, (2, 2, 1, 0), Memo, [| 109; 0; 0; 83; 486; 23; 34 |], "d41d8cd98f00", []);
    ("abp", 2, (1, 1, 1, 0), Stateless, [| 1977; 0; 0; 2408; 0; 140; 26 |], "d41d8cd98f00", []);
    ("abp", 2, (1, 1, 1, 0), Memo, [| 16; 0; 0; 8; 149; 6; 26 |], "d41d8cd98f00", []);
    ("abp", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 2058; 0; 574; 37 |], "d41d8cd98f00", []);
    ("abp", 2, (2, 1, 1, 1), Memo, [| 29; 0; 0; 6; 397; 9; 37 |], "d41d8cd98f00", []);
    ("abp", 2, (3, 1, 2, 0), Stateless, [| 3201; 0; 0; 5368; 0; 276; 38 |], "d41d8cd98f00", []);
    ("abp", 2, (3, 1, 2, 0), Memo, [| 38; 0; 0; 16; 272; 10; 38 |], "d41d8cd98f00", []);
    ("abp", 2, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 4725; 0; 162; 34 |], "d41d8cd98f00", []);
    ("abp", 2, (2, 2, 1, 0), Memo, [| 106; 0; 0; 96; 619; 18; 34 |], "d41d8cd98f00", []);
    ("ff-the", 1, (1, 1, 1, 0), Stateless, [| 4000; 0; 0; 2338; 0; 1628; 41 |], "d41d8cd98f00", []);
    ("ff-the", 1, (1, 1, 1, 0), Memo, [| 84; 0; 0; 42; 1159; 41; 41 |], "d41d8cd98f00", []);
    ("ff-the", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 2470; 0; 1425; 48 |], "d41d8cd98f00", []);
    ("ff-the", 1, (2, 1, 1, 1), Memo, [| 139; 0; 0; 138; 2569; 62; 52 |], "d41d8cd98f00", []);
    ("ff-the", 1, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 2338; 0; 1628; 51 |], "d41d8cd98f00", []);
    ("ff-the", 1, (3, 1, 2, 0), Memo, [| 246; 0; 0; 261; 4479; 104; 51 |], "d41d8cd98f00", []);
    ("ff-the", 1, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 3621; 0; 1920; 52 |], "d41d8cd98f00", []);
    ("ff-the", 1, (2, 2, 1, 0), Memo, [| 838; 0; 0; 1190; 11272; 445; 56 |], "d41d8cd98f00", []);
    ("ff-the", 2, (1, 1, 1, 0), Stateless, [| 4000; 0; 0; 725; 0; 614; 41 |], "d41d8cd98f00", []);
    ("ff-the", 2, (1, 1, 1, 0), Memo, [| 91; 0; 0; 78; 2377; 0; 41 |], "2cef854df569", ["task 0 extracted 2 times"; "task 0 extracted 2 times"; "task 0 extracted 2 times"; "task 0 extracted 2 times"; "task 0 extracted 2 times"]);
    ("ff-the", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 732; 0; 513; 48 |], "d41d8cd98f00", []);
    ("ff-the", 2, (2, 1, 1, 1), Memo, [| 140; 0; 0; 236; 4896; 0; 52 |], "d41d8cd98f00", []);
    ("ff-the", 2, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 725; 0; 614; 51 |], "d41d8cd98f00", []);
    ("ff-the", 2, (3, 1, 2, 0), Memo, [| 271; 0; 0; 483; 7967; 0; 51 |], "d41d8cd98f00", []);
    ("ff-the", 2, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 661; 0; 524; 52 |], "d41d8cd98f00", []);
    ("ff-the", 2, (2, 2, 1, 0), Memo, [| 983; 0; 0; 1678; 21370; 0; 56 |], "1fcfd4a5481e", ["task 0 extracted 2 times"; "task 0 extracted 2 times"; "task 0 extracted 2 times"; "task 0 extracted 2 times"; "task 0 extracted 2 times"]);
    ("ff-cl", 1, (1, 1, 1, 0), Stateless, [| 4000; 0; 0; 3323; 0; 643; 31 |], "d41d8cd98f00", []);
    ("ff-cl", 1, (1, 1, 1, 0), Memo, [| 15; 0; 0; 0; 162; 4; 31 |], "d41d8cd98f00", []);
    ("ff-cl", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 2145; 0; 457; 42 |], "d41d8cd98f00", []);
    ("ff-cl", 1, (2, 1, 1, 1), Memo, [| 28; 0; 0; 0; 428; 6; 42 |], "d41d8cd98f00", []);
    ("ff-cl", 1, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 2320; 0; 252; 36 |], "d41d8cd98f00", []);
    ("ff-cl", 1, (3, 1, 2, 0), Memo, [| 31; 0; 0; 0; 454; 6; 41 |], "d41d8cd98f00", []);
    ("ff-cl", 1, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 2897; 0; 912; 38 |], "d41d8cd98f00", []);
    ("ff-cl", 1, (2, 2, 1, 0), Memo, [| 108; 0; 0; 135; 1029; 31; 38 |], "d41d8cd98f00", []);
    ("ff-cl", 2, (1, 1, 1, 0), Stateless, [| 4000; 0; 0; 3114; 0; 831; 31 |], "d41d8cd98f00", []);
    ("ff-cl", 2, (1, 1, 1, 0), Memo, [| 16; 0; 0; 0; 264; 4; 31 |], "d41d8cd98f00", []);
    ("ff-cl", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 888; 0; 516; 37 |], "d41d8cd98f00", []);
    ("ff-cl", 2, (2, 1, 1, 1), Memo, [| 26; 0; 0; 0; 814; 6; 42 |], "d41d8cd98f00", []);
    ("ff-cl", 2, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 1812; 0; 281; 36 |], "d41d8cd98f00", []);
    ("ff-cl", 2, (3, 1, 2, 0), Memo, [| 31; 0; 0; 0; 817; 6; 41 |], "d41d8cd98f00", []);
    ("ff-cl", 2, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 1618; 0; 1151; 33 |], "d41d8cd98f00", []);
    ("ff-cl", 2, (2, 2, 1, 0), Memo, [| 119; 0; 0; 183; 1676; 34; 38 |], "0f86e5f98cf7", ["task 1 extracted 2 times"; "task 1 extracted 2 times"; "task 1 extracted 2 times"; "task 1 extracted 2 times"; "task 1 extracted 2 times"]);
    ("thep", 1, (1, 1, 1, 0), Stateless, [| 4000; 0; 0; 1315; 0; 958; 45 |], "d41d8cd98f00", []);
    ("thep", 1, (1, 1, 1, 0), Memo, [| 154; 12; 0; 94; 1754; 1; 400 |], "d41d8cd98f00", []);
    ("thep", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 1211; 0; 977; 58 |], "d41d8cd98f00", []);
    ("thep", 1, (2, 1, 1, 1), Memo, [| 195; 8; 0; 222; 3325; 1; 400 |], "d41d8cd98f00", []);
    ("thep", 1, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 1315; 0; 958; 59 |], "d41d8cd98f00", []);
    ("thep", 1, (3, 1, 2, 0), Memo, [| 323; 24; 0; 533; 5326; 1; 400 |], "d41d8cd98f00", []);
    ("thep", 1, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 1942; 0; 1085; 64 |], "d41d8cd98f00", []);
    ("thep", 1, (2, 2, 1, 0), Memo, [| 1973; 59; 0; 2547; 19797; 48; 400 |], "d41d8cd98f00", []);
    ("thep", 2, (1, 1, 1, 0), Stateless, [| 4000; 0; 0; 324; 0; 174; 45 |], "d41d8cd98f00", []);
    ("thep", 2, (1, 1, 1, 0), Memo, [| 190; 18; 0; 109; 3635; 0; 400 |], "d41d8cd98f00", []);
    ("thep", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 324; 0; 174; 58 |], "d41d8cd98f00", []);
    ("thep", 2, (2, 1, 1, 1), Memo, [| 197; 8; 0; 342; 6366; 0; 400 |], "d41d8cd98f00", []);
    ("thep", 2, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 324; 0; 174; 59 |], "d41d8cd98f00", []);
    ("thep", 2, (3, 1, 2, 0), Memo, [| 339; 25; 0; 786; 9641; 0; 400 |], "d41d8cd98f00", []);
    ("thep", 2, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 175; 0; 151; 64 |], "d41d8cd98f00", []);
    ("thep", 2, (2, 2, 1, 0), Memo, [| 2290; 83; 0; 3376; 38282; 0; 400 |], "d41d8cd98f00", []);
    ("thep-sep", 1, (1, 1, 1, 0), Stateless, [| 4000; 0; 0; 1941; 0; 1197; 51 |], "d41d8cd98f00", []);
    ("thep-sep", 1, (1, 1, 1, 0), Memo, [| 273; 26; 0; 330; 4059; 1; 400 |], "d41d8cd98f00", []);
    ("thep-sep", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 1756; 0; 1251; 65 |], "d41d8cd98f00", []);
    ("thep-sep", 1, (2, 1, 1, 1), Memo, [| 430; 29; 0; 873; 9030; 1; 400 |], "d41d8cd98f00", []);
    ("thep-sep", 1, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 1941; 0; 1197; 67 |], "d41d8cd98f00", []);
    ("thep-sep", 1, (3, 1, 2, 0), Memo, [| 847; 100; 0; 2142; 17136; 1; 400 |], "d41d8cd98f00", []);
    ("thep-sep", 1, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 2288; 0; 1564; 74 |], "d41d8cd98f00", []);
    ("thep-sep", 1, (2, 2, 1, 0), Memo, [| 5231; 179; 0; 11483; 68350; 111; 400 |], "d41d8cd98f00", []);
    ("thep-sep", 2, (1, 1, 1, 0), Stateless, [| 4000; 0; 0; 204; 0; 308; 51 |], "d41d8cd98f00", []);
    ("thep-sep", 2, (1, 1, 1, 0), Memo, [| 346; 40; 0; 428; 8442; 0; 400 |], "d41d8cd98f00", []);
    ("thep-sep", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 204; 0; 308; 65 |], "d41d8cd98f00", []);
    ("thep-sep", 2, (2, 1, 1, 1), Memo, [| 440; 29; 0; 1297; 17081; 0; 400 |], "d41d8cd98f00", []);
    ("thep-sep", 2, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 204; 0; 308; 67 |], "d41d8cd98f00", []);
    ("thep-sep", 2, (3, 1, 2, 0), Memo, [| 869; 98; 0; 2596; 29865; 0; 400 |], "d41d8cd98f00", []);
    ("thep-sep", 2, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 120; 0; 174; 74 |], "d41d8cd98f00", []);
    ("thep-sep", 2, (2, 2, 1, 0), Memo, [| 6292; 264; 0; 15821; 134408; 0; 400 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 1, (1, 1, 1, 0), Stateless, [| 1227; 0; 0; 701; 0; 284; 19 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 1, (1, 1, 1, 0), Memo, [| 12; 0; 0; 0; 140; 3; 19 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 1370; 0; 830; 29 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 1, (2, 1, 1, 1), Memo, [| 17; 0; 0; 0; 337; 5; 29 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 1, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 3072; 0; 602; 27 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 1, (3, 1, 2, 0), Memo, [| 20; 0; 0; 0; 365; 5; 27 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 1, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 3111; 0; 599; 26 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 1, (2, 2, 1, 0), Memo, [| 64; 0; 0; 54; 805; 16; 26 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 2, (1, 1, 1, 0), Stateless, [| 4000; 0; 0; 2596; 0; 831; 19 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 2, (1, 1, 1, 0), Memo, [| 11; 0; 0; 0; 215; 3; 19 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 2723; 0; 461; 29 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 2, (2, 1, 1, 1), Memo, [| 16; 0; 0; 0; 635; 5; 29 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 2, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 2654; 0; 843; 27 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 2, (3, 1, 2, 0), Memo, [| 19; 0; 0; 0; 602; 5; 27 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 2, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 2370; 0; 980; 26 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 2, (2, 2, 1, 0), Memo, [| 62; 0; 0; 46; 1284; 17; 26 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 1, (1, 1, 1, 0), Stateless, [| 1227; 0; 0; 701; 0; 284; 19 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 1, (1, 1, 1, 0), Memo, [| 12; 0; 0; 0; 140; 3; 19 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 1370; 0; 830; 29 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 1, (2, 1, 1, 1), Memo, [| 17; 0; 0; 0; 337; 5; 29 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 1, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 3072; 0; 602; 27 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 1, (3, 1, 2, 0), Memo, [| 20; 0; 0; 0; 365; 5; 27 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 1, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 3097; 0; 598; 26 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 1, (2, 2, 1, 0), Memo, [| 71; 0; 0; 54; 862; 18; 26 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 2, (1, 1, 1, 0), Stateless, [| 4000; 0; 0; 2596; 0; 831; 19 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 2, (1, 1, 1, 0), Memo, [| 11; 0; 0; 0; 215; 3; 19 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 2723; 0; 461; 29 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 2, (2, 1, 1, 1), Memo, [| 16; 0; 0; 0; 635; 5; 29 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 2, (3, 1, 2, 0), Stateless, [| 4000; 0; 0; 2654; 0; 843; 27 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 2, (3, 1, 2, 0), Memo, [| 19; 0; 0; 0; 602; 5; 27 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 2, (2, 2, 1, 0), Stateless, [| 4000; 0; 0; 2365; 0; 977; 26 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 2, (2, 2, 1, 0), Memo, [| 68; 0; 0; 46; 1344; 19; 26 |], "d41d8cd98f00", []);
  ]

(* The unreduced search, recorded before it moved into the DPOR branch-node
   loop: every queue at sb 1 and 2 on config (2, 1, 1, 1), under the same
   caps and bounds as the DPOR rows. *)
let unreduced_golden =
  [
    ("the", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 1396; 0; 0; 52 |], "d41d8cd98f00", []);
    ("the", 1, (2, 1, 1, 1), Memo, [| 85; 0; 0; 100; 1425; 0; 56 |], "d41d8cd98f00", []);
    ("the", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 515; 0; 0; 52 |], "d41d8cd98f00", []);
    ("the", 2, (2, 1, 1, 1), Memo, [| 90; 0; 0; 119; 1917; 0; 56 |], "d41d8cd98f00", []);
    ("chase-lev", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 3520; 0; 0; 46 |], "d41d8cd98f00", []);
    ("chase-lev", 1, (2, 1, 1, 1), Memo, [| 31; 0; 0; 14; 415; 0; 46 |], "d41d8cd98f00", []);
    ("chase-lev", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 3362; 0; 0; 46 |], "d41d8cd98f00", []);
    ("chase-lev", 2, (2, 1, 1, 1), Memo, [| 31; 0; 0; 16; 523; 0; 46 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 4439; 0; 0; 52 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 1, (2, 1, 1, 1), Memo, [| 33; 0; 0; 24; 626; 0; 52 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 3055; 0; 0; 52 |], "d41d8cd98f00", []);
    ("chase-lev-dyn", 2, (2, 1, 1, 1), Memo, [| 33; 0; 0; 27; 767; 0; 52 |], "d41d8cd98f00", []);
    ("abp", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 3729; 0; 0; 37 |], "d41d8cd98f00", []);
    ("abp", 1, (2, 1, 1, 1), Memo, [| 29; 0; 0; 0; 328; 0; 37 |], "d41d8cd98f00", []);
    ("abp", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 2498; 0; 0; 37 |], "d41d8cd98f00", []);
    ("abp", 2, (2, 1, 1, 1), Memo, [| 29; 0; 0; 0; 403; 0; 37 |], "d41d8cd98f00", []);
    ("ff-the", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 1169; 0; 0; 48 |], "d41d8cd98f00", []);
    ("ff-the", 1, (2, 1, 1, 1), Memo, [| 140; 0; 0; 137; 2610; 0; 52 |], "d41d8cd98f00", []);
    ("ff-the", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 546; 0; 0; 48 |], "d41d8cd98f00", []);
    ("ff-the", 2, (2, 1, 1, 1), Memo, [| 140; 0; 0; 236; 4896; 0; 52 |], "d41d8cd98f00", []);
    ("ff-cl", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 1748; 0; 0; 37 |], "d41d8cd98f00", []);
    ("ff-cl", 1, (2, 1, 1, 1), Memo, [| 28; 0; 0; 0; 435; 0; 42 |], "d41d8cd98f00", []);
    ("ff-cl", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 1243; 0; 0; 37 |], "d41d8cd98f00", []);
    ("ff-cl", 2, (2, 1, 1, 1), Memo, [| 26; 0; 0; 0; 818; 0; 42 |], "d41d8cd98f00", []);
    ("thep", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 1020; 0; 0; 58 |], "d41d8cd98f00", []);
    ("thep", 1, (2, 1, 1, 1), Memo, [| 1484; 119; 0; 404; 8709; 0; 400 |], "d41d8cd98f00", []);
    ("thep", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 203; 0; 0; 58 |], "d41d8cd98f00", []);
    ("thep", 2, (2, 1, 1, 1), Memo, [| 1505; 138; 0; 524; 21660; 0; 400 |], "d41d8cd98f00", []);
    ("thep-sep", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 1294; 0; 0; 65 |], "d41d8cd98f00", []);
    ("thep-sep", 1, (2, 1, 1, 1), Memo, [| 4948; 420; 0; 1589; 33731; 0; 400 |], "d41d8cd98f00", []);
    ("thep-sep", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 187; 0; 0; 65 |], "d41d8cd98f00", []);
    ("thep-sep", 2, (2, 1, 1, 1), Memo, [| 5104; 566; 0; 2013; 83229; 0; 400 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 1468; 0; 0; 29 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 1, (2, 1, 1, 1), Memo, [| 17; 0; 0; 0; 338; 0; 29 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 1349; 0; 0; 29 |], "d41d8cd98f00", []);
    ("idempotent-lifo", 2, (2, 1, 1, 1), Memo, [| 16; 0; 0; 0; 637; 0; 29 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 1, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 1468; 0; 0; 29 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 1, (2, 1, 1, 1), Memo, [| 17; 0; 0; 0; 338; 0; 29 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 2, (2, 1, 1, 1), Stateless, [| 4000; 0; 0; 1349; 0; 0; 29 |], "d41d8cd98f00", []);
    ("idempotent-fifo", 2, (2, 1, 1, 1), Memo, [| 16; 0; 0; 0; 637; 0; 29 |], "d41d8cd98f00", []);
  ]

let golden_configs = [ (1, 1, 1, 0); (2, 1, 1, 1); (3, 1, 2, 0); (2, 2, 1, 0) ]

let failures_digest fs =
  let line (choices, msg) =
    String.concat "," (List.map string_of_int choices) ^ ":" ^ msg
  in
  String.sub
    (Digest.to_hex (Digest.string (String.concat "|" (List.map line fs))))
    0 12

exception Build_budget of int

(* Check [table] covers every registry queue at sb 1 and 2 on [configs],
   stateless and memoised, then rerun every row with [dpor] and fail
   listing each row whose counts or failures moved. *)
let check_golden ~dpor ~label table configs =
  let keys =
    List.concat_map
      (fun q ->
        List.concat_map
          (fun sb ->
            List.concat_map
              (fun cfg -> [ (q, sb, cfg, Stateless); (q, sb, cfg, Memo) ])
              configs)
          [ 1; 2 ])
      Ws_core.Registry.names
  in
  checkb
    (Printf.sprintf "the %s table covers every registry queue, sb and config"
       label)
    true
    (List.map (fun (q, sb, cfg, mode, _, _, _) -> (q, sb, cfg, mode)) table
    = keys);
  let differ = ref [] in
  let check_row
      (queue, sb, (tasks, steals, delta, cs), mode, counts, digest, msgs) =
    let spec =
      {
        Ws_harness.Scenarios.default_spec with
        queue;
        sb_capacity = sb;
        delta;
        preloaded = tasks;
        steal_attempts = steals;
        client_stores = cs;
      }
    in
    let mk = Ws_harness.Scenarios.instance spec in
    let row () =
      Printf.sprintf "%s(%S, %d, (%d, %d, %d, %d), %s"
        (if dpor then "" else "unreduced ")
        queue sb tasks steals delta cs
        (match mode with Stateless -> "Stateless" | Memo -> "Memo")
    in
    (* The slowest row takes about three seconds, so a row still
       searching after 20 s has broken; the group stops there rather than
       wait out every later row. Broken DPOR bookkeeping can also loop
       inside a single step (a read chain linked back to itself), building
       nothing, where no build budget reaches; the time bound stops it at
       the loop's next poll point. *)
    match
      Time_bound.within ~seconds:20.0 (fun () ->
          match mode with
          | Stateless ->
              Explore.search ~max_runs:4000 ~preemption_bound:(Some 2) ~dpor
                ~mk ()
          | Memo ->
              (* A memoised row runs to completion, so broken DPOR
                 bookkeeping could keep it searching for hours. Its
                 recorded search built at most runs + memo hits + sleep
                 skips instances; past twice that, the row fails. *)
              let budget = 2 * (counts.(0) + counts.(4) + counts.(5)) in
              let builds = ref 0 in
              let mk () =
                incr builds;
                if !builds > budget then raise (Build_budget budget);
                mk ()
              in
              Explore.search ~preemption_bound:(Some 3) ~memo:true ~dpor
                ~mk ())
    with
    | exception Build_budget budget ->
        differ :=
          Printf.sprintf "%s, spent its budget of %d instance builds)"
            (row ()) budget
          :: !differ
    | exception Time_bound.Timeout ->
        Alcotest.failf "%s) is still searching after 20 s" (row ())
    | st ->
        let got =
          [|
            st.Explore.runs;
            st.truncated;
            st.deadlocks;
            st.pruned;
            st.memo_hits;
            st.sleep_skips;
            st.peak_depth;
          |]
        in
        let fs = Explore.failures_in_replay_order st in
        if
          got <> counts
          || failures_digest fs <> digest
          || List.map snd fs <> msgs
        then
          differ :=
            Printf.sprintf "%s, [| %s |], %S, %d failures)" (row ())
              (String.concat "; "
                 (Array.to_list (Array.map string_of_int got)))
              (failures_digest fs) (List.length fs)
            :: !differ
  in
  List.iter check_row table;
  match List.rev !differ with
  | [] -> ()
  | rows ->
      Alcotest.failf "%d of %d rows differ from the recording; now:\n%s"
        (List.length rows) (List.length table) (String.concat "\n" rows)

let test_dpor_golden () =
  check_golden ~dpor:true ~label:"DPOR" dpor_golden golden_configs

let test_unreduced_golden () =
  check_golden ~dpor:false ~label:"unreduced" unreduced_golden
    [ (2, 1, 1, 1) ]

(* --- allocation-free hot path ------------------------------------------- *)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let check_words label expected f =
  f ();
  Alcotest.(check (float 0.)) label expected (minor_words f)

let test_hot_path_allocates_nothing () =
  (* A recording ff-the instance on TSO[2], stopped with one store
     buffered, so that a drain is enabled. *)
  let spec = Ws_harness.Scenarios.default_spec in
  let mk = Explore.Internal.recording_mk (Ws_harness.Scenarios.instance spec) in
  let m = (mk ()).Explore.machine in
  let one_buffered () =
    List.exists
      (fun tid -> Machine.buffered_stores m tid = 1)
      (List.init (Machine.thread_count m) Fun.id)
  in
  let rec advance budget =
    if budget = 0 then Alcotest.fail "no store was ever buffered"
    else if not (one_buffered ()) then begin
      Machine.apply m (List.hd (Explore.next_choices m));
      advance (budget - 1)
    end
  in
  advance 200;
  let trs = Machine.enabled m in
  checkb "a drain is enabled" true
    (List.exists (function Machine.Drain _ -> true | _ -> false) trs);
  check_words "the harness itself" 0. (fun () -> ());
  let snap = Machine.snapshot_create () in
  check_words "Machine.snapshot into sized scratch" 0. (fun () ->
      Machine.snapshot m snap);
  check_words "Machine.fingerprint" 0. (fun () ->
      ignore (Sys.opaque_identity (Machine.fingerprint m)));
  let footprint tr = ignore (Sys.opaque_identity (Machine.footprint m tr)) in
  check_words "Machine.footprint of every enabled transition" 0. (fun () ->
      List.iter footprint trs);
  Machine.release m;
  (* The DPOR bookkeeping on a synthetic stream: 3 threads, 12 addresses,
     a spine 60 events deep with a 3-choice node every fourth event, then
     unwound; once its arrays have grown, a pass allocates nothing. *)
  let ds = Explore.Internal.dpor_create ~nthreads:3 in
  let node = [| 0; 1; 2 |] and forced = [||] in
  let pass () =
    for d = 0 to 59 do
      let p = d mod 3 and a = (d * 7) mod 12 in
      if d mod 4 = 0 then begin
        Explore.Internal.dpor_open ds d node;
        Explore.Internal.dpor_explore ds d p
      end
      else Explore.Internal.dpor_open ds d forced;
      match d mod 3 with
      | 0 -> Explore.Internal.dpor_push ds d ~tid:p ~read:a ~write:(-1)
      | 1 -> Explore.Internal.dpor_push ds d ~tid:p ~read:(-1) ~write:a
      | _ -> Explore.Internal.dpor_push ds d ~tid:p ~read:a ~write:a
    done;
    for d = 59 downto 0 do
      Explore.Internal.dpor_pop ds d
    done
  in
  check_words "DPOR push/pop over 60 events" 0. pass

let test_memo_hit_allocates_nothing () =
  (* A warmed in-memory table whose 1,000 states each keep a two-entry
     frontier: the second entry covers every lookup. *)
  let store = Memo_store.create () in
  let key i = i * 0x2545F4914F6CDD1D in
  for i = 0 to 999 do
    ignore (Memo_store.seen store (key i) ~depth_rem:10 ~preempt_rem:1);
    ignore (Memo_store.seen store (key i) ~depth_rem:5 ~preempt_rem:3)
  done;
  check_words "Memo_store.seen over 10,000 hits" 0. (fun () ->
      for i = 0 to 9_999 do
        let fp = key (i mod 1000) in
        if not (Memo_store.seen store fp ~depth_rem:5 ~preempt_rem:2) then
          Alcotest.fail "a warmed state missed"
      done)

let test_memo_miss_allocates_nothing () =
  (* 25,000 states grow the table to 65,536 slots, which hold 49,152
     before the next growth: the warm-up pass and the measured one of
     [check_words] each add 10,000 novel states, and both fit *)
  let store = Memo_store.create () in
  let key i = i * 0x2545F4914F6CDD1D in
  for i = 0 to 24_999 do
    ignore (Memo_store.seen store (key i) ~depth_rem:10 ~preempt_rem:1)
  done;
  let next = ref 25_000 in
  check_words "Memo_store.seen over 10,000 misses" 0. (fun () ->
      for i = !next to !next + 9_999 do
        if Memo_store.seen store (key i) ~depth_rem:10 ~preempt_rem:1 then
          Alcotest.fail "a novel state hit"
      done;
      next := !next + 10_000);
  (* misses that take a covered entry's slot: the first pass also drops
     each state's second entry, the second replaces the first pass's *)
  for i = 0 to 999 do
    ignore (Memo_store.seen store (key i) ~depth_rem:5 ~preempt_rem:3)
  done;
  let depth = ref 11 in
  check_words "Memo_store.seen over 1,000 misses that replace entries" 0.
    (fun () ->
      incr depth;
      for i = 0 to 999 do
        if Memo_store.seen store (key i) ~depth_rem:!depth ~preempt_rem:4 then
          Alcotest.fail "a larger budget hit"
      done)

(* --- pinned fingerprint values ------------------------------------------ *)

(* Every pinned count of the explorer (memo hits, runs, sleep skips) was
   recorded with the values {!Machine.fingerprint} computes, so a set of
   them is pinned here: a change to the hash shows here first. *)

(* perfbench's fingerprint probe: a single-worker THEP machine stopped 200
   round-robin steps into its run. *)
let probe_machine () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:8) in
  let params =
    { Ws_core.Queue_intf.capacity = 128; delta = 4; worker_fence = false; tag = "q" }
  in
  let q = Ws_core.Registry.create (Ws_core.Registry.find "thep") m params in
  let scratch = Memory.alloc (Machine.memory m) ~name:"scratch" ~init:0 in
  ignore
    (Machine.spawn m ~name:"w" (fun () ->
         for i = 1 to 64 do
           Ws_core.Queue_intf.put q i
         done;
         let rec drain () =
           match Ws_core.Queue_intf.take q with
           | `Task t ->
               Program.store scratch t;
               drain ()
           | `Empty -> ()
         in
         drain ()));
  (match Sched.run ~max_steps:200 m (Sched.round_robin ()) with
  | Sched.Max_steps -> ()
  | _ -> Alcotest.fail "the probe machine quiesced before 200 steps");
  m

(* The fingerprint of every state along one schedule: the last choice at
   every node, which runs the highest thread ahead and leaves stores
   buffered. *)
let last_choice_fingerprints m =
  let rec go acc =
    match Explore.next_choices m with
    | [] -> List.rev acc
    | cs ->
        Machine.apply m (List.nth cs (List.length cs - 1));
        go (Machine.fingerprint m :: acc)
  in
  go [ Machine.fingerprint m ]

(* Stores staged in and flushed from the egress slot B. *)
let realistic_machine () =
  let m = Machine.create (Machine.realistic_config ~sb_capacity:2 ~coalesce:true) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let y = Memory.alloc mem ~name:"y" ~init:0 in
  ignore
    (Machine.spawn m ~name:"t0" (fun () ->
         Program.store x 1;
         Program.store x 2;
         Program.store y 3;
         ignore (Program.load y)));
  ignore
    (Machine.spawn m ~name:"t1" (fun () ->
         Program.store y 1;
         ignore (Program.load x)));
  m

let pinned_fingerprints =
  [
    ( "SB",
      [
        0x22c06e8e68374927; 0x40b0a0ab79e0e43c; 0x4a43d8957dfec2ed;
        0x2c46635cc795b609; 0x126940a7dfa5dbd6; 0x4d13d76a60ce30b1;
        0x7dcbf34201d0e21a;
      ] );
    ( "SB+fences",
      [
        0x22c06e8e68374927; 0x40b0a0ab79e0e43c; 0x4522c1542f39ee0c;
        0x2cb03f6e6ea3f27f; 0x16a2299bc418a2a6; 0x1940a0c55a1f19d9;
        0x670a26288c82216e; 0x3a5e0e333e45b077; 0x7496f6a5801386a8;
      ] );
    ( "SB+rmw",
      [
        0x5e647c94164ec27d; 0x700b79f9b963ba9e; 0x111c2fda19e900ca;
        0x74f801b0ec305949; 0x57b79da746b9190c; 0x1982162bdc0dc737;
        0x3a9440efa7a12b48; 0x769ee7e58229077e; 0x2c491e2591f48dcd;
      ] );
    ( "MP",
      [
        0x22c06e8e68374927; 0x628fd80325cdbef; 0x65c3b240ebdfa01e;
        0x8774929f997ff35; 0x7fd39e295a69546a; 0x455810d37c14bbc3;
        0x230cf3d33e1edb61;
      ] );
    ( "LB",
      [
        0x22c06e8e68374927; 0x628fd80325cdbef; 0x7ea23e0f60d44a02;
        0x735463c6b424209; 0x7d59f34121c26c0d; 0x285c2c0583298ff0;
        0x772ff8a70d1d932;
      ] );
    ( "n6",
      [
        0x22c06e8e68374927; 0x6bdb2407175a7a36; 0x5b295f19008c7c73;
        0x733bfb7b8680a5d1; 0x76a2070f4a3e22f4; 0x233a007e95bac60b;
        0x4a58321a16bd0363; 0x1512afaf780a069d; 0x2c3a0702fba3ac40;
      ] );
    ( "n5",
      [
        0x18a51f74632d6a66; 0x59562c10a08a6aed; 0x40bec19a9976483e;
        0x72d3270ab1648923; 0xc9afa6862d71a90; 0x54b9b7b9f0022da8;
        0x4d964aeaf948ec33;
      ] );
    ( "IRIW",
      [
        0x6552e93e6043a541; 0x8aef221319482a9; 0x14d946810aff858c;
        0x1576a3f6098ebe3f; 0x12dee0447d5909ef; 0x67e520c3f67e8444;
        0x11a9e52bf57f2f14; 0x75655c969337282f; 0x691c490376ed191c;
      ] );
    ( "store-forwarding",
      [
        0x462493d854aabea1; 0x5820e24642950740; 0x1c342e04ce1b991;
        0x209b30012367e3fa; 0x648a0b3394d8ef6f; 0x17f162d42dfa2d07;
      ] );
    ( "rmw-atomic",
      [
        0x18a51f74632d6a66; 0x42cdfe502bbf1937; 0x2962f74cca3e65ef;
        0x6ab04b84102beb63; 0x5d25be2bf4a5ae7b;
      ] );
    ( "realistic",
      [
        0x22c06e8e68374927; 0x40b0a0ab79e0e43c; 0x4a43d8957dfec2ed;
        0x3894d61ad784c6a2; 0x2c46635cc795b609; 0x126940a7dfa5dbd6;
        0x207da685b02f1ad1; 0x7b4f6d4cc2717be8; 0x5a1aa18a6d0ca83b;
        0x23f51498f1398df6; 0x60bf9f59ac409000; 0x152eaa4119d08c32;
        0x34b8bfa426c80cd3; 0x7feaa2a21813b223;
      ] );
  ]

let test_fingerprints_pinned () =
  let probe = probe_machine () in
  Alcotest.(check int)
    "perfbench's probe machine at 200 steps" 0xd373713db97d21b
    (Machine.fingerprint probe);
  Machine.release probe;
  List.iter
    (fun (name, expected) ->
      let m =
        if name = "realistic" then realistic_machine ()
        else ((Ws_litmus.Classic.find name).mk ()).Explore.machine
      in
      let fps = last_choice_fingerprints m in
      Alcotest.(check (list int))
        (name ^ ": every state of the last-choice schedule")
        expected fps;
      (* every transition moves a thread's history or the memory or a
         buffer, so no two states of one run share a key *)
      Alcotest.(check int)
        (name ^ ": no state repeats along the schedule")
        (List.length fps)
        (List.length (List.sort_uniq compare fps)))
    pinned_fingerprints

(* --- source-DPOR bookkeeping against its record-based reference --------- *)

(* The record-and-Hashtbl DPOR state that the flat arrays of
   [Explore.Internal] replaced, verbatim, as the oracle of
   [dpor_differential_prop]. It reads footprints only through the three
   accessors, so a record stands in for [Machine.footprint] here. *)
module Reference_dpor = struct
  module Machine = struct
    type footprint = { tid : int; read : int; write : int }

    let footprint_tid f = f.tid
    let footprint_read f = f.read
    let footprint_write f = f.write
  end

  type dpor_node = {
    nd_units : int array;  (** footprint thread of each choice index *)
    nd_backtrack : bool array;
    nd_done : bool array;
    mutable nd_all : bool;
        (** degraded to full enumeration (bound prune / memo hit below, or no
            backtrack-set member was available for a demanded reversal) *)
  }

  (* Per-address access summary: the last write (its event index and clock)
     and the reads since it (their indices and joined clock). Records are
     immutable so backtracking restores by keeping the old record. *)
  type dpor_addr = {
    a_widx : int;
    a_wclock : int array;
    a_reads : int list;
    a_rclock : int array;
  }

  type dpor_undo = {
    u_proc : int;
    u_pclock : int array;
    u_read : (int * dpor_addr) option;
    u_write : (int * dpor_addr) option;
  }

  type dpor = {
    d_bottom : int array;  (** all -1; shared and never mutated *)
    d_pclock : int array array;  (** clock of each thread's last event *)
    d_addrs : (int, dpor_addr) Hashtbl.t;
    mutable d_units : int array;  (** executing thread of the event at depth *)
    mutable d_nodes : dpor_node option array;  (** branch node at depth *)
    mutable d_undo : dpor_undo option array;
  }

  let dpor_create ~nthreads =
    let n = max nthreads 1 in
    let bottom = Array.make n (-1) in
    {
      d_bottom = bottom;
      d_pclock = Array.make n bottom;
      d_addrs = Hashtbl.create 64;
      d_units = [||];
      d_nodes = [||];
      d_undo = [||];
    }

  let dpor_depth_room ds depth =
    let n = Array.length ds.d_units in
    if depth >= n then begin
      let m = max (depth + 1) (max 16 (2 * n)) in
      let units = Array.make m (-1) in
      Array.blit ds.d_units 0 units 0 n;
      ds.d_units <- units;
      let nodes = Array.make m None in
      Array.blit ds.d_nodes 0 nodes 0 n;
      ds.d_nodes <- nodes;
      let undo = Array.make m None in
      Array.blit ds.d_undo 0 undo 0 n;
      ds.d_undo <- undo
    end

  let dpor_addr ds a =
    match Hashtbl.find_opt ds.d_addrs a with
    | Some e -> e
    | None ->
        { a_widx = -1; a_wclock = ds.d_bottom; a_reads = []; a_rclock = ds.d_bottom }

  let[@inline] dpor_join dst src =
    for i = 0 to Array.length dst - 1 do
      if src.(i) > dst.(i) then dst.(i) <- src.(i)
    done

  (* Request the reversal of a race between the event at branch node [i] and
     the event thread [p] is about to execute ([pc] = p's clock BEFORE it).
     E is the set of threads with a choice at [i] that either are [p] or ran
     an event after [i] that happens-before p's event (any of them reaches
     the race from node [i]); if a member of E is already scheduled there,
     nothing is needed; else one member's choices are planted (all of its
     indices — internal nondeterminism); else nothing in the node's choice
     universe can reach the race and the node degrades to full enumeration. *)
  let dpor_plant ds i ~p ~pc =
    match ds.d_nodes.(i) with
    | None -> () (* singleton node: its only choice already runs *)
    | Some node ->
        if not node.nd_all then begin
          let n = Array.length node.nd_units in
          let in_e q = q = p || pc.(q) > i in
          let covered = ref false in
          for j = 0 to n - 1 do
            if
              (node.nd_backtrack.(j) || node.nd_done.(j))
              && in_e node.nd_units.(j)
            then covered := true
          done;
          if not !covered then begin
            let chosen = ref (-1) in
            for j = n - 1 downto 0 do
              let q = node.nd_units.(j) in
              if q = p || (!chosen < 0 && in_e q) then chosen := q
            done;
            if !chosen >= 0 then begin
              let c = !chosen in
              Array.iteri
                (fun j q -> if q = c then node.nd_backtrack.(j) <- true)
                node.nd_units
            end
            else node.nd_all <- true
          end
        end

  (* Record the event at [depth] with footprint [fp]: detect races against
     the per-address indices (planting reversals), advance the executing
     thread's clock, and update the address records — remembering enough to
     undo on backtrack. Must run on the pre-state footprint, before
     [Machine.apply]. *)
  let dpor_push ds depth fp =
    dpor_depth_room ds depth;
    let p = Machine.footprint_tid fp in
    let r = Machine.footprint_read fp and w = Machine.footprint_write fp in
    let pc = ds.d_pclock.(p) in
    let plant i =
      if i >= 0 && ds.d_units.(i) <> p && pc.(ds.d_units.(i)) < i then
        dpor_plant ds i ~p ~pc
    in
    let er = if r >= 0 then Some (dpor_addr ds r) else None in
    let ew = if w >= 0 then Some (dpor_addr ds w) else None in
    (match er with Some e -> plant e.a_widx | None -> ());
    (match ew with
    | Some e ->
        if w <> r then plant e.a_widx;
        List.iter plant e.a_reads
    | None -> ());
    let c = Array.copy pc in
    c.(p) <- depth;
    (match er with Some e -> dpor_join c e.a_wclock | None -> ());
    (match ew with
    | Some e ->
        dpor_join c e.a_wclock;
        dpor_join c e.a_rclock
    | None -> ());
    let u_read =
      match er with
      | Some e when r <> w ->
          let rc = Array.copy e.a_rclock in
          dpor_join rc c;
          Hashtbl.replace ds.d_addrs r
            { e with a_reads = depth :: e.a_reads; a_rclock = rc };
          Some (r, e)
      | _ -> None
    in
    let u_write =
      match ew with
      | Some e ->
          Hashtbl.replace ds.d_addrs w
            { a_widx = depth; a_wclock = c; a_reads = []; a_rclock = ds.d_bottom };
          Some (w, e)
      | None -> None
    in
    ds.d_undo.(depth) <- Some { u_proc = p; u_pclock = pc; u_read; u_write };
    ds.d_units.(depth) <- p;
    ds.d_pclock.(p) <- c

  let dpor_pop ds depth =
    match ds.d_undo.(depth) with
    | None -> ()
    | Some u ->
        ds.d_undo.(depth) <- None;
        ds.d_pclock.(u.u_proc) <- u.u_pclock;
        (match u.u_read with
        | Some (a, e) -> Hashtbl.replace ds.d_addrs a e
        | None -> ());
        (match u.u_write with
        | Some (a, e) -> Hashtbl.replace ds.d_addrs a e
        | None -> ())
end

(* One step of a random walk along a DFS spine. Each operation acts at the
   top depth (the number of events pushed); one that does not apply there
   is skipped. *)
type dpor_op =
  | D_open of int array  (** open a branch node: the thread of each choice *)
  | D_forced  (** a forced step: no node at this depth *)
  | D_explore of int  (** mark a choice of the open node explored *)
  | D_push of int * int * int  (** an event: thread, read, write *)
  | D_pop  (** close the node above the spine and undo the newest event *)

let print_dpor_case (nt, ops) =
  let op = function
    | D_open us ->
        Printf.sprintf "open [%s]"
          (String.concat "," (Array.to_list (Array.map string_of_int us)))
    | D_forced -> "forced"
    | D_explore j -> Printf.sprintf "explore %d" j
    | D_push (p, r, w) -> Printf.sprintf "push t%d r%d w%d" p r w
    | D_pop -> "pop"
  in
  Printf.sprintf "threads=%d\n%s" nt (String.concat "\n" (List.map op ops))

let dpor_case_gen =
  let open QCheck.Gen in
  let* nt = int_range 1 4 and* na = int_range 1 4 in
  let thread = int_bound (nt - 1) and addr = int_range (-1) (na - 1) in
  let op =
    frequency
      [
        (2, map (fun us -> D_open us) (array_size (int_range 1 5) thread));
        (1, return D_forced);
        (2, map (fun j -> D_explore j) (int_bound 4));
        (6, map3 (fun p r w -> D_push (p, r, w)) thread addr addr);
        (3, return D_pop);
      ]
  in
  let+ ops = list_size (int_range 0 120) op in
  (nt, ops)

(* Drive both versions through the same walk and compare every open node's
   backtrack bits and [nd_all] after every operation. *)
let dpor_matches_reference (nt, ops) =
  let module R = Reference_dpor in
  let module F = Explore.Internal in
  let r = R.dpor_create ~nthreads:nt and f = F.dpor_create ~nthreads:nt in
  let width = List.length ops + 1 in
  let open_n = Array.make width 0 in
  let top = ref 0 in
  let set_node d units =
    R.dpor_depth_room r d;
    let n = Array.length units in
    r.R.d_nodes.(d) <-
      (if n = 0 then None
       else
         Some
           {
             R.nd_units = Array.copy units;
             nd_backtrack = Array.make n false;
             nd_done = Array.make n false;
             nd_all = false;
           });
    F.dpor_open f d units;
    open_n.(d) <- n
  in
  let agree () =
    let ok = ref true in
    for d = 0 to !top do
      let node =
        if d < Array.length r.R.d_nodes then r.R.d_nodes.(d) else None
      in
      match node with
      | None -> if open_n.(d) > 0 then ok := false
      | Some nd ->
          if open_n.(d) = 0 || nd.R.nd_all <> F.dpor_all f d then ok := false
          else
            for j = 0 to open_n.(d) - 1 do
              if nd.R.nd_backtrack.(j) <> F.dpor_backtrack f d j then
                ok := false
            done
    done;
    !ok
  in
  List.for_all
    (fun op ->
      let d = !top in
      (match op with
      | D_open units -> if open_n.(d) = 0 then set_node d units
      | D_forced -> set_node d [||]
      | D_explore j -> (
          if open_n.(d) > 0 then
            match r.R.d_nodes.(d) with
            | Some nd ->
                let j = j mod open_n.(d) in
                nd.R.nd_done.(j) <- true;
                F.dpor_explore f d j
            | None -> ())
      | D_push (p, rd, wr) ->
          R.dpor_push r d { R.Machine.tid = p; read = rd; write = wr };
          F.dpor_push f d ~tid:p ~read:rd ~write:wr;
          top := d + 1
      | D_pop ->
          if d > 0 then begin
            set_node d [||];
            R.dpor_pop r (d - 1);
            F.dpor_pop f (d - 1);
            top := d - 1
          end);
      agree ())
    ops

let dpor_differential_prop =
  QCheck.Test.make ~name:"flat DPOR state = record-based reference" ~count:500
    (QCheck.make ~print:print_dpor_case dpor_case_gen)
    dpor_matches_reference

(* --- lazily restored machines against replay from the root ------------- *)

type sop =
  | S_load of int  (** a load, and a label when the value read is odd *)
  | S_store of int * int
  | S_cas of int * int * int
  | S_faa of int * int
  | S_fence
  | S_pause

type restore_case = {
  rc_realistic : bool;  (** B with coalescing, else the abstract buffer *)
  rc_sb : int;
  rc_threads : sop list list;
  rc_schedule : int list;  (** each picks an enabled transition, mod their count *)
  rc_cuts : int list;
      (** the steps before which the machine under test is snapshotted,
          released, and replaced by a fresh instance restored from it *)
}

(* One instance of the case's program over three cells. Each thread logs
   every response it gets in a host cell of its own. *)
let restore_case_mk c () =
  let cfg =
    if c.rc_realistic then
      Machine.realistic_config ~sb_capacity:c.rc_sb ~coalesce:true
    else Machine.abstract_config ~sb_capacity:c.rc_sb
  in
  let m = Machine.create cfg in
  Machine.set_record_responses m true;
  let mem = Machine.memory m in
  let cells =
    Array.init 3 (fun i -> Memory.alloc mem ~name:(Printf.sprintf "a%d" i) ~init:0)
  in
  let logs = Array.make (List.length c.rc_threads) [] in
  let exec i op =
    let v =
      match op with
      | S_load a ->
          let v = Program.load cells.(a) in
          if v land 1 = 1 then Program.label "odd";
          v
      | S_store (a, v) ->
          Program.store cells.(a) v;
          0
      | S_cas (a, e, r) ->
          if Program.cas cells.(a) ~expect:e ~replace:r then 1 else 0
      | S_faa (a, d) -> Program.fetch_add cells.(a) d
      | S_fence ->
          Program.fence ();
          0
      | S_pause ->
          Program.spin_pause ();
          0
    in
    logs.(i) <- v :: logs.(i)
  in
  List.iteri
    (fun i ops ->
      ignore
        (Machine.spawn m ~name:(Printf.sprintf "t%d" i) (fun () ->
             List.iter (exec i) ops)))
    c.rc_threads;
  (m, logs)

let restore_case_gen =
  let open QCheck.Gen in
  let addr = int_bound 2 and value = int_range 0 3 in
  let op =
    frequency
      [
        (4, map (fun a -> S_load a) addr);
        (4, map2 (fun a v -> S_store (a, v)) addr value);
        (2, map3 (fun a e r -> S_cas (a, e, r)) addr value value);
        (2, map2 (fun a d -> S_faa (a, d)) addr (int_range 1 2));
        (1, return S_fence);
        (1, return S_pause);
      ]
  in
  let* rc_realistic = bool
  and* rc_sb = int_range 1 3
  and* rc_threads = list_size (int_range 1 3) (list_size (int_range 0 6) op)
  and* rc_schedule = list_size (int_range 0 40) (int_bound 7) in
  let+ cuts = list_size (int_range 1 2) (int_bound (List.length rc_schedule)) in
  {
    rc_realistic;
    rc_sb;
    rc_threads;
    rc_schedule;
    rc_cuts = List.sort_uniq compare cuts;
  }

let print_restore_case c =
  let op = function
    | S_load a -> Printf.sprintf "load a%d" a
    | S_store (a, v) -> Printf.sprintf "store a%d %d" a v
    | S_cas (a, e, r) -> Printf.sprintf "cas a%d %d %d" a e r
    | S_faa (a, d) -> Printf.sprintf "faa a%d %d" a d
    | S_fence -> "fence"
    | S_pause -> "pause"
  in
  let ints l = String.concat " " (List.map string_of_int l) in
  Printf.sprintf "%s sb=%d\n%s\nschedule: %s\ncuts: %s"
    (if c.rc_realistic then "realistic" else "abstract")
    c.rc_sb
    (String.concat "\n"
       (List.mapi
          (fun i ops ->
            Printf.sprintf "t%d: %s" i (String.concat "; " (List.map op ops)))
          c.rc_threads))
    (ints c.rc_schedule) (ints c.rc_cuts)

(* What every reader of the machine sees, for comparison. *)
let machine_view m =
  let trs = Machine.enabled m in
  let threads =
    List.init (Machine.thread_count m) (fun t ->
        ( Machine.thread_done m t,
          Machine.pending_request m t,
          Machine.pending_class m t,
          Machine.pending_load m t,
          Machine.store_blocked m t ))
  in
  ( Machine.fingerprint m,
    trs,
    List.map (fun tr -> (Machine.footprint m tr :> int)) trs,
    Machine.quiescent m,
    threads )

(* Drive a reference machine from the root and the machine under test
   through the same schedule; at each cut the machine under test is
   snapshotted, released and replaced by a restored fresh instance, whose
   threads then lag until they step. Both must look the same at every
   step, and once the machine under test has caught up, its threads' host
   logs must equal the reference's. *)
let lazy_restore_matches_replay c =
  let mk = restore_case_mk c in
  let r, r_logs = mk () in
  let m = ref (mk ()) in
  let built = ref [ r; fst !m ] in
  let snap = Machine.snapshot_create () in
  Fun.protect
    ~finally:(fun () -> List.iter Machine.release !built)
    (fun () ->
      let agree step =
        if machine_view (fst !m) <> machine_view r then
          QCheck.Test.fail_reportf "the machines differ before step %d" step
      in
      List.iteri
        (fun step pick ->
          if List.mem step c.rc_cuts then begin
            let old = fst !m in
            Machine.snapshot old snap;
            Machine.release old;
            let fresh = mk () in
            built := fst fresh :: !built;
            Machine.restore_into snap (fst fresh);
            m := fresh
          end;
          agree step;
          match Machine.enabled r with
          | [] -> ()
          | trs ->
              let tr = List.nth trs (pick mod List.length trs) in
              Machine.apply r tr;
              Machine.apply (fst !m) tr)
        c.rc_schedule;
      agree (List.length c.rc_schedule);
      Machine.catch_up (fst !m);
      agree (List.length c.rc_schedule);
      snd !m = r_logs)

(* At every state of a random schedule, the probe's key for each enabled
   transition ({!Machine.restore_data}, then {!Machine.apply_data}) must
   be the fingerprint of a real instance restored from the same snapshot
   after {!Machine.apply}. One probe serves every key, as in a search. *)
let probe_keys_match_apply c =
  let mk () = fst (restore_case_mk c ()) in
  let r = mk () and probe = mk () in
  let snap = Machine.snapshot_create () in
  let keys_agree step =
    Machine.snapshot r snap;
    List.iter
      (fun tr ->
        Machine.restore_data snap probe;
        Machine.apply_data probe tr;
        let real = mk () in
        let fp =
          Fun.protect
            ~finally:(fun () -> Machine.release real)
            (fun () ->
              Machine.restore_into snap real;
              Machine.apply real tr;
              Machine.fingerprint real)
        in
        if Machine.fingerprint probe <> fp then
          QCheck.Test.fail_reportf "before step %d: the probe's key for %s differs"
            step
            (match tr with
            | Machine.Step t -> Printf.sprintf "a step of t%d" t
            | Machine.Drain t -> Printf.sprintf "a drain of t%d" t
            | Machine.Flush t -> Printf.sprintf "a flush of t%d" t))
      (Machine.enabled r)
  in
  Fun.protect
    ~finally:(fun () ->
      Machine.release r;
      Machine.release probe)
    (fun () ->
      List.iteri
        (fun step pick ->
          keys_agree step;
          match Machine.enabled r with
          | [] -> ()
          | trs -> Machine.apply r (List.nth trs (pick mod List.length trs)))
        c.rc_schedule;
      keys_agree (List.length c.rc_schedule);
      true)

let probe_key_prop =
  QCheck.Test.make ~name:"the probe's key = the fingerprint after apply"
    ~count:300
    (QCheck.make ~print:print_restore_case restore_case_gen)
    probe_keys_match_apply

let lazy_restore_prop =
  QCheck.Test.make ~name:"a lazily restored machine = replay from the root"
    ~count:400
    (QCheck.make ~print:print_restore_case restore_case_gen)
    lazy_restore_matches_replay

let () =
  Alcotest.run "explore"
    [
      ( "parallel",
        [
          Alcotest.test_case "classic suite byte-identical" `Quick
            test_parallel_byte_identical;
          Alcotest.test_case "delta grid on two domains" `Quick
            test_parallel_delta_grid;
        ] );
      ( "memo",
        [
          Alcotest.test_case "classic suite verdicts unchanged" `Quick
            test_memo_same_verdicts;
          Alcotest.test_case "memo + parallel verdicts unchanged" `Quick
            test_memo_parallel_verdicts;
          Alcotest.test_case "scenario proof under budget" `Quick
            test_scenario_memo_completes;
        ] );
      ( "dpor",
        [
          Alcotest.test_case "classic suite differential" `Quick
            test_dpor_classic_differential;
          Alcotest.test_case "parallel verdicts unchanged" `Quick
            test_dpor_parallel_verdicts;
          Alcotest.test_case "delta scenarios differential" `Quick
            test_dpor_delta_scenarios;
          Alcotest.test_case "a write joins every read since the last"
            `Quick test_dpor_joined_read_clock;
          Alcotest.test_case "capacity sweep differential" `Quick
            test_dpor_capacity_sweep;
        ] );
      ( "dpor-golden",
        [
          Alcotest.test_case "recorded counts per queue, sb and config" `Quick
            test_dpor_golden;
          Alcotest.test_case "unreduced rows per queue and sb" `Quick
            test_unreduced_golden;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "every built instance is released" `Quick
            test_instances_released;
        ] );
      ( "memo-store",
        [
          Alcotest.test_case "Pareto frontier of budgets" `Quick
            test_memo_store_frontier;
        ] );
      ( "memo-store-differential",
        [ QCheck_alcotest.to_alcotest memo_table_prop ] );
      ( "complete",
        [
          Alcotest.test_case "set iff the search finished" `Quick
            test_complete;
          Alcotest.test_case "a budget-cut search is never clean" `Quick
            test_cut_never_clean;
          Alcotest.test_case "a depth-cut search is never clean" `Quick
            test_truncated_never_clean;
          Alcotest.test_case "classic exhausted follows complete" `Quick
            test_classic_exhausted;
        ] );
      ( "failures",
        [
          Alcotest.test_case "replay order contract" `Quick
            test_failures_replay_order;
        ] );
      ( "replay",
        [
          Alcotest.test_case "replay_on reaches each recorded verdict" `Quick
            test_replay_on_agrees;
          Alcotest.test_case "before sees every fired transition" `Quick
            test_replay_on_before_hook;
          Alcotest.test_case "a schedule that does not fit raises" `Quick
            test_replay_on_rejects;
          Alcotest.test_case "the instance stays the caller's" `Quick
            test_replay_on_leaves_instance;
          Alcotest.test_case "next_choices is the reduced enabled set" `Quick
            test_next_choices_view;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "replay oracle" `Quick test_snapshot_replay_oracle;
          Alcotest.test_case "probe precheck equals the replay oracle" `Quick
            test_probe_precheck_oracle;
          Alcotest.test_case "unreduced replay oracle under a bound" `Quick
            test_snapshot_oracle_unreduced_bounded;
        ] );
      ( "snapshots-differential",
        [
          QCheck_alcotest.to_alcotest lazy_restore_prop;
          QCheck_alcotest.to_alcotest probe_key_prop;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "snapshot, fingerprint, footprint and DPOR"
            `Quick test_hot_path_allocates_nothing;
          Alcotest.test_case "memo hit" `Quick test_memo_hit_allocates_nothing;
          Alcotest.test_case "memo miss with room" `Quick
            test_memo_miss_allocates_nothing;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "probe and litmus-state values pinned" `Quick
            test_fingerprints_pinned;
        ] );
      ( "dpor-differential",
        [ QCheck_alcotest.to_alcotest dpor_differential_prop ] );
    ]
