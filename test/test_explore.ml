(* Regression tests for the memoized + multicore exploration layer:
   - parallel search must return byte-identical statistics and failure
     traces to the sequential search (classic x86-TSO litmus suite);
   - memoized search must report the same verdicts while exploring fewer
     runs;
   - memoized exploration turns queue scenarios that blow the run budget
     into full proofs. *)

open Tso

let checkb = Alcotest.check Alcotest.bool

let pp_stats ppf (s : Explore.stats) =
  Format.fprintf ppf
    "{runs=%d; truncated=%d; deadlocks=%d; pruned=%d; memo_hits=%d; \
     failures=[%a]}"
    s.Explore.runs s.truncated s.deadlocks s.pruned s.memo_hits
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf (tr, msg) ->
         Format.fprintf ppf "([%s], %s)"
           (String.concat ";" (List.map string_of_int tr))
           msg))
    s.failures

let stats = Alcotest.testable pp_stats ( = )
let max_runs = 400_000

let test_parallel_byte_identical () =
  List.iter
    (fun (t : Ws_litmus.Classic.t) ->
      let seq = Explore.search ~max_runs ~mk:t.mk () in
      let par = Explore_par.search ~max_runs ~jobs:4 ~mk:t.mk () in
      Alcotest.check stats (t.name ^ ": jobs=4 equals sequential") seq par)
    Ws_litmus.Classic.all

let test_parallel_more_jobs_than_work () =
  (* a single-thread test whose whole space fits inside the frontier
     expansion: domains must cope with an empty/short task queue *)
  let t = Ws_litmus.Classic.find "store-forwarding" in
  let seq = Explore.search ~max_runs ~mk:t.mk () in
  let par = Explore_par.search ~max_runs ~jobs:8 ~mk:t.mk () in
  Alcotest.check stats "jobs=8 on a 5-run space" seq par

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
  List.iter
    (fun (t : Ws_litmus.Classic.t) ->
      let seq = Ws_litmus.Classic.run ~memo:true t in
      let par = Ws_litmus.Classic.run ~memo:true ~jobs:4 t in
      checkb (t.name ^ ": memo+jobs verdict unchanged") seq.observed
        par.observed;
      checkb (t.name ^ ": memo+jobs ok unchanged") seq.ok par.ok)
    Ws_litmus.Classic.all

let test_scenario_memo_completes () =
  (* the default ff-the scenario blows the 200k-run budget unmemoized;
     memoization collapses it to a complete (exhaustive) proof *)
  let spec = Ws_harness.Scenarios.default_spec in
  let st, _, clean =
    Ws_harness.Scenarios.explore_check spec ~preemption_bound:(Some 3)
      ~memo:true ()
  in
  checkb "no violation" true clean;
  checkb "memo hits reported" true (st.Explore.memo_hits > 0);
  checkb "well under the run budget" true (st.Explore.runs < 10_000);
  let par, _, par_clean =
    Ws_harness.Scenarios.explore_check spec ~preemption_bound:(Some 3)
      ~memo:true ~jobs:4 ()
  in
  checkb "parallel memoized verdict agrees" true (par_clean = clean);
  checkb "parallel memoized also completes" true (par.Explore.runs < 10_000)

(* --- sleep-set partial-order reduction -------------------------------- *)

let test_por_classic_differential () =
  (* POR must preserve every verdict and every recorded failure prefix
     while exploring (in aggregate, substantially) fewer runs; without a
     preemption bound, parallel POR is byte-identical to sequential *)
  let total_plain = ref 0 and total_por = ref 0 in
  List.iter
    (fun (t : Ws_litmus.Classic.t) ->
      let plain = Explore.search ~max_runs ~mk:t.mk () in
      let por = Explore.search ~max_runs ~por:true ~mk:t.mk () in
      checkb (t.name ^ ": verdict unchanged")
        (plain.Explore.failures <> [])
        (por.Explore.failures <> []);
      checkb (t.name ^ ": POR never explores more") true
        (por.Explore.runs <= plain.Explore.runs);
      checkb (t.name ^ ": POR still exhausts") true (por.Explore.truncated = 0);
      total_plain := !total_plain + plain.Explore.runs;
      total_por := !total_por + por.Explore.runs;
      List.iter
        (fun (choices, _) ->
          match Explore.replay_choices ~mk:t.mk choices with
          | Error _ -> () (* the reduced search's sighting reproduces *)
          | Ok () ->
              Alcotest.failf "%s: POR failure prefix did not replay" t.name)
        por.Explore.failures;
      let par = Explore_par.search ~max_runs ~por:true ~jobs:4 ~mk:t.mk () in
      Alcotest.check stats (t.name ^ ": POR jobs=4 equals sequential") por par)
    Ws_litmus.Classic.all;
  checkb "POR cuts the classic suite by at least 5x" true
    (!total_por * 5 <= !total_plain)

let test_por_capacity_sweep () =
  (* the same differential across store-buffer capacities of a queue
     scenario: capacity moves where the reordering lives, so the
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
      let go ?(jobs = 1) por =
        Ws_harness.Scenarios.explore_check spec ~max_runs:40_000
          ~preemption_bound:(Some 3) ~jobs ~por ()
      in
      let plain, _, plain_clean = go false in
      let por, _, por_clean = go true in
      checkb
        (Printf.sprintf "sb=%d: clean verdict agrees" sb_capacity)
        plain_clean por_clean;
      checkb
        (Printf.sprintf "sb=%d: POR never explores more" sb_capacity)
        true
        (por.Explore.runs <= plain.Explore.runs);
      let _, _, par_clean = go ~jobs:4 true in
      checkb
        (Printf.sprintf "sb=%d: parallel POR verdict agrees" sb_capacity)
        plain_clean par_clean)
    [ 1; 2; 3 ]

let test_por_delta_scenarios () =
  (* the §4 delta-soundness pair: POR must still sight the delta=1
     duplication (with a replayable prefix) and still prove delta=2 clean *)
  let spec delta =
    {
      Ws_harness.Scenarios.default_spec with
      queue = "ff-cl";
      sb_capacity = 2;
      delta;
      worker_fence = false;
      preloaded = 3;
      puts = 0;
      steal_attempts = 2;
      client_stores = 0;
    }
  in
  (* the unmemoized space is ~800k runs with the duplication deep in DFS
     order; memoization collapses it to ~100 runs and memoized failure
     prefixes stay replayable, so sight through the cache *)
  let sight por =
    let st, _, _ =
      Ws_harness.Scenarios.explore_check (spec 1) ~preemption_bound:(Some 3)
        ~memo:true ~por ()
    in
    st
  in
  let plain = sight false and por = sight true in
  checkb "delta=1: unreduced search sights the duplication" true
    (plain.Explore.failures <> []);
  checkb "delta=1: POR sights the duplication" true (por.Explore.failures <> []);
  (match por.Explore.failures with
  | (choices, _) :: _ -> (
      match
        Explore.replay_choices ~mk:(Ws_harness.Scenarios.instance (spec 1)) choices
      with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "POR duplication prefix did not replay")
  | [] -> ());
  (* delta=2 is a proof, so it must exhaust: memoization makes that cheap,
     and POR must compose with it (the sleep set is part of the memo key) *)
  let prove ?(jobs = 1) por =
    Ws_harness.Scenarios.explore_check (spec 2) ~preemption_bound:(Some 3)
      ~memo:true ~jobs ~por ()
  in
  let p, _, p_clean = prove false in
  let q, _, q_clean = prove true in
  checkb "delta=2: both memoized proofs are clean" true (p_clean && q_clean);
  checkb "delta=2: both proofs complete under budget" true
    (p.Explore.runs < 200_000 && q.Explore.runs < 200_000);
  let _, _, par_clean = prove ~jobs:4 true in
  checkb "delta=2: parallel POR+memo proof agrees" true par_clean

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
    (Explore.search ~max_runs ~preemption_bound:(Some 3) ~memo:true ~mk ());
  exercise "par jobs=4"
    (Explore_par.search ~max_runs ~preemption_bound:(Some 3) ~memo:true
       ~jobs:4 ~mk ())

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
  (* and on a queue scenario with memo + POR + preemption bound stacked *)
  let go snapshots =
    let st, _, _ =
      Ws_harness.Scenarios.explore_check Ws_harness.Scenarios.default_spec
        ~preemption_bound:(Some 3) ~memo:true ~por:true ~snapshots ()
    in
    st
  in
  Alcotest.check stats "scenario: snapshots equal replay under memo+POR"
    (go false) (go true)

(* --- source-DPOR -------------------------------------------------------- *)

let test_dpor_classic_differential () =
  (* DPOR must preserve every verdict (and replayable failure prefixes)
     while never exploring more runs than the unreduced search, and in
     aggregate no more than sleep sets alone; snapshot-based sibling
     exploration must stay byte-identical to replay-from-root under it *)
  let total_por = ref 0 and total_dpor = ref 0 in
  List.iter
    (fun (t : Ws_litmus.Classic.t) ->
      let plain = Explore.search ~max_runs ~mk:t.mk () in
      let por = Explore.search ~max_runs ~por:true ~mk:t.mk () in
      let dpor = Explore.search ~max_runs ~dpor:true ~mk:t.mk () in
      checkb (t.name ^ ": verdict unchanged")
        (plain.Explore.failures <> [])
        (dpor.Explore.failures <> []);
      checkb (t.name ^ ": DPOR never explores more") true
        (dpor.Explore.runs <= plain.Explore.runs);
      checkb (t.name ^ ": DPOR still exhausts") true
        (dpor.Explore.truncated = 0);
      total_por := !total_por + por.Explore.runs;
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
  checkb "DPOR does not fall behind sleep sets across the suite" true
    (!total_dpor <= !total_por)

let test_dpor_parallel_verdicts () =
  (* frontier split nodes enumerate all children (they give up their share
     of the reduction), so only the verdict/failure contract carries over *)
  List.iter
    (fun (t : Ws_litmus.Classic.t) ->
      let seq = Explore.search ~max_runs ~dpor:true ~mk:t.mk () in
      let par = Explore_par.search ~max_runs ~dpor:true ~jobs:4 ~mk:t.mk () in
      checkb (t.name ^ ": DPOR jobs=4 verdict agrees")
        (seq.Explore.failures <> [])
        (par.Explore.failures <> []);
      checkb (t.name ^ ": DPOR jobs=4 still exhausts") true
        (par.Explore.truncated = 0))
    Ws_litmus.Classic.all

let test_dpor_delta_scenarios () =
  (* the §4 delta-soundness pair under DPOR: the delta=1 duplication is
     still sighted (with a replayable prefix), delta=2 still proves clean *)
  let spec delta =
    {
      Ws_harness.Scenarios.default_spec with
      queue = "ff-cl";
      sb_capacity = 2;
      delta;
      worker_fence = false;
      preloaded = 3;
      puts = 0;
      steal_attempts = 2;
      client_stores = 0;
    }
  in
  let sighted, _, _ =
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
  let proof, _, clean =
    Ws_harness.Scenarios.explore_check (spec 2) ~preemption_bound:(Some 3)
      ~memo:true ~dpor:true ()
  in
  checkb "delta=2: DPOR+memo proof is clean" true clean;
  checkb "delta=2: DPOR+memo proof completes under budget" true
    (proof.Explore.runs < 200_000)

(* --- persistent memo store ---------------------------------------------- *)

let fresh_store_path name =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wsrepro-test-store-%d-%s" (Unix.getpid ()) name)
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists path then rm path;
  path

let open_store ?(config = "test") ?(preemption_bound = None) ?(por = false)
    ?(dpor = false) path =
  Memo_store.open_ ~path ~config ~max_depth:Explore.default_max_depth
    ~preemption_bound ~por ~dpor ()

let test_memo_store_roundtrip () =
  (* cold search populates and commits; a warm reopen prunes the whole
     reduced tree at the root and reports the stored failure set *)
  let t = Ws_litmus.Classic.find "SB" in
  let path = fresh_store_path "roundtrip" in
  let cold_store =
    match open_store ~dpor:true path with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let cold =
    Explore.search ~max_runs ~dpor:true ~memo_store:cold_store ~mk:t.mk ()
  in
  checkb "cold search explores" true (cold.Explore.runs > 0);
  checkb "cold search sights SB" true (cold.Explore.failures <> []);
  checkb "commit flushed the write-back buffer" true
    (Memo_store.pending_entries cold_store = 0);
  let warm_store =
    match open_store ~dpor:true path with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  checkb "warm reopen loads the committed entries" true
    (Memo_store.loaded_entries warm_store > 0);
  let warm =
    Explore.search ~max_runs ~dpor:true ~memo_store:warm_store ~mk:t.mk ()
  in
  checkb "warm search prunes at the root" true (warm.Explore.runs = 0);
  checkb "warm lookup hit" true (Memo_store.hits warm_store > 0);
  checkb "stored failure set carries the verdict" true
    (warm.Explore.failures = cold.Explore.failures)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  n = 0 || at 0

let test_memo_store_header_mismatch () =
  (* every pinned header field must reject a mismatched open *)
  let t = Ws_litmus.Classic.find "MP" in
  let path = fresh_store_path "mismatch" in
  (match open_store ~dpor:true path with
  | Ok s -> ignore (Explore.search ~max_runs ~dpor:true ~memo_store:s ~mk:t.mk ())
  | Error e -> Alcotest.fail e);
  let expect_error what = function
    | Ok _ -> Alcotest.failf "mismatched %s accepted" what
    | Error e ->
        checkb
          (Printf.sprintf "%s error mentions the field (%s)" what e)
          true
          (contains ~needle:what e)
  in
  expect_error "por" (open_store ~por:true path);
  expect_error "config" (open_store ~config:"other" ~dpor:true path);
  expect_error "preemption_bound"
    (open_store ~preemption_bound:(Some 2) ~dpor:true path);
  (* matching header still opens *)
  match open_store ~dpor:true path with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_memo_store_corruption () =
  let t = Ws_litmus.Classic.find "MP" in
  let path = fresh_store_path "corrupt" in
  (match open_store path with
  | Ok s -> ignore (Explore.search ~max_runs ~memo_store:s ~mk:t.mk ())
  | Error e -> Alcotest.fail e);
  let oc = open_out (Filename.concat path "shard-0.dat") in
  output_string oc "not a number\n";
  close_out oc;
  match open_store path with
  | Ok _ -> Alcotest.fail "corrupted shard accepted"
  | Error e ->
      checkb ("corruption diagnosed: " ^ e) true
        (contains ~needle:"malformed entry" e)

(* --- Knuth covered-mass estimate ---------------------------------------- *)

let test_covered_estimate () =
  (* a completed search reports exactly 1.0; an interrupted one reports the
     fraction it got through, and runs/covered estimates the total size *)
  let t = Ws_litmus.Classic.find "SB" in
  let full = Explore.search ~max_runs ~mk:t.mk () in
  Alcotest.(check (float 0.0))
    "complete search covers 1.0" 1.0 full.Explore.covered;
  let partial =
    Explore.search ~max_runs:(max 1 (full.Explore.runs / 2)) ~mk:t.mk ()
  in
  checkb "interrupted search covers a proper fraction" true
    (partial.Explore.covered > 0.0 && partial.Explore.covered < 1.0);
  let est = float_of_int partial.Explore.runs /. partial.Explore.covered in
  let actual = float_of_int full.Explore.runs in
  checkb "size estimate lands within 10x of the truth" true
    (est > actual /. 10.0 && est < actual *. 10.0);
  (* every disposal path must conserve mass: reduced, memoized, bounded and
     parallel searches that run to completion all still sum to 1.0 *)
  let dpor = Explore.search ~max_runs ~dpor:true ~mk:t.mk () in
  Alcotest.(check (float 0.0)) "DPOR covers 1.0" 1.0 dpor.Explore.covered;
  let memo = Explore.search ~max_runs ~memo:true ~mk:t.mk () in
  Alcotest.(check (float 0.0)) "memoized covers 1.0" 1.0 memo.Explore.covered;
  let bounded =
    Explore.search ~max_runs ~preemption_bound:(Some 2) ~mk:t.mk ()
  in
  Alcotest.(check (float 0.0)) "bounded covers 1.0" 1.0 bounded.Explore.covered;
  let par = Explore_par.search ~max_runs ~jobs:4 ~mk:t.mk () in
  Alcotest.(check (float 0.0)) "parallel covers 1.0" 1.0 par.Explore.covered

(* --- work-stealing frontier --------------------------------------------- *)

let test_frontier_accounting () =
  (* the frontier record must account for every run and every task, and the
     steal counters must be consistent *)
  let spec =
    {
      Ws_harness.Scenarios.default_spec with
      sb_capacity = 2;
      preloaded = 2;
      steal_attempts = 1;
    }
  in
  let st, fr, clean =
    Ws_harness.Scenarios.explore_check spec ~preemption_bound:(Some 3)
      ~jobs:4 ()
  in
  checkb "scenario is clean" true clean;
  Alcotest.(check int) "four domains" 4 fr.Explore_par.fr_domains;
  Alcotest.(check int)
    "per-domain runs sum to the total" st.Explore.runs
    (Array.fold_left ( + ) 0 fr.Explore_par.fr_runs_per_domain);
  Alcotest.(check int)
    "per-domain tasks sum to the total" fr.Explore_par.fr_tasks
    (Array.fold_left ( + ) 0 fr.Explore_par.fr_tasks_per_domain);
  checkb "the root split happened" true (fr.Explore_par.fr_splits > 0);
  checkb "attempts bound steals" true
    (fr.Explore_par.fr_steals <= fr.Explore_par.fr_steal_attempts)

let test_frontier_trivial_when_sequential () =
  let spec = Ws_harness.Scenarios.default_spec in
  let st, fr, _ =
    Ws_harness.Scenarios.explore_check spec ~preemption_bound:(Some 3)
      ~memo:true ~jobs:1 ()
  in
  Alcotest.(check int) "one domain" 1 fr.Explore_par.fr_domains;
  Alcotest.(check int) "one task" 1 fr.Explore_par.fr_tasks;
  Alcotest.(check int) "no splits" 0 fr.Explore_par.fr_splits;
  Alcotest.(check int) "no steals" 0 fr.Explore_par.fr_steals;
  Alcotest.(check int)
    "the single domain owns every run" st.Explore.runs
    fr.Explore_par.fr_runs_per_domain.(0)

let () =
  Alcotest.run "explore"
    [
      ( "parallel",
        [
          Alcotest.test_case "classic suite byte-identical" `Quick
            test_parallel_byte_identical;
          Alcotest.test_case "more jobs than work" `Quick
            test_parallel_more_jobs_than_work;
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
      ( "por",
        [
          Alcotest.test_case "classic suite differential" `Quick
            test_por_classic_differential;
          Alcotest.test_case "capacity sweep differential" `Quick
            test_por_capacity_sweep;
          Alcotest.test_case "delta scenarios differential" `Quick
            test_por_delta_scenarios;
        ] );
      ( "dpor",
        [
          Alcotest.test_case "classic suite differential" `Quick
            test_dpor_classic_differential;
          Alcotest.test_case "parallel verdicts unchanged" `Quick
            test_dpor_parallel_verdicts;
          Alcotest.test_case "delta scenarios differential" `Quick
            test_dpor_delta_scenarios;
        ] );
      ( "memo-store",
        [
          Alcotest.test_case "cold/warm roundtrip" `Quick
            test_memo_store_roundtrip;
          Alcotest.test_case "header mismatch rejected" `Quick
            test_memo_store_header_mismatch;
          Alcotest.test_case "corruption rejected" `Quick
            test_memo_store_corruption;
        ] );
      ( "covered",
        [
          Alcotest.test_case "estimate and conservation" `Quick
            test_covered_estimate;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "parallel accounting" `Quick
            test_frontier_accounting;
          Alcotest.test_case "trivial when sequential" `Quick
            test_frontier_trivial_when_sequential;
        ] );
      ( "failures",
        [
          Alcotest.test_case "replay order contract" `Quick
            test_failures_replay_order;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "replay oracle" `Quick test_snapshot_replay_oracle;
        ] );
    ]
