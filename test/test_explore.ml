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

(* --- instance lifecycle ---------------------------------------------- *)

let test_instances_released () =
  (* whoever builds an instance releases it: after every kind of search,
     no machine the builder handed out may still hold a paused thread (its
     fiber stack would never be freed) *)
  let lock = Mutex.create () in
  let kept = ref [] in
  let keeping mk () =
    let inst = mk () in
    Mutex.protect lock (fun () -> kept := inst.Explore.machine :: !kept);
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
  let search ?snapshots ?(max_runs = max_runs) ?max_depth ?memo ?por ?dpor ()
      () =
    ignore
      (Explore.search ~max_runs ?max_depth ~preemption_bound:pb ?snapshots
         ?memo ?por ?dpor ~mk ())
  in
  expect "stateless plain" (search ());
  expect "stateless por" (search ~por:true ());
  expect "stateless dpor" (search ~dpor:true ());
  expect "memo plain" (search ~memo:true ());
  expect "memo por" (search ~memo:true ~por:true ());
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
  expect "parallel jobs=2" (fun () ->
      ignore
        (Explore_par.search ~max_runs ~preemption_bound:pb ~jobs:2 ~mk ()));
  expect "parallel jobs=2 memo dpor" (fun () ->
      ignore
        (Explore_par.search ~preemption_bound:pb ~memo:true ~dpor:true
           ~jobs:2 ~mk ()));
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

let golden_configs = [ (1, 1, 1, 0); (2, 1, 1, 1); (3, 1, 2, 0); (2, 2, 1, 0) ]

let failures_digest fs =
  let line (choices, msg) =
    String.concat "," (List.map string_of_int choices) ^ ":" ^ msg
  in
  String.sub
    (Digest.to_hex (Digest.string (String.concat "|" (List.map line fs))))
    0 12

let test_dpor_golden () =
  let expected_keys =
    List.concat_map
      (fun q ->
        List.concat_map
          (fun sb ->
            List.concat_map
              (fun cfg -> [ (q, sb, cfg, Stateless); (q, sb, cfg, Memo) ])
              golden_configs)
          [ 1; 2 ])
      Ws_core.Registry.names
  in
  checkb "the table covers every registry queue, sb and config" true
    (List.map (fun (q, sb, cfg, mode, _, _, _) -> (q, sb, cfg, mode)) dpor_golden
    = expected_keys);
  let differ = ref [] in
  List.iter
    (fun (queue, sb, (tasks, steals, delta, cs), mode, counts, digest, msgs) ->
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
      let st =
        match mode with
        | Stateless ->
            Explore.search ~max_runs:4000 ~preemption_bound:(Some 2)
              ~dpor:true ~mk ()
        | Memo ->
            Explore.search ~preemption_bound:(Some 3) ~memo:true ~dpor:true
              ~mk ()
      in
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
      if got <> counts || failures_digest fs <> digest || List.map snd fs <> msgs
      then
        differ :=
          Printf.sprintf "(%S, %d, (%d, %d, %d, %d), %s, [| %s |], %S, %d failures)"
            queue sb tasks steals delta cs
            (match mode with Stateless -> "Stateless" | Memo -> "Memo")
            (String.concat "; " (Array.to_list (Array.map string_of_int got)))
            (failures_digest fs) (List.length fs)
          :: !differ)
    dpor_golden;
  match List.rev !differ with
  | [] -> ()
  | rows ->
      Alcotest.failf "%d of %d rows differ from the recording; now:\n%s"
        (List.length rows) (List.length dpor_golden) (String.concat "\n" rows)

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
          Alcotest.test_case "a write joins every read since the last"
            `Quick test_dpor_joined_read_clock;
        ] );
      ( "dpor-golden",
        [
          Alcotest.test_case "recorded counts per queue, sb and config" `Quick
            test_dpor_golden;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "every built instance is released" `Quick
            test_instances_released;
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
