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

let open_store ?(config = "test") ?(preemption_bound = None) ?(dpor = false)
    path =
  Memo_store.open_ ~path ~config ~max_depth:Explore.default_max_depth
    ~preemption_bound ~dpor ()

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
  expect_error "dpor" (open_store path);
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

let test_memo_store_in_memory () =
  (* a store with no directory is the table behind [~memo:true]: handing
     one in searches exactly as [~memo:true] does, and the store buffers,
     loads and commits nothing *)
  let t = Ws_litmus.Classic.find "SB" in
  let store = Memo_store.in_memory () in
  let given =
    Explore.search ~max_runs ~dpor:true ~memo_store:store ~mk:t.mk ()
  in
  let memo = Explore.search ~max_runs ~dpor:true ~memo:true ~mk:t.mk () in
  Alcotest.check stats "same search as ~memo:true" memo given;
  Alcotest.(check int)
    "every memo hit is a store hit" given.Explore.memo_hits
    (Memo_store.hits store);
  checkb "visits were recorded" true
    (Memo_store.lookups store > Memo_store.hits store);
  Alcotest.(check int) "nothing buffered" 0 (Memo_store.pending_entries store);
  Alcotest.(check int) "nothing loaded" 0 (Memo_store.loaded_entries store);
  checkb "commit is a no-op" true
    (Memo_store.commit store ~failures:given.Explore.failures = Ok ());
  checkb "no failure set is stored" true (Memo_store.stored_failures store = [])

let test_memo_store_frontier () =
  (* a revisit is pruned only by an entry with at least its depth and its
     preemption budget, so incomparable budgets both stay on a state's
     frontier *)
  let s = Memo_store.in_memory () in
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

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let test_memo_store_retired_por () =
  (* a store of the retired sleep-set-only search is keyed with sleep-set
     hashes that no search makes any more: refused with advice to delete
     it, while a DPOR store that still carries "por" (DPOR once implied
     it) opens *)
  let path = fresh_store_path "por" in
  Sys.mkdir path 0o755;
  let header ~dpor =
    Printf.sprintf
      {|{"schema":"wsrepro-memo/v1","config":"test","max_depth":%d,"preemption_bound":-1,"por":true,"dpor":%b,"shards":16}|}
      Explore.default_max_depth dpor
  in
  write_file (Filename.concat path "header.json") (header ~dpor:false);
  (match open_store path with
  | Ok _ -> Alcotest.fail "a --por store was accepted"
  | Error e ->
      checkb ("names the retired search: " ^ e) true
        (contains ~needle:"retired --por search" e
        && contains ~needle:"delete the store" e));
  write_file (Filename.concat path "header.json") (header ~dpor:true);
  match open_store ~dpor:true path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "a DPOR store with \"por\": true refused: %s" e

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
  let store = Memo_store.in_memory () and tbl = Hashtbl.create 16 in
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

(* --- memo-store loader fuzz ---------------------------------------------- *)

(* A shard line and the entry it holds when it is well-formed. *)
let fuzz_line_gen ~well_formed =
  let open QCheck.Gen in
  let budget = frequency [ (5, int_range 0 1000); (1, return max_int) ] in
  (* the first budget a slot's field cannot hold: its all-ones code *)
  let limit = (1 lsl ((Sys.int_size - 1) / 2)) - 1 in
  let entry =
    let* fp = oneof [ int; int_range (-3) 3; oneofl [ max_int; min_int ] ]
    and* d = budget
    and* p = budget in
    return (fp, d, p)
  in
  let valid (fp, d, p) = (Printf.sprintf "%d %d %d" fp d p, Some (fp, d, p)) in
  let bad text = (text, None) in
  if well_formed then
    frequency
      [
        (8, map valid entry);
        (1, map (fun fp -> valid (fp, limit - 1, 0)) int);
      ]
  else
    frequency
      [
        ( 1,
          map
            (fun ((fp, d, p), junk) ->
              bad (Printf.sprintf "%d %d %d%s" fp d p junk))
            (pair entry (oneofl [ " junk"; " "; "\t"; "\r"; " 4" ])) );
        ( 1,
          map (fun (fp, d, p) -> bad (Printf.sprintf "%d  %d %d" fp d p)) entry
        );
        (1, map (fun (fp, d, _) -> bad (Printf.sprintf "%d %d" fp d)) entry);
        (1, return (bad ""));
        ( 1,
          oneofl
            [
              bad "99999999999999999999 1 2";
              bad "1 99999999999999999999 2";
              bad "1 2 4611686018427387904";
              bad "+1 2 3";
              bad "01 2 3";
              bad "1 0x2 3";
              bad "1 2_0 3";
              bad "-0 1 1";
              bad "not a number";
            ] );
        ( 1,
          map
            (fun (fp, d) -> bad (Printf.sprintf "%d %d -1" fp d))
            (pair int (int_range 0 9)) );
        ( 1,
          map
            (fun (fp, huge) -> bad (Printf.sprintf "%d %d 1" fp huge))
            (pair int (oneofl [ limit; limit + 1; 1 lsl 40; max_int - 1 ])) );
      ]

type fuzz_file = Absent | Directory | Text of string

(* A shard file: a directory, or lines with the entry each well-formed
   one holds. *)
type fuzz_shard = [ `Dir | `Lines of (string * (int * int * int) option) list ]

type fuzz_case = {
  fz_header : fuzz_file;  (** [Absent] keeps the valid header *)
  fz_failures : fuzz_file;
  fz_shards : (int * fuzz_shard) list;
}

let fuzz_case_gen =
  let open QCheck.Gen in
  let header =
    frequency
      [
        (16, return Absent);
        (1, return Directory);
        ( 1,
          oneofl
            [
              Text "{";
              Text {|{"schema":"bogus"}|};
              Text
                {|{"schema":"wsrepro-memo/v1","config":"fuzz","max_depth":400,"preemption_bound":-1,"por":true,"dpor":false,"shards":16}|};
              Text
                {|{"schema":"wsrepro-memo/v1","config":"other","max_depth":400,"preemption_bound":-1,"dpor":false,"shards":16}|};
            ] );
      ]
  in
  let failures =
    frequency
      [
        (16, return Absent);
        (1, return Directory);
        (1, oneofl [ Text "[]"; Text {|{"failures":[{"choices":["x"]}]}|} ]);
      ]
  in
  (* well-formed lines, with at most one malformed line among them, so
     that each kind of malformed line decides a case on its own *)
  let lines =
    let* good = list_size (int_range 0 12) (fuzz_line_gen ~well_formed:true) in
    let* bad = fuzz_line_gen ~well_formed:false in
    let* at = int_bound (List.length good) in
    let* spoil = bool in
    return
      (if not spoil then good
       else
         List.filteri (fun i _ -> i < at) good
         @ (bad :: List.filteri (fun i _ -> i >= at) good))
  in
  let shard =
    frequency [ (1, return `Dir); (12, map (fun l -> `Lines l) lines) ]
  in
  let* fz_header = header and* fz_failures = failures in
  let+ fz_shards = list_size (int_range 0 4) (pair (int_bound 15) shard) in
  { fz_header; fz_failures; fz_shards }

let print_fuzz_case c =
  let file = function
    | Absent -> "valid"
    | Directory -> "a directory"
    | Text t -> String.escaped t
  in
  Printf.sprintf "header %s, failures %s\n%s" (file c.fz_header)
    (file c.fz_failures)
    (String.concat "\n"
       (List.map
          (fun (k, sh) ->
            match sh with
            | `Dir -> Printf.sprintf "shard-%d.dat: a directory" k
            | `Lines ls ->
                Printf.sprintf "shard-%d.dat:\n%s" k
                  (String.concat "\n"
                     (List.map (fun (t, _) -> "  " ^ String.escaped t) ls)))
          c.fz_shards))

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let fuzz_cases = ref 0

(* Lay the case out over a committed empty store, open it, and check the
   outcome: [Error] exactly when some file is malformed or unreadable,
   else every well-formed entry hits at its own budgets and is counted. *)
let store_loader_is_strict c =
  incr fuzz_cases;
  let path = fresh_store_path (Printf.sprintf "fuzz-%d" !fuzz_cases) in
  let opened () =
    Memo_store.open_ ~path ~config:"fuzz" ~max_depth:400 ~preemption_bound:None
      ~dpor:false ()
  in
  Fun.protect
    ~finally:(fun () -> rm_rf path)
    (fun () ->
      (match opened () with
      | Ok s -> (
          match Memo_store.commit s ~failures:[] with
          | Ok () -> ()
          | Error e -> failwith e)
      | Error e -> failwith e);
      let lay name = function
        | Absent -> ()
        | Directory ->
            let f = Filename.concat path name in
            Sys.remove f;
            Sys.mkdir f 0o755
        | Text t -> write_file (Filename.concat path name) t
      in
      lay "header.json" c.fz_header;
      lay "failures.json" c.fz_failures;
      (* a later shard of the same index replaces an earlier one *)
      let shards = Hashtbl.create 4 in
      List.iter (fun (k, sh) -> Hashtbl.replace shards k sh) c.fz_shards;
      let entries = ref [] and malformed = ref false in
      Hashtbl.iter
        (fun k sh ->
          let f = Filename.concat path (Printf.sprintf "shard-%d.dat" k) in
          match sh with
          | `Dir ->
              malformed := true;
              Sys.mkdir f 0o755
          | `Lines ls ->
              List.iter
                (fun (_, e) ->
                  match e with
                  | Some e -> entries := e :: !entries
                  | None -> malformed := true)
                ls;
              write_file f
                (String.concat "" (List.map (fun (t, _) -> t ^ "\n") ls)))
        shards;
      let bad_file = function Absent -> false | Directory | Text _ -> true in
      let expect_ok =
        not (!malformed || bad_file c.fz_header || bad_file c.fz_failures)
      in
      match opened () with
      | exception e ->
          QCheck.Test.fail_reportf "open_ raised %s" (Printexc.to_string e)
      | Error e ->
          if expect_ok then QCheck.Test.fail_reportf "refused: %s" e;
          true
      | Ok s ->
          if not expect_ok then
            QCheck.Test.fail_reportf "a malformed store opened";
          let n = List.length !entries in
          if Memo_store.loaded_entries s <> n then
            QCheck.Test.fail_reportf "loaded %d entries of %d"
              (Memo_store.loaded_entries s) n;
          List.for_all
            (fun (fp, d, p) -> Memo_store.seen s fp ~depth_rem:d ~preempt_rem:p)
            !entries)

let store_fuzz_prop =
  QCheck.Test.make ~name:"memo-store loader is strict and never raises"
    ~count:150
    (QCheck.make ~print:print_fuzz_case fuzz_case_gen)
    store_loader_is_strict

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
exception Row_timeout

(* [f ()] under a wall-clock bound of [seconds]. Broken DPOR bookkeeping
   can also loop inside a single step (a read chain linked back to
   itself), building nothing, where no build budget reaches; the alarm's
   handler raises at the loop's next poll point. *)
let within seconds f =
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Row_timeout))
  in
  ignore (Unix.alarm seconds);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm previous)
    f

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
       wait out every later row. *)
    match
      within 20 (fun () ->
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
    | exception Row_timeout ->
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
  let store = Memo_store.in_memory () in
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
  let store = Memo_store.in_memory () in
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

(* Memo keys, and the entries [wsrepro-memo/v1] shards keep on disk, stay
   valid only while {!Machine.fingerprint} and the sleep-set hashes compute
   the same values, so a set of them is pinned here. *)

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
        0x64bf8da60a10e04a; 0x3881df5bc044052a; 0x108ccf8af7b1f3ce;
        0x5361eb5fd392e008; 0x748f1ee678fb2a4; 0x2884bc5e4682abcb;
        0x12891a1d17fa7a80;
      ] );
    ( "SB+fences",
      [
        0x64bf8da60a10e04a; 0x7fc15a9ef0b80b34; 0x5777d6bc4780da30;
        0x7b5a4360c5b30bc9; 0x45d8446182393863; 0x388dfba7ec6a082a;
        0x27aa0a6fe6c8a02f; 0x4a2410bfe0dc4699; 0x435e21b9c9371b80;
      ] );
    ( "SB+rmw",
      [
        0x3b18941a63bb818; 0x3fbb7909dfb82c00; 0x6e097c89d5e75930;
        0x5b98c4648d1a86eb; 0x461acc68c0e3b23f; 0x78c77b30346b22a3;
        0x6bed3c9e9b447dce; 0x106c7c68337b1790; 0x3eba9556ed14fb1d;
      ] );
    ( "MP",
      [
        0x5f0187f853c11202; 0x7c7f99156945dd31; 0x3a6678a9531fff75;
        0x574f700e0bc736fd; 0x843bd063a905ce4; 0x507181f097d01cfd;
        0x65b263ec62e45b0d;
      ] );
    ( "LB",
      [
        0x43716d34904589f8; 0x6d872383b85202fd; 0x2310445bf60f8fe7;
        0x6011028e94c81786; 0x384a0b58739d7e55; 0x3f4ed93ba271d3b4;
        0x5446f7beabd0e94c;
      ] );
    ( "n6",
      [
        0x51ea805750d40a83; 0x67e79b6d8cc3e38b; 0x61d9300144326670;
        0x332d196307a3543e; 0x1e7b5b7f5c59f79b; 0x32fb209ee203cc68;
        0x6e87d7a2558611d7; 0x6ffef0f14278d45; 0x38bef924b250f9c4;
      ] );
    ( "n5",
      [
        0x2af90f2ae5af2073; 0x6eb3d68a1f8e3333; 0x4c2bb06e87a73ca7;
        0x4b3538d433f2e4aa; 0x34c7fbeea1b7795d; 0x786e1bffb834f1f0;
        0x1807972859d00f07;
      ] );
    ( "IRIW",
      [
        0x18fe971cf87ab3fb; 0x6b34e1e093c4ba28; 0x2086b07e205df04a;
        0x13e22a35056ad434; 0x706780c19027ed46; 0x54a6e5098a91b7f;
        0xeec43ee5a4f7d11; 0x1f2e62163b72ae3b; 0x6adef64bd37a071c;
      ] );
    ( "store-forwarding",
      [
        0x2032c6b7f2291f01; 0x4fb6cf9d6e2b8d9d; 0x22319a5eb58ad73f;
        0x7d1ddbc44df8a3f5; 0x78f629ef167c91f6; 0x2b3fcc08d0c01cf0;
      ] );
    ( "rmw-atomic",
      [
        0x72e8085ef2bb3eba; 0x3a81a7b439fcc34e; 0x565c473a7183d472;
        0x4c8802d1250e5283; 0x5ac24bd336600d9f;
      ] );
    ( "realistic",
      [
        0x64bf8da60a10e04a; 0x3881df5bc044052a; 0x108ccf8af7b1f3ce;
        0x7eeb67105143878d; 0x5361eb5fd392e008; 0x16c1d64829aa4b18;
        0x342c4ffab5b25287; 0x381438907c069bcc; 0x5382d1cdcdf5db87;
        0x62880b62c10b502a; 0x6790245e3a608154; 0x27845c349d382d2;
        0x74de056057ce6f4d; 0x724263ea3ed15521;
      ] );
  ]

let test_fingerprints_pinned () =
  let probe = probe_machine () in
  Alcotest.(check int)
    "perfbench's probe machine at 200 steps" 0x6606d30e9de0585a
    (Machine.fingerprint probe);
  Machine.release probe;
  List.iter
    (fun (name, expected) ->
      let m =
        if name = "realistic" then realistic_machine ()
        else ((Ws_litmus.Classic.find name).mk ()).Explore.machine
      in
      Alcotest.(check (list int))
        (name ^ ": every state of the last-choice schedule")
        expected (last_choice_fingerprints m))
    pinned_fingerprints;
  (* The keys a memoised DPOR search commits: fingerprints mixed with the
     hashes of their sleep sets, drains included. *)
  let path = fresh_store_path "keys" in
  (match open_store ~dpor:true path with
  | Ok s ->
      ignore
        (Explore.search ~max_runs ~dpor:true ~memo_store:s
           ~mk:(Ws_litmus.Classic.find "SB").mk ())
  | Error e -> Alcotest.fail e);
  let lines k =
    let file = Filename.concat path (Printf.sprintf "shard-%d.dat" k) in
    if not (Sys.file_exists file) then []
    else
      In_channel.with_open_text file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (( <> ) "")
  in
  let keys = List.sort compare (List.concat_map lines (List.init 16 Fun.id)) in
  Alcotest.(check (pair int string))
    "SB: the entries a memoised DPOR search commits"
    (36, "f0348cb693728a3898fb7a5a41f1decf")
    (List.length keys, Digest.to_hex (Digest.string (String.concat "\n" keys)))

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
          Alcotest.test_case "cold/warm roundtrip" `Quick
            test_memo_store_roundtrip;
          Alcotest.test_case "header mismatch rejected" `Quick
            test_memo_store_header_mismatch;
          Alcotest.test_case "corruption rejected" `Quick
            test_memo_store_corruption;
          Alcotest.test_case "in memory, nothing persists" `Quick
            test_memo_store_in_memory;
          Alcotest.test_case "Pareto frontier of budgets" `Quick
            test_memo_store_frontier;
          Alcotest.test_case "a store of the retired --por search refused"
            `Quick test_memo_store_retired_por;
        ] );
      ( "memo-store-differential",
        [ QCheck_alcotest.to_alcotest memo_table_prop ] );
      ("memo-store-fuzz", [ QCheck_alcotest.to_alcotest store_fuzz_prop ]);
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
      ( "snapshots",
        [
          Alcotest.test_case "replay oracle" `Quick test_snapshot_replay_oracle;
          Alcotest.test_case "unreduced replay oracle under a bound" `Quick
            test_snapshot_oracle_unreduced_bounded;
        ] );
      ( "snapshots-differential",
        [ QCheck_alcotest.to_alcotest lazy_restore_prop ] );
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
