(* Model-checking the delta bound: exhaustively explore every bounded-TSO
   interleaving of a small FF-CL scenario and watch the safety argument of
   the paper's §4 become load-bearing.

   Run with:  dune exec examples/model_check_delta.exe

   On a TSO[2] machine where the worker does no client stores, up to 2
   take-stores can hide in its buffer, so delta = 1 is UNSOUND and delta = 2
   is sound. The explorer finds a duplicated task for delta = 1 and proves
   (within the bound) that delta = 2 has no such execution. *)

let explore ?(por = false) ~delta () =
  let spec =
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
  (* the violating schedule needs a single preemption (worker runs, then
     the thief), so a CHESS bound of 3 keeps the search exhaustive-within-
     bound AND small enough to finish *)
  Ws_harness.Scenarios.explore_check spec ~max_runs:2_000_000
    ~preemption_bound:(Some 3) ~por ()

let () =
  Printf.printf "machine: TSO[2]; worker does 0 stores between takes\n\n";
  let unsound, _ = explore ~delta:1 () in
  Printf.printf "delta = 1: %d interleavings explored\n" unsound.Tso.Explore.runs;
  (match unsound.Tso.Explore.failures with
  | (choices, msg) :: _ ->
      Printf.printf "  VIOLATION found: %s\n" msg;
      Printf.printf "  replayable schedule (choice indices): [%s]\n"
        (String.concat "; " (List.map string_of_int choices))
  | [] -> print_endline "  unexpectedly found no violation");
  print_newline ();
  let sound, sound_clean = explore ~delta:2 () in
  Printf.printf "delta = 2: %d interleavings explored, %d violations\n"
    sound.Tso.Explore.runs
    (List.length sound.Tso.Explore.failures);
  if sound_clean then
    print_endline
      "  verified: no task lost or duplicated under any schedule with <= 3 preemptions";
  print_newline ();
  (* the same proof, reduced: sleep-set POR skips interleavings that only
     commute independent transitions, so both verdicts are re-established
     from a fraction of the runs *)
  let unsound_por, _ = explore ~por:true ~delta:1 () in
  let sound_por, _ = explore ~por:true ~delta:2 () in
  Printf.printf
    "with sleep-set POR: delta = 1 finds the violation in %d runs (%s), and\n\
    \  delta = 2 is re-verified in %d runs (was %d, %.1fx fewer)\n"
    unsound_por.Tso.Explore.runs
    (if unsound_por.Tso.Explore.failures <> [] then "violation found"
     else "VIOLATION LOST")
    sound_por.Tso.Explore.runs sound.Tso.Explore.runs
    (float_of_int sound.Tso.Explore.runs
    /. float_of_int (max 1 sound_por.Tso.Explore.runs))
