(* Entry point of the repository benchmark (normally started through
   run.py, which builds this executable first).

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--out DIR] [--commit SHA]
     main.exe --record

   Runs one workload in this process and prints, as the last line of
   stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
   Untraced runs (--trace 0) report the end-to-end metrics; traced runs
   report the per-layer metrics and write their spans to DIR. A line
   before it, starting with "stamp ", records what the numbers were
   measured on. Exit status 1 when a correctness check failed, 2 on a
   usage or environment error. --record prints the values the
   correctness checks compare against. *)

open Common

(* Each workload with the domains it runs: verify searches on the calling
   domain alone, the others add one more. *)
let workloads =
  [
    ("sim", (W_sim.run, 2));
    ("verify", (W_verify.run, 1));
    ("native-forkjoin", (W_forkjoin.run, 2));
    ("native-service", (W_service.run, 2));
  ]

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line (o : outcome) ~units =
  let metric (name, v) =
    let unit = List.assoc name units in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed
    (String.concat ", " (List.map metric o.metrics))

(* The calibration child (see Common.calibrate_server). *)
let () =
  if Sys.argv = [| Sys.argv.(0); "--calibrate" |] then begin
    calibrate_server ();
    exit 0
  end

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let out = ref (Filename.concat ".bench_build" "perfbench") in
  let commit = ref "unknown" and record = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sim | verify | native-forkjoin | native-service");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--out", Arg.Set_string out, "DIR where stamps and spans are written");
      ("--commit", Arg.Set_string commit, "SHA commit being measured");
      ("--record", Arg.Set record, " print the values the checks compare against");
    ]
    (fun a -> die "unexpected argument %s" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !record then begin
    W_sim.record ();
    W_verify.record ();
    exit 0
  end;
  let run, domains_needed =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None -> die "unknown workload %S" !workload
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seconds < 1 then die "--seconds must be at least 1";
  if !seed < 0 then die "--seed must be non-negative";
  let nproc = Domain.recommended_domain_count () in
  if nproc < domains_needed then
    die "workload %s needs %d domains, but only %d processors are available" !workload
      domains_needed nproc;
  let traced = !trace = 1 in
  let ctx =
    {
      seed = !seed;
      seconds = float_of_int !seconds;
      trace = traced;
      spans = Perfbench.Spans.create ~enabled:traced;
    }
  in
  let o = run ctx in
  let host_factor = host_factor () in
  let o = if traced then { o with metrics = set o.metrics [ ("host.factor", host_factor) ] } else o in
  let expected = if traced then per_layer else end_to_end in
  if List.map fst o.metrics <> List.map fst expected then
    die "workload %s reported metrics that differ from the catalogue" !workload;
  List.iter
    (fun (name, v) ->
      if not (Float.is_finite v) then
        die "metric %s is not a finite number" name)
    o.metrics;
  let stamp =
    J.Obj
      ([
         ("workload", J.Str !workload);
         ("seed", J.Int !seed);
         ("seconds", J.Int !seconds);
         ("trace", J.Bool traced);
         ("nproc", J.Int nproc);
         ("domains", J.Int domains_needed);
         ("ocaml", J.Str Sys.ocaml_version);
         ("commit", J.Str !commit);
         ("cal_ref_ms", J.Float (cal_ref_s *. 1e3));
         ("cal_ms", J.List (List.rev_map (fun x -> J.Float (x *. 1e3)) !cal_samples));
         ("host_factor", J.Float host_factor);
         ("unit_host_s", J.List (List.rev_map (fun x -> J.Float x) !unit_samples));
         ("setup_host_ms", J.List (List.rev_map (fun x -> J.Float (x *. 1e3)) !setup_samples));
       ]
      @ o.stamp)
  in
  let tag = Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace in
  (try
     mkdir_p !out;
     J.write_file (Filename.concat !out (tag ^ ".stamp.json")) stamp;
     if traced then
       Perfbench.Spans.write ctx.spans (Filename.concat !out (tag ^ ".spans.json"))
   with Sys_error e -> die "cannot write run files: %s" e);
  print_endline ("stamp " ^ J.to_string ~indent:false stamp);
  print_endline (result_line o ~units:expected);
  exit (if o.correct then 0 else 1)
