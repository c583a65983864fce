open Tso

type spec = {
  queue : string;
  sb_capacity : int;
  buffer_model : Store_buffer.model;
  delta : int;
  worker_fence : bool;
  preloaded : int;
  puts : int;
  steal_attempts : int;
  thieves : int;
  client_stores : int;
}

let default_spec =
  {
    queue = "ff-the";
    sb_capacity = 2;
    buffer_model = Store_buffer.Abstract;
    delta = 1;
    worker_fence = true;
    preloaded = 2;
    puts = 1;
    steal_attempts = 2;
    thieves = 1;
    client_stores = 1;
  }

let spec_json spec =
  let model =
    match spec.buffer_model with
    | Store_buffer.Abstract -> "abstract"
    | Store_buffer.Realistic { coalesce = true } -> "realistic+coalesce"
    | Store_buffer.Realistic { coalesce = false } -> "realistic"
  in
  [
    ("queue", Telemetry.Json.Str spec.queue);
    ("sb_capacity", Telemetry.Json.Int spec.sb_capacity);
    ("buffer_model", Telemetry.Json.Str model);
    ("delta", Telemetry.Json.Int spec.delta);
    ("worker_fence", Telemetry.Json.Bool spec.worker_fence);
    ("preloaded", Telemetry.Json.Int spec.preloaded);
    ("puts", Telemetry.Json.Int spec.puts);
    ("steal_attempts", Telemetry.Json.Int spec.steal_attempts);
    ("thieves", Telemetry.Json.Int spec.thieves);
    ("client_stores", Telemetry.Json.Int spec.client_stores);
  ]

(* Every task the scenario ever holds, plus a free cell, rounded up to a
   power of two; at least 8 cells, chase-lev-dyn's initial buffer. The
   explorer hashes, snapshots and restores every cell at every node, so
   the array is sized to the scenario, not to a constant. *)
let task_capacity spec =
  let need = max 8 (spec.preloaded + spec.puts + 1) in
  let rec pow2 c = if c >= need then c else pow2 (2 * c) in
  pow2 8

(* The per-spec work (registry lookup, queue parameters, thread names, the
   preload list) is done once, when the builder is made: the explorer calls
   the builder for every sibling it restores, and a build is ~1 µs. *)
let instance spec =
  let (module Q : Ws_core.Queue_intf.S) = Ws_core.Registry.find spec.queue in
  let cfg =
    { Machine.sb_capacity = spec.sb_capacity; buffer_model = spec.buffer_model }
  in
  let params =
    {
      Ws_core.Queue_intf.capacity = task_capacity spec;
      delta = spec.delta;
      worker_fence = spec.worker_fence;
      tag = "q";
    }
  in
  let total = spec.preloaded + spec.puts in
  let preload = List.init spec.preloaded Fun.id in
  let thief_names =
    Array.init spec.thieves (fun t -> Printf.sprintf "thief%d" (t + 1))
  in
  fun () ->
    let machine = Machine.create cfg in
    let q = Q.create machine params in
    Q.preload q preload;
    let removed = Array.make (max total 1) 0 in
    let bad_abort = ref false in
    let scratch = Memory.alloc (Machine.memory machine) ~name:"scratch" ~init:0 in
    let _ =
      Machine.spawn machine ~name:"worker" (fun () ->
          for i = spec.preloaded to total - 1 do
            Q.put q i
          done;
          let rec drain () =
            match Q.take q with
            | `Empty -> ()
            | `Task i ->
                removed.(i) <- removed.(i) + 1;
                for s = 1 to spec.client_stores do
                  Program.store scratch (i + s)
                done;
                drain ()
          in
          drain ())
    in
    Array.iter
      (fun name ->
        ignore
          (Machine.spawn machine ~name (fun () ->
               for _ = 1 to spec.steal_attempts do
                 match Q.steal q with
                 | `Task i -> removed.(i) <- removed.(i) + 1
                 | `Empty -> ()
                 | `Abort -> if not Q.may_abort then bad_abort := true
               done)))
      thief_names;
    let check () =
      if !bad_abort then Error (Q.name ^ " returned ABORT but may_abort is false")
      else begin
        let problems = ref [] in
        Array.iteri
          (fun i c ->
            if i < total then begin
              if c = 0 then problems := Printf.sprintf "task %d lost" i :: !problems
              else if c > 1 && not Q.may_duplicate then
                problems :=
                  Printf.sprintf "task %d extracted %d times" i c :: !problems
            end)
          removed;
        match !problems with
        | [] -> Ok ()
        | ps -> Error (String.concat "; " (List.rev ps))
      end
    in
    { Explore.machine; check }

let random_check spec ~seeds ?(drain_weight = 0.1) () =
  let mk = instance spec in
  let rec go = function
    | [] -> Ok ()
    | seed :: rest -> (
        let inst = mk () in
        let rng = Random.State.make [| seed |] in
        (* A deadlocked or cut run leaves threads paused: release the
           instance before the next seed builds one. *)
        let verdict =
          Fun.protect
            ~finally:(fun () -> Machine.release inst.Explore.machine)
            (fun () ->
              match
                Sched.run ~max_steps:500_000 inst.Explore.machine
                  (Sched.weighted rng ~drain_weight)
              with
              | Sched.Quiescent -> inst.Explore.check ()
              | Sched.Deadlock -> Error "deadlock"
              | Sched.Max_steps -> Error "step budget")
        in
        match verdict with
        | Ok () -> go rest
        | Error e -> Error (Printf.sprintf "seed %d: %s" seed e))
  in
  go seeds

let explore_check spec ?max_runs ?max_depth ?preemption_bound ?(memo = false)
    ?(dpor = false) ?(progress = false) () =
  let reporter =
    if progress then Some (Telemetry.Progress.create ~label:"explore" ())
    else None
  in
  let on_progress =
    Option.map
      (fun rep (s : Explore.stats) ->
        Telemetry.Progress.sample rep ~count:s.Explore.runs (fun ~rate ->
            Printf.sprintf
              "%d runs (%.0f/s), depth frontier %d, %d memo hits (%.1f%% hit \
               rate)"
              s.Explore.runs rate s.Explore.peak_depth s.Explore.memo_hits
              (100.0 *. Explore.memo_hit_rate s)))
      reporter
  in
  let st =
    Explore.search ?max_runs ?max_depth ?preemption_bound ~memo ~dpor
      ?on_progress ~mk:(instance spec) ()
  in
  Option.iter (fun rep -> Telemetry.Progress.finish rep) reporter;
  ( st,
    st.Explore.complete && st.Explore.failures = [] && st.Explore.truncated = 0
  )

(* ------------------------------------------------------------------ *)
(* Open-system scenario DSL (wsrepro-scenario/v1)                      *)
(* ------------------------------------------------------------------ *)

(* One description drives both engines: the timing model replays the plan
   in simulated ticks, the native pool replays the same plan with ticks
   mapped to wall time through [sc_tick_ns]. The JSON form is strict —
   unknown fields are rejected, at the top level and inside the nested
   arrival/service objects — so a typo'd knob fails loudly instead of
   silently running the default. Emission goes through the byte-stable
   {!Telemetry.Json} emitter, so emit → parse → emit is the identity on
   bytes (floats are quantized to the emitter's %.3f grid on first
   emission). *)

module OL = Ws_runtime.Open_load

(* Service-level objective, all budgets in simulated ticks (the native
   replay converts through [sc_tick_ns]). [slo_p99_sojourn] is judged per
   retained window of the sojourn ring; the stage budgets are whole-run
   p99s; [slo_max_drop_rate] is dropped/offered. *)
type slo = {
  slo_p99_sojourn : int option;  (* per-window p99 budget, ticks *)
  slo_max_drop_rate : float option;  (* dropped / offered, in [0, 1] *)
  slo_qwait_p99 : int option;  (* whole-run stage p99 budgets, ticks *)
  slo_dispatch_p99 : int option;
  slo_service_p99 : int option;
  slo_window : int;  (* window width, ticks *)
  slo_window_slots : int;  (* windows retained (and judged) *)
}

let default_slo =
  {
    slo_p99_sojourn = None;
    slo_max_drop_rate = None;
    slo_qwait_p99 = None;
    slo_dispatch_p99 = None;
    slo_service_p99 = None;
    slo_window = 8192;
    slo_window_slots = 16;
  }

type open_spec = {
  sc_name : string;
  sc_queue : string;  (* registry name *)
  sc_workers : int;
  sc_requests : int;
  sc_chain : int;
  sc_seed : int;
  sc_capacity : int;
  sc_policy : OL.policy;
  sc_tick_ns : int;
  sc_arrival : OL.arrival;
  sc_service : OL.service;
  sc_slo : slo option;
}

let open_schema = "wsrepro-scenario/v1"

let default_open_spec =
  {
    sc_name = "default";
    sc_queue = "ff-the";
    sc_workers = 3;
    sc_requests = 500;
    sc_chain = 3;
    sc_seed = 1;
    sc_capacity = 64;
    sc_policy = OL.Block;
    sc_tick_ns = 50;
    sc_arrival = OL.Poisson { rate = 2.0 };
    sc_service = OL.Exponential { mean = 400 };
    sc_slo = None;
  }

module J = Telemetry.Json

let arrival_json = function
  | OL.Poisson { rate } ->
      J.Obj [ ("process", J.Str "poisson"); ("rate", J.Float rate) ]
  | OL.Bursty { rate_lo; rate_hi; switch_lo; switch_hi } ->
      J.Obj
        [
          ("process", J.Str "bursty");
          ("rate_lo", J.Float rate_lo);
          ("rate_hi", J.Float rate_hi);
          ("switch_lo", J.Float switch_lo);
          ("switch_hi", J.Float switch_hi);
        ]

let service_json = function
  | OL.Fixed { ticks } ->
      J.Obj [ ("dist", J.Str "fixed"); ("ticks", J.Int ticks) ]
  | OL.Uniform { lo; hi } ->
      J.Obj [ ("dist", J.Str "uniform"); ("lo", J.Int lo); ("hi", J.Int hi) ]
  | OL.Exponential { mean } ->
      J.Obj [ ("dist", J.Str "exponential"); ("mean", J.Int mean) ]
  | OL.Bimodal { short; long; p_long } ->
      J.Obj
        [
          ("dist", J.Str "bimodal");
          ("short", J.Int short);
          ("long", J.Int long);
          ("p_long", J.Float p_long);
        ]

(* Budget fields that were absent stay absent on re-emission, so
   emit -> parse -> emit is still the identity on bytes. *)
let slo_json s =
  let opt_int k = function Some v -> [ (k, J.Int v) ] | None -> [] in
  let budgets =
    opt_int "qwait" s.slo_qwait_p99
    @ opt_int "dispatch" s.slo_dispatch_p99
    @ opt_int "service" s.slo_service_p99
  in
  J.Obj
    (opt_int "p99_sojourn" s.slo_p99_sojourn
    @ (match s.slo_max_drop_rate with
      | Some r -> [ ("max_drop_rate", J.Float r) ]
      | None -> [])
    @ (if budgets = [] then [] else [ ("stage_budgets", J.Obj budgets) ])
    @ [ ("window", J.Int s.slo_window); ("windows", J.Int s.slo_window_slots) ]
    )

let open_spec_json s =
  J.Obj
    ([
       ("schema", J.Str open_schema);
       ("name", J.Str s.sc_name);
       ("queue", J.Str s.sc_queue);
       ("workers", J.Int s.sc_workers);
       ("requests", J.Int s.sc_requests);
       ("chain", J.Int s.sc_chain);
       ("seed", J.Int s.sc_seed);
       ("capacity", J.Int s.sc_capacity);
       ( "policy",
         J.Str (match s.sc_policy with OL.Drop -> "drop" | OL.Block -> "block")
       );
       ("tick_ns", J.Int s.sc_tick_ns);
       ("arrival", arrival_json s.sc_arrival);
       ("service", service_json s.sc_service);
     ]
    @ match s.sc_slo with None -> [] | Some slo -> [ ("slo", slo_json slo) ])

(* --- strict parsing -------------------------------------------------- *)

let ( let* ) = Result.bind

let fields ctx = function
  | J.Obj fs -> Ok fs
  | _ -> Error (Printf.sprintf "%s: expected an object" ctx)

let reject_unknown ctx allowed fs =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) fs with
  | Some (k, _) -> Error (Printf.sprintf "%s: unknown field %S" ctx k)
  | None -> Ok ()

let get_str ctx fs k ~default =
  match List.assoc_opt k fs with
  | None -> Ok default
  | Some (J.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "%s: %S must be a string" ctx k)

let get_int ctx fs k ~default =
  match List.assoc_opt k fs with
  | None -> Ok default
  | Some (J.Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "%s: %S must be an integer" ctx k)

let get_float ctx fs k ~default =
  match List.assoc_opt k fs with
  | None -> Ok default
  | Some (J.Float f) -> Ok f
  | Some (J.Int i) -> Ok (float_of_int i)
  | Some _ -> Error (Printf.sprintf "%s: %S must be a number" ctx k)

let require_pos ctx k v =
  if v >= 1 then Ok v
  else Error (Printf.sprintf "%s: %S must be >= 1 (got %d)" ctx k v)

let require_rate ctx k v =
  if v > 0. then Ok v
  else Error (Printf.sprintf "%s: %S must be > 0" ctx k)

let require_prob ctx k v =
  if v >= 0. && v <= 1. then Ok v
  else Error (Printf.sprintf "%s: %S must be in [0, 1]" ctx k)

(* --- what one run can hold ------------------------------------------- *)

(* [native --scenario] runs one domain per worker beside the main domain,
   its load generator, and OCaml 5.1 runs at most 128 domains. The bound
   also keeps the engine's task arrays, 16,384 cells per worker, small. *)
let max_workers = 127

(* Flight-ring capacity per slot that holds a whole replay. Per cell, a
   slot records at most a run, a steal, a spawn of the next stage and a
   steal abort (each abort loses a cell to another taker). It parks at
   most once per wake-up broadcast, and each park is a park/unpark pair:
   one broadcast per enqueued cell, one per request whose last stage
   leaves nothing in flight, one at shutdown. That is
   requests x (6 x chain + 2) + 2 events; the report's per-ring [dropped]
   counts confirm it. *)
let replay_flight_capacity s = (s.sc_requests * ((6 * s.sc_chain) + 2)) + 2

(* The largest [requests], and then [chain], whose replay ring
   {!Telemetry.Flight_recorder} can hold. The ring outgrows
   [Open_system]'s [requests * chain] stage array, so that fits too. *)
let max_ring = Telemetry.Flight_recorder.max_capacity
let max_requests = (max_ring - 2) / 8
let max_chain ~requests = (((max_ring - 2) / requests) - 2) / 6

let require_at_most ctx k ?(what = "") limit v =
  if v <= limit then Ok v
  else
    Error (Printf.sprintf "%s: %S must be at most %d%s (got %d)" ctx k limit what v)

(* Optional-budget variants: absent stays [None] (no default kicks in). *)
let get_int_opt ctx fs k =
  match List.assoc_opt k fs with
  | None -> Ok None
  | Some (J.Int i) ->
      if i >= 1 then Ok (Some i)
      else Error (Printf.sprintf "%s: %S must be >= 1 (got %d)" ctx k i)
  | Some _ -> Error (Printf.sprintf "%s: %S must be an integer" ctx k)

let get_prob_opt ctx fs k =
  match List.assoc_opt k fs with
  | None -> Ok None
  | Some (J.Float f) ->
      let* f = require_prob ctx k f in
      Ok (Some f)
  | Some (J.Int i) ->
      let* f = require_prob ctx k (float_of_int i) in
      Ok (Some f)
  | Some _ -> Error (Printf.sprintf "%s: %S must be a number" ctx k)

let slo_of_json v =
  let ctx = "slo" in
  let d = default_slo in
  let* fs = fields ctx v in
  let* () =
    reject_unknown ctx
      [ "p99_sojourn"; "max_drop_rate"; "stage_budgets"; "window"; "windows" ]
      fs
  in
  let* slo_p99_sojourn = get_int_opt ctx fs "p99_sojourn" in
  let* slo_max_drop_rate = get_prob_opt ctx fs "max_drop_rate" in
  let* slo_qwait_p99, slo_dispatch_p99, slo_service_p99 =
    match List.assoc_opt "stage_budgets" fs with
    | None -> Ok (None, None, None)
    | Some v ->
        let ctx = "slo.stage_budgets" in
        let* fs = fields ctx v in
        let* () = reject_unknown ctx [ "qwait"; "dispatch"; "service" ] fs in
        let* q = get_int_opt ctx fs "qwait" in
        let* di = get_int_opt ctx fs "dispatch" in
        let* s = get_int_opt ctx fs "service" in
        Ok (q, di, s)
  in
  let* slo_window = get_int ctx fs "window" ~default:d.slo_window in
  let* slo_window = require_pos ctx "window" slo_window in
  let* slo_window_slots = get_int ctx fs "windows" ~default:d.slo_window_slots in
  let* slo_window_slots = require_pos ctx "windows" slo_window_slots in
  Ok
    {
      slo_p99_sojourn; slo_max_drop_rate; slo_qwait_p99; slo_dispatch_p99;
      slo_service_p99; slo_window; slo_window_slots;
    }

let arrival_of_json v =
  let ctx = "arrival" in
  let* fs = fields ctx v in
  let* kind = get_str ctx fs "process" ~default:"" in
  match kind with
  | "poisson" ->
      let* () = reject_unknown ctx [ "process"; "rate" ] fs in
      let* rate = get_float ctx fs "rate" ~default:2.0 in
      let* rate = require_rate ctx "rate" rate in
      Ok (OL.Poisson { rate })
  | "bursty" ->
      let* () =
        reject_unknown ctx
          [ "process"; "rate_lo"; "rate_hi"; "switch_lo"; "switch_hi" ]
          fs
      in
      let* rate_lo = get_float ctx fs "rate_lo" ~default:1.0 in
      let* rate_lo = require_rate ctx "rate_lo" rate_lo in
      let* rate_hi = get_float ctx fs "rate_hi" ~default:4.0 in
      let* rate_hi = require_rate ctx "rate_hi" rate_hi in
      let* switch_lo = get_float ctx fs "switch_lo" ~default:0.1 in
      let* switch_lo = require_prob ctx "switch_lo" switch_lo in
      let* switch_hi = get_float ctx fs "switch_hi" ~default:0.1 in
      let* switch_hi = require_prob ctx "switch_hi" switch_hi in
      Ok (OL.Bursty { rate_lo; rate_hi; switch_lo; switch_hi })
  | "" -> Error "arrival: missing \"process\""
  | k ->
      Error
        (Printf.sprintf
           "arrival: unknown process %S (expected poisson or bursty)" k)

let service_of_json v =
  let ctx = "service" in
  let* fs = fields ctx v in
  let* kind = get_str ctx fs "dist" ~default:"" in
  match kind with
  | "fixed" ->
      let* () = reject_unknown ctx [ "dist"; "ticks" ] fs in
      let* ticks = get_int ctx fs "ticks" ~default:400 in
      let* ticks = require_pos ctx "ticks" ticks in
      Ok (OL.Fixed { ticks })
  | "uniform" ->
      let* () = reject_unknown ctx [ "dist"; "lo"; "hi" ] fs in
      let* lo = get_int ctx fs "lo" ~default:100 in
      let* lo = require_pos ctx "lo" lo in
      let* hi = get_int ctx fs "hi" ~default:700 in
      let* hi = require_pos ctx "hi" hi in
      if hi < lo then Error "service: \"hi\" must be >= \"lo\""
      else Ok (OL.Uniform { lo; hi })
  | "exponential" ->
      let* () = reject_unknown ctx [ "dist"; "mean" ] fs in
      let* mean = get_int ctx fs "mean" ~default:400 in
      let* mean = require_pos ctx "mean" mean in
      Ok (OL.Exponential { mean })
  | "bimodal" ->
      let* () = reject_unknown ctx [ "dist"; "short"; "long"; "p_long" ] fs in
      let* short = get_int ctx fs "short" ~default:100 in
      let* short = require_pos ctx "short" short in
      let* long = get_int ctx fs "long" ~default:2000 in
      let* long = require_pos ctx "long" long in
      let* p_long = get_float ctx fs "p_long" ~default:0.05 in
      let* p_long = require_prob ctx "p_long" p_long in
      Ok (OL.Bimodal { short; long; p_long })
  | "" -> Error "service: missing \"dist\""
  | k ->
      Error
        (Printf.sprintf
           "service: unknown dist %S (expected fixed, uniform, exponential \
            or bimodal)"
           k)

let open_spec_of_json v =
  let ctx = "scenario" in
  let d = default_open_spec in
  let* fs = fields ctx v in
  let* () =
    reject_unknown ctx
      [
        "schema"; "name"; "queue"; "workers"; "requests"; "chain"; "seed";
        "capacity"; "policy"; "tick_ns"; "arrival"; "service"; "slo";
      ]
      fs
  in
  let* schema = get_str ctx fs "schema" ~default:"" in
  let* () =
    if schema = open_schema then Ok ()
    else
      Error
        (Printf.sprintf "scenario: \"schema\" must be %S (got %S)" open_schema
           schema)
  in
  let* sc_name = get_str ctx fs "name" ~default:d.sc_name in
  let* sc_queue = get_str ctx fs "queue" ~default:d.sc_queue in
  let* () =
    if List.mem sc_queue Ws_core.Registry.names then Ok ()
    else
      Error
        (Printf.sprintf "scenario: unknown queue %S (expected one of %s)"
           sc_queue
           (String.concat ", " Ws_core.Registry.names))
  in
  let* sc_workers = get_int ctx fs "workers" ~default:d.sc_workers in
  let* sc_workers = require_pos ctx "workers" sc_workers in
  let* sc_workers = require_at_most ctx "workers" max_workers sc_workers in
  let* sc_requests = get_int ctx fs "requests" ~default:d.sc_requests in
  let* sc_requests = require_pos ctx "requests" sc_requests in
  let* sc_requests = require_at_most ctx "requests" max_requests sc_requests in
  let* sc_chain = get_int ctx fs "chain" ~default:d.sc_chain in
  let* sc_chain = require_pos ctx "chain" sc_chain in
  let* sc_chain =
    require_at_most ctx "chain"
      ~what:(Printf.sprintf " for %d requests" sc_requests)
      (max_chain ~requests:sc_requests)
      sc_chain
  in
  let* sc_seed = get_int ctx fs "seed" ~default:d.sc_seed in
  let* sc_capacity = get_int ctx fs "capacity" ~default:d.sc_capacity in
  let* sc_capacity = require_pos ctx "capacity" sc_capacity in
  let* () =
    (* [open_config] keeps the engine's task arrays, and the injector must
       fit in one *)
    let cells = Ws_runtime.Open_system.default_config.queue_capacity in
    if sc_capacity < cells then Ok ()
    else
      Error
        (Printf.sprintf "%s: \"capacity\" must be below %d (got %d)" ctx cells
           sc_capacity)
  in
  let* policy_s =
    get_str ctx fs "policy"
      ~default:(match d.sc_policy with OL.Drop -> "drop" | OL.Block -> "block")
  in
  let* sc_policy =
    match policy_s with
    | "drop" -> Ok OL.Drop
    | "block" -> Ok OL.Block
    | p ->
        Error
          (Printf.sprintf "scenario: unknown policy %S (expected drop or block)"
             p)
  in
  let* sc_tick_ns = get_int ctx fs "tick_ns" ~default:d.sc_tick_ns in
  let* sc_tick_ns = require_pos ctx "tick_ns" sc_tick_ns in
  let* sc_arrival =
    match List.assoc_opt "arrival" fs with
    | None -> Ok d.sc_arrival
    | Some v -> arrival_of_json v
  in
  let* sc_service =
    match List.assoc_opt "service" fs with
    | None -> Ok d.sc_service
    | Some v -> service_of_json v
  in
  let* sc_slo =
    match List.assoc_opt "slo" fs with
    | None -> Ok None
    | Some v ->
        let* slo = slo_of_json v in
        Ok (Some slo)
  in
  Ok
    {
      sc_name; sc_queue; sc_workers; sc_requests; sc_chain; sc_seed;
      sc_capacity; sc_policy; sc_tick_ns; sc_arrival; sc_service; sc_slo;
    }

(* --- SLO verdicts ---------------------------------------------------- *)

(* One judged budget: a per-window sojourn row, a whole-run stage row, or
   the drop-rate row. The row form is shared by the sim sweep (budgets in
   ticks) and the native replay (converted to ns), so both print the same
   table shape. *)
type verdict = {
  vd_load : string;  (* sweep point label, "-" for a single run *)
  vd_window : string;  (* window index, "-" for whole-run budgets *)
  vd_metric : string;
  vd_actual : string;
  vd_budget : string;
  vd_ok : bool;
}

let verdicts_ok vs = List.for_all (fun v -> v.vd_ok) vs

let render_verdicts ~name ~units vs =
  let header = [ "load"; "window"; "metric"; "actual"; "budget"; "verdict" ] in
  let rows =
    List.map
      (fun v ->
        [
          v.vd_load; v.vd_window; v.vd_metric; v.vd_actual; v.vd_budget;
          (if v.vd_ok then "ok" else "FAIL");
        ])
      vs
  in
  let violations = List.length (List.filter (fun v -> not v.vd_ok) vs) in
  Printf.sprintf "== SLO verdicts: %s (budgets in %s) ==\n%s%s\n" name units
    (Tablefmt.render ~header rows)
    (if violations = 0 then "SLO: PASS"
     else Printf.sprintf "SLO: FAIL (%d violation%s)" violations
         (if violations = 1 then "" else "s"))

let load_open_spec path =
  match J.parse_file path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok v -> (
      match open_spec_of_json v with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok s -> Ok s)

let open_config s =
  let slo = Option.value ~default:default_slo s.sc_slo in
  {
    Ws_runtime.Open_system.default_config with
    Ws_runtime.Open_system.workers = s.sc_workers;
    queue = Ws_core.Registry.find s.sc_queue;
    seed = s.sc_seed;
    requests = s.sc_requests;
    chain = s.sc_chain;
    arrival = s.sc_arrival;
    service = s.sc_service;
    capacity = s.sc_capacity;
    policy = s.sc_policy;
    window = slo.slo_window;
    window_slots = slo.slo_window_slots;
  }
