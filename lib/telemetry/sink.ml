(* The cross-layer counter set. One sink is typically attached to one
   simulated machine (and threaded to the timing engine and the runtime
   driving it); layers write their own fields:

   - machine layer: instruction/transition counters, store-buffer occupancy;
   - timing layer: stall-cycle attribution;
   - queue layer (via Registry's counting wrapper and the fence-free
     algorithms' delta checks): operation and outcome counters;
   - runtime layer: task-level counters folded in from Metrics.

   Everything is a plain mutable int (or a Histogram), so the attached-sink
   hot path costs one or two increments per event and nothing allocates. *)

type t = {
  (* machine layer: executed instructions by class, applied transitions *)
  mutable loads : int;
  mutable stores : int;
  mutable cas : int;
  mutable fetch_adds : int;
  mutable fences : int;
  mutable drains : int;  (* drain transitions: a store left the buffer proper *)
  mutable flushes : int;  (* egress-buffer B writes to memory *)
  mutable coalesces : int;  (* drains that coalesced into B in place *)
  mutable steps : int;  (* all applied transitions *)
  sb_occupancy : Histogram.t;  (* buffer-proper entries, sampled per store *)
  egress_depth : Histogram.t;  (* B occupancy (0/1), sampled per drain *)
  (* timing layer *)
  mutable fence_stall_cycles : int;  (* cycles fences/RMWs waited on drains *)
  mutable drain_stall_cycles : int;  (* cycles stores waited on a full buffer *)
  (* queue layer *)
  mutable puts : int;
  mutable takes : int;
  mutable take_empties : int;
  mutable steal_attempts : int;
  mutable steals : int;
  mutable steal_empties : int;
  mutable steal_aborts : int;
  mutable delta_checks : int;  (* t - delta > h certifications attempted *)
  (* runtime layer *)
  mutable tasks_run : int;
  mutable tasks_stolen : int;
  mutable parks : int;  (* worker park episodes (native pool sleepers) *)
  (* explorer layer *)
  mutable por_sleep_skips : int;  (* transitions skipped by sleep-set POR *)
  mutable snapshot_restores : int;  (* Machine.restore_into calls *)
  (* forensics layer *)
  mutable shrink_iterations : int;  (* ddmin oracle replays *)
  mutable witness_events : int;  (* reorder witnesses extracted *)
  mutable forensics_report_bytes : int;  (* bytes of emitted reports *)
}

let create () =
  {
    loads = 0;
    stores = 0;
    cas = 0;
    fetch_adds = 0;
    fences = 0;
    drains = 0;
    flushes = 0;
    coalesces = 0;
    steps = 0;
    sb_occupancy = Histogram.create ();
    egress_depth = Histogram.create ();
    fence_stall_cycles = 0;
    drain_stall_cycles = 0;
    puts = 0;
    takes = 0;
    take_empties = 0;
    steal_attempts = 0;
    steals = 0;
    steal_empties = 0;
    steal_aborts = 0;
    delta_checks = 0;
    tasks_run = 0;
    tasks_stolen = 0;
    parks = 0;
    por_sleep_skips = 0;
    snapshot_restores = 0;
    shrink_iterations = 0;
    witness_events = 0;
    forensics_report_bytes = 0;
  }

let reset t =
  t.loads <- 0;
  t.stores <- 0;
  t.cas <- 0;
  t.fetch_adds <- 0;
  t.fences <- 0;
  t.drains <- 0;
  t.flushes <- 0;
  t.coalesces <- 0;
  t.steps <- 0;
  Histogram.reset t.sb_occupancy;
  Histogram.reset t.egress_depth;
  t.fence_stall_cycles <- 0;
  t.drain_stall_cycles <- 0;
  t.puts <- 0;
  t.takes <- 0;
  t.take_empties <- 0;
  t.steal_attempts <- 0;
  t.steals <- 0;
  t.steal_empties <- 0;
  t.steal_aborts <- 0;
  t.delta_checks <- 0;
  t.tasks_run <- 0;
  t.tasks_stolen <- 0;
  t.parks <- 0;
  t.por_sleep_skips <- 0;
  t.snapshot_restores <- 0;
  t.shrink_iterations <- 0;
  t.witness_events <- 0;
  t.forensics_report_bytes <- 0

let merge ~into src =
  into.loads <- into.loads + src.loads;
  into.stores <- into.stores + src.stores;
  into.cas <- into.cas + src.cas;
  into.fetch_adds <- into.fetch_adds + src.fetch_adds;
  into.fences <- into.fences + src.fences;
  into.drains <- into.drains + src.drains;
  into.flushes <- into.flushes + src.flushes;
  into.coalesces <- into.coalesces + src.coalesces;
  into.steps <- into.steps + src.steps;
  Histogram.merge ~into:into.sb_occupancy src.sb_occupancy;
  Histogram.merge ~into:into.egress_depth src.egress_depth;
  into.fence_stall_cycles <- into.fence_stall_cycles + src.fence_stall_cycles;
  into.drain_stall_cycles <- into.drain_stall_cycles + src.drain_stall_cycles;
  into.puts <- into.puts + src.puts;
  into.takes <- into.takes + src.takes;
  into.take_empties <- into.take_empties + src.take_empties;
  into.steal_attempts <- into.steal_attempts + src.steal_attempts;
  into.steals <- into.steals + src.steals;
  into.steal_empties <- into.steal_empties + src.steal_empties;
  into.steal_aborts <- into.steal_aborts + src.steal_aborts;
  into.delta_checks <- into.delta_checks + src.delta_checks;
  into.tasks_run <- into.tasks_run + src.tasks_run;
  into.tasks_stolen <- into.tasks_stolen + src.tasks_stolen;
  into.parks <- into.parks + src.parks;
  into.por_sleep_skips <- into.por_sleep_skips + src.por_sleep_skips;
  into.snapshot_restores <- into.snapshot_restores + src.snapshot_restores;
  into.shrink_iterations <- into.shrink_iterations + src.shrink_iterations;
  into.witness_events <- into.witness_events + src.witness_events;
  into.forensics_report_bytes <-
    into.forensics_report_bytes + src.forensics_report_bytes

(* The canonical field order of every export; extend here and every
   consumer (JSON sidecars, pp, the metrics schema test) follows. *)
let fields t =
  [
    ("loads", t.loads);
    ("stores", t.stores);
    ("cas", t.cas);
    ("fetch_adds", t.fetch_adds);
    ("fences", t.fences);
    ("drains", t.drains);
    ("flushes", t.flushes);
    ("coalesces", t.coalesces);
    ("steps", t.steps);
    ("fence_stall_cycles", t.fence_stall_cycles);
    ("drain_stall_cycles", t.drain_stall_cycles);
    ("puts", t.puts);
    ("takes", t.takes);
    ("take_empties", t.take_empties);
    ("steal_attempts", t.steal_attempts);
    ("steals", t.steals);
    ("steal_empties", t.steal_empties);
    ("steal_aborts", t.steal_aborts);
    ("delta_checks", t.delta_checks);
    ("tasks_run", t.tasks_run);
    ("tasks_stolen", t.tasks_stolen);
    ("parks", t.parks);
    ("por_sleep_skips", t.por_sleep_skips);
    ("snapshot_restores", t.snapshot_restores);
    ("shrink_iterations", t.shrink_iterations);
    ("witness_events", t.witness_events);
    ("forensics_report_bytes", t.forensics_report_bytes);
  ]

let sb_occupancy t = t.sb_occupancy
let egress_depth t = t.egress_depth

let to_json t =
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Int v)) (fields t)
    @ [
        ("sb_occupancy", Histogram.to_json t.sb_occupancy);
        ("egress_depth", Histogram.to_json t.egress_depth);
      ])

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (k, v) -> if v <> 0 then Format.fprintf ppf "%-20s %d@," k v)
    (fields t);
  if Histogram.total t.sb_occupancy > 0 then
    Format.fprintf ppf "%-20s %a@," "sb_occupancy" Histogram.pp t.sb_occupancy;
  Format.fprintf ppf "@]"
