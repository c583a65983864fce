open Explore.Internal

(* A pending subtree: the prefix that reaches it plus the CHESS summary of
   that prefix and the sleep set it inherited (always [] unless POR is
   on) — sleep sets travel with frontier tasks. *)
type task = {
  prefix : Prefix.t;
  depth : int;
  last_unit : Explore.unit_id option;
  preemptions : int;
  sleep : sleep_entry list;
  mass : float;
      (** Knuth tree-mass share of this subtree (root task = 1.0); split
          evenly among children at frontier branch nodes, exactly as the
          sequential search splits it at its own branch nodes *)
}

(* The immediate outcomes of expanding a task by one branching level, in
   lexicographic (= sequential DFS) order: outcomes already decided during
   expansion, and subtrees still to explore. Keeping the order is what
   makes the merged result byte-identical to the sequential search. *)
type item = Settled of acc | Subtree of task

type cfg = {
  mk : unit -> Explore.instance;
  max_depth : int;
  preemption_bound : int option;
  max_failures : int;
  memo : memo option;
  on_run : acc -> unit;
  por : bool;
  dpor : bool;
  snapshots : bool;
}

let make_ctx cfg acc inst =
  {
    mk = cfg.mk;
    max_depth = cfg.max_depth;
    preemption_bound = cfg.preemption_bound;
    max_failures = cfg.max_failures;
    memo = cfg.memo;
    acc;
    on_run = cfg.on_run;
    pool = pool_create ();
    por = cfg.por;
    dpor =
      (* Each task gets fresh DPOR state: races between a task's subtree
         and its prefix need no tracking because every frontier split node
         enumerates all of its children (the unreduced sound baseline), so
         the reversals those races would demand are explored anyway. *)
      (if cfg.dpor then
         Some
           (dpor_create
              ~nthreads:(Machine.thread_count inst.Explore.machine))
       else None);
    use_snapshots = cfg.snapshots;
    spool = spool_create ();
    mass = 1.0;
  }

(* One visited-state cache shared by every domain, sharded by fingerprint
   hash so concurrent lookups rarely contend on the same lock. Sharing the
   cache is what lets parallel memoized search prune interleavings that
   converge across subtree boundaries — with per-task caches most of the
   memoization benefit evaporates. The price is that [runs]/[memo_hits]
   become schedule-dependent (whichever domain reaches a state first records
   it); verdicts are unaffected because a state is only ever pruned after
   some domain has committed to exploring it with at least as much remaining
   budget. *)
let shared_memo () =
  let n_shards = 64 in
  let shards =
    Array.init n_shards (fun _ -> (Mutex.create (), Hashtbl.create 256))
  in
  {
    seen =
      (fun fp ~depth_rem ~preempt_rem ->
        (* The fingerprint is already a mixed hash; its low bits pick the
           shard directly. *)
        let lock, tbl = shards.(fp land (n_shards - 1)) in
        Mutex.lock lock;
        let hit = memo_tbl_check tbl fp ~depth_rem ~preempt_rem in
        Mutex.unlock lock;
        hit);
  }

(* Sleep-skip accounting outside a ctx (frontier expansion): mirror
   [Explore.Internal.sleep_skip]. *)
let skip_one (acc : acc) m =
  acc.sleep_skips <- acc.sleep_skips + 1;
  match Machine.sink m with
  | None -> ()
  | Some s ->
      s.Telemetry.Sink.por_sleep_skips <- s.Telemetry.Sink.por_sleep_skips + 1

(* Expand one task by one branching level, on [inst], the task's replayed
   prefix: walk forced (singleton-choice) steps in place, and split at the
   first node with a real choice. Terminal nodes are settled through
   [extend] itself so their accounting (check, fail, run counting) is
   exactly the sequential one. *)
let split cfg task inst =
  let prefix = task.prefix in
  let terminal depth last_unit sleep =
    let acc = make_acc () in
    let ctx = make_ctx cfg acc inst in
    ctx.mass <- task.mass;
    (try extend ctx inst prefix depth last_unit task.preemptions sleep
     with Explore.Stop -> ());
    [ Settled acc ]
  in
  let rec walk depth last_unit sleep =
    let m = inst.Explore.machine in
    match Explore.next_choices m with
    | [] -> terminal depth last_unit sleep
    | _ when depth >= cfg.max_depth -> terminal depth last_unit sleep
    | [ tr ] ->
        if cfg.por && sleep_mem sleep tr then begin
          (* The sequential search backtracks here without completing a
             run; settle the subtree with exactly that accounting. *)
          let acc = make_acc () in
          acc.peak_depth <- depth;
          acc.covered <- task.mass;
          skip_one acc m;
          [ Settled acc ]
        end
        else begin
          let sleep =
            if cfg.por && sleep <> [] then
              sleep_filter sleep (Machine.footprint m tr)
            else sleep
          in
          Machine.apply m tr;
          Prefix.push prefix 0 tr;
          let last_unit =
            match Explore.unit_of tr with
            | U_memory -> last_unit
            | u -> Some u
          in
          walk (depth + 1) last_unit sleep
        end
    | ts ->
        let node = make_acc () in
        (* This branching node is visited here, not by [extend]; account its
           depth so the merged depth frontier matches the sequential search
           even when every child is pruned by the preemption bound. *)
        node.peak_depth <- depth;
        (* The frontier split node is a branch node of the sequential tree:
           its mass splits evenly among the children, and children settled
           here (slept, pruned) credit their share to the split node's
           accumulator. *)
        let cmass = task.mass /. float_of_int (List.length ts) in
        (* Footprints are a function of this node's state; take them before
           building children. *)
        let fps =
          if cfg.por then Array.of_list (List.map (Machine.footprint m) ts)
          else [||]
        in
        let sleep_now = ref sleep in
        let children = ref [] in
        List.iteri
          (fun i tr ->
            if cfg.por && sleep_mem !sleep_now tr then begin
              node.covered <- node.covered +. cmass;
              skip_one node m
            end
            else begin
              let cost = preemption_cost ~last_unit ~choices:ts tr in
              let within =
                match cfg.preemption_bound with
                | None -> true
                | Some b -> task.preemptions + cost <= b
              in
              if not within then begin
                node.covered <- node.covered +. cmass;
                node.pruned <- node.pruned + 1
              end
              else begin
                Prefix.push prefix i tr;
                let child_prefix = Prefix.copy prefix in
                Prefix.pop prefix;
                let child_sleep =
                  if cfg.por then sleep_filter !sleep_now fps.(i) else []
                in
                children :=
                  Subtree
                    {
                      prefix = child_prefix;
                      depth = depth + 1;
                      last_unit =
                        (match Explore.unit_of tr with
                        | U_memory -> last_unit
                        | u -> Some u);
                      preemptions = task.preemptions + cost;
                      sleep = child_sleep;
                      mass = cmass;
                    }
                  :: !children;
                (* Under no preemption bound a fully explored child always
                   enters the sleep set, so the insertion can happen at
                   expansion time, before the subtree runs — the frontier
                   split applies byte-identical reductions to the
                   sequential search's. Under a bound the sequential rule
                   depends on the subtree's outcome, unknown here, so
                   nothing is inserted at frontier branch nodes: verdicts
                   are unaffected, but [runs]/[sleep_skips] can exceed the
                   sequential POR search's. (With [dpor] the split node is
                   the unreduced baseline either way: all children are
                   kept, and the reduction happens inside each subtree.) *)
                if cfg.por && cfg.preemption_bound = None then
                  sleep_now := { sl_tr = tr; sl_fp = fps.(i) } :: !sleep_now
              end
            end)
          ts;
        let children = List.rev !children in
        if node.pruned > 0 || node.sleep_skips > 0 then Settled node :: children
        else children
  in
  walk task.depth task.last_unit task.sleep

(* The task's root is built here, so it is released here on every exit;
   each child task replays its own. *)
let expand cfg task =
  let inst = Prefix.replay ~mk:cfg.mk task.prefix in
  Fun.protect
    ~finally:(fun () -> Machine.release inst.Explore.machine)
    (fun () -> split cfg task inst)

let run_task cfg task =
  let acc = make_acc () in
  let inst = Prefix.replay ~mk:cfg.mk task.prefix in
  let ctx = make_ctx cfg acc inst in
  ctx.mass <- task.mass;
  Fun.protect
    ~finally:(fun () -> Machine.release inst.Explore.machine)
    (fun () ->
      try
        extend ctx inst task.prefix task.depth task.last_unit
          task.preemptions task.sleep
      with Explore.Stop -> ());
  acc

let merge ~max_failures accs =
  let merged = make_acc () in
  List.iter
    (fun (a : acc) ->
      (* Every per-subtree accumulator is folded in full. The former code
         dropped whole accumulators once the run budget was reached, so
         with [--jobs N] a binding budget silently discarded the statistics
         (and recorded failures!) of entire explored subtrees. The global
         budget is enforced during the search by the shared run counter;
         the merge only has to report what was actually explored — which
         may slightly exceed [max_runs], exactly as the caller's domains
         did. When the budget does not bind, totals are exact and
         byte-identical to the sequential search. *)
      merged.runs <- merged.runs + a.runs;
      merged.truncated <- merged.truncated + a.truncated;
      merged.deadlocks <- merged.deadlocks + a.deadlocks;
      merged.pruned <- merged.pruned + a.pruned;
      merged.memo_hits <- merged.memo_hits + a.memo_hits;
      merged.sleep_skips <- merged.sleep_skips + a.sleep_skips;
      merged.peak_depth <- max merged.peak_depth a.peak_depth;
      merged.covered <- merged.covered +. a.covered;
      List.iter
        (fun f ->
          if merged.failure_count < max_failures then begin
            merged.failures_rev <- f :: merged.failures_rev;
            merged.failure_count <- merged.failure_count + 1
          end)
        (List.rev a.failures_rev))
    accs;
  merged

type progress = {
  tasks_done : int;
  tasks_total : int;
  total_runs : int;
  domains : int;
  covered : float;
}

type frontier_stats = {
  fr_domains : int;
  fr_tasks : int;
  fr_splits : int;
  fr_steals : int;
  fr_steal_attempts : int;
  fr_runs_per_domain : int array;
  fr_tasks_per_domain : int array;
}

let sequential_frontier_stats runs =
  {
    fr_domains = 1;
    fr_tasks = 1;
    fr_splits = 0;
    fr_steals = 0;
    fr_steal_attempts = 0;
    fr_runs_per_domain = [| runs |];
    fr_tasks_per_domain = [| 1 |];
  }

(* The dynamic frontier is a tree of tasks. A node with split budget left
   is expanded by one branching level and its subtree children become new
   nodes (budget - 1); a node without budget is explored in place by the
   sequential core. The tree records every outcome at the position the
   sequential DFS would visit it, so the merge — a lexicographic walk of
   the tree — is independent of which domain ran what in which order:
   the byte-identical contracts carry over from the static frontier. *)
type tnode = {
  t_task : task;
  t_budget : int;
  mutable t_items : titem list;  (** set once, by the processing domain *)
  mutable t_acc : acc option;  (** set once, if explored as a leaf *)
}

and titem = T_settled of acc | T_child of tnode

(* ceil(log2 (4 * jobs)) branch levels of splitting gives at least 4
   subtrees per domain under any branching >= 2 — enough slack for the
   deques to balance uneven subtree sizes. *)
let split_budget jobs =
  let target = 4 * jobs in
  let rec go b c = if c >= target then b else go (b + 1) (2 * c) in
  go 0 1

let search_with_frontier ?(max_depth = Explore.default_max_depth)
    ?(max_runs = 200_000) ?(preemption_bound = None) ?(max_failures = 5)
    ?(memo = false) ?(por = false) ?(dpor = false) ?memo_store
    ?(snapshots = true) ?jobs ?on_progress ?(progress_every = 4096) ~mk () =
  let jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> Domain.recommended_domain_count ()
  in
  if jobs = 1 then begin
    let st =
      Explore.search ~max_depth ~max_runs ~preemption_bound ~max_failures
        ~memo ~por ~dpor ?memo_store ~snapshots
        ?on_progress:
          (Option.map
             (fun f (s : Explore.stats) ->
               f
                 {
                   tasks_done = 0;
                   tasks_total = 1;
                   total_runs = s.Explore.runs;
                   domains = 1;
                   covered = s.Explore.covered;
                 })
             on_progress)
        ~progress_every ~mk ()
    in
    (st, sequential_frontier_stats st.Explore.runs)
  end
  else begin
    let por = por || dpor in
    let total_runs = Atomic.make 0 in
    let tasks_done = Atomic.make 0 in
    let tasks_total = Atomic.make 1 in
    let stopped = Atomic.make false in
    (* Live covered-mass accumulator, as a fixed-point integer so every
       domain can add its retired tasks' shares atomically. Coarser than
       the sequential estimate (tasks credit only on retirement), but the
       split budget guarantees >= 4*jobs tasks, so it moves. *)
    let covered_scale = 1073741824.0 (* 2^30 *) in
    let covered_fp = Atomic.make 0 in
    let credit_live (a : acc) =
      let fp = int_of_float (a.covered *. covered_scale) in
      if fp > 0 then ignore (Atomic.fetch_and_add covered_fp fp)
    in
    let progress_every = max 1 progress_every in
    (* Progress is observed only from the initial domain (the one that
       called [search]): the reporter callback is not required to be
       thread-safe. The counters it reads are global atomics, so the
       snapshot covers every domain's work, sampled at the granularity of
       the initial domain's own completed runs. *)
    let main_domain = Domain.self () in
    let on_run (a : acc) =
      a.runs <- a.runs + 1;
      let total = Atomic.fetch_and_add total_runs 1 + 1 in
      (match on_progress with
      | Some f
        when Domain.self () = main_domain && total mod progress_every = 0 ->
          f
            {
              tasks_done = Atomic.get tasks_done;
              tasks_total = Atomic.get tasks_total;
              total_runs = total;
              domains = jobs;
              covered =
                min 1.0 (float_of_int (Atomic.get covered_fp) /. covered_scale);
            }
      | _ -> ());
      if total >= max_runs then begin
        Atomic.set stopped true;
        raise Explore.Stop
      end
    in
    let memo_impl =
      match memo_store with
      | Some store ->
          Some
            {
              seen =
                (fun fp ~depth_rem ~preempt_rem ->
                  Memo_store.seen store fp ~depth_rem ~preempt_rem);
            }
      | None -> if memo then Some (shared_memo ()) else None
    in
    let cfg =
      {
        mk = (if snapshots then recording_mk mk else mk);
        max_depth;
        preemption_bound;
        max_failures;
        memo = memo_impl;
        on_run;
        por;
        dpor;
        snapshots;
      }
    in
    let root =
      {
        t_task =
          {
            prefix = Prefix.create ();
            depth = 0;
            last_unit = None;
            preemptions = 0;
            sleep = [];
            mass = 1.0;
          };
        t_budget = split_budget jobs;
        t_items = [];
        t_acc = None;
      }
    in
    (* One work-stealing deque per domain (the repo's own Chase–Lev): each
       owner pushes the children it creates and pops LIFO; an idle domain
       steals FIFO from the others round-robin. [outstanding] counts nodes
       created but not fully processed — children are added before their
       parent is retired, so it only reaches 0 when the whole tree is
       done. *)
    let deques =
      Array.init jobs (fun _ -> Ws_native.Chase_lev.create ())
    in
    let outstanding = Atomic.make 1 in
    let steals = Array.make jobs 0 in
    let steal_attempts = Array.make jobs 0 in
    let splits = Array.make jobs 0 in
    let runs_d = Array.make jobs 0 in
    let tasks_d = Array.make jobs 0 in
    Ws_native.Chase_lev.push deques.(0) root;
    let process k node =
      tasks_d.(k) <- tasks_d.(k) + 1;
      if node.t_budget > 0 then begin
        splits.(k) <- splits.(k) + 1;
        let titems =
          List.map
            (function
              | Settled a ->
                  runs_d.(k) <- runs_d.(k) + a.runs;
                  credit_live a;
                  T_settled a
              | Subtree t ->
                  T_child
                    {
                      t_task = t;
                      t_budget = node.t_budget - 1;
                      t_items = [];
                      t_acc = None;
                    })
            (expand cfg node.t_task)
        in
        node.t_items <- titems;
        let children =
          List.filter_map
            (function T_child c -> Some c | T_settled _ -> None)
            titems
        in
        (match children with
        | [] -> ()
        | _ ->
            let nc = List.length children in
            ignore (Atomic.fetch_and_add outstanding nc);
            ignore (Atomic.fetch_and_add tasks_total nc);
            List.iter (fun c -> Ws_native.Chase_lev.push deques.(k) c) children)
      end
      else begin
        let a = run_task cfg node.t_task in
        runs_d.(k) <- runs_d.(k) + a.runs;
        credit_live a;
        node.t_acc <- Some a
      end;
      Atomic.incr tasks_done
    in
    let worker k =
      let grab () =
        match Ws_native.Chase_lev.pop deques.(k) with
        | Some _ as r -> r
        | None ->
            let rec from d =
              if d >= jobs then None
              else begin
                let v = (k + d) mod jobs in
                steal_attempts.(k) <- steal_attempts.(k) + 1;
                match Ws_native.Chase_lev.steal_retry deques.(v) with
                | Some _ as r ->
                    steals.(k) <- steals.(k) + 1;
                    r
                | None -> from (d + 1)
              end
            in
            from 1
      in
      let rec loop () =
        if Atomic.get outstanding > 0 then begin
          (match grab () with
          | Some node ->
              process k node;
              (* After [process]: any children are already counted, so the
                 counter cannot dip to 0 with work still pending. *)
              Atomic.decr outstanding
          | None -> Domain.cpu_relax ());
          loop ()
        end
      in
      loop ()
    in
    let domains =
      List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    List.iter Domain.join domains;
    (* Deterministic merge: a lexicographic walk of the task tree yields
       every accumulator in sequential DFS order, whatever the domain
       schedule was. *)
    let rec collect node =
      match node.t_acc with
      | Some a -> [ a ]
      | None ->
          List.concat_map
            (function T_settled a -> [ a ] | T_child c -> collect c)
            node.t_items
    in
    let st = stats_of_acc (merge ~max_failures (collect root)) in
    (* As in the sequential search: a run that was never stopped covered
       the whole tree; snap the float accumulation to the exact answer. *)
    let st =
      if Atomic.get stopped then st else { st with Explore.covered = 1.0 }
    in
    let st =
      match memo_store with
      | None -> st
      | Some store ->
          let failures =
            Memo_store.merge_failures store ~max_failures st.Explore.failures
          in
          if not (Atomic.get stopped) then begin
            match Memo_store.commit store ~failures with
            | Ok () -> ()
            | Error e -> failwith ("memo store commit failed: " ^ e)
          end;
          { st with Explore.failures }
    in
    let sum = Array.fold_left ( + ) 0 in
    ( st,
      {
        fr_domains = jobs;
        fr_tasks = sum tasks_d;
        fr_splits = sum splits;
        fr_steals = sum steals;
        fr_steal_attempts = sum steal_attempts;
        fr_runs_per_domain = runs_d;
        fr_tasks_per_domain = tasks_d;
      } )
  end

let frontier_to_sink fr (sink : Telemetry.Sink.t) =
  sink.Telemetry.Sink.frontier_tasks <-
    sink.Telemetry.Sink.frontier_tasks + fr.fr_tasks;
  sink.Telemetry.Sink.frontier_steals <-
    sink.Telemetry.Sink.frontier_steals + fr.fr_steals;
  sink.Telemetry.Sink.frontier_steal_attempts <-
    sink.Telemetry.Sink.frontier_steal_attempts + fr.fr_steal_attempts

let search ?max_depth ?max_runs ?preemption_bound ?max_failures ?memo ?por
    ?dpor ?memo_store ?snapshots ?jobs ?sink ?on_progress ?progress_every ~mk
    () =
  let st, fr =
    search_with_frontier ?max_depth ?max_runs ?preemption_bound ?max_failures
      ?memo ?por ?dpor ?memo_store ?snapshots ?jobs ?on_progress
      ?progress_every ~mk ()
  in
  (match sink with None -> () | Some s -> frontier_to_sink fr s);
  st
