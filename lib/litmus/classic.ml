open Tso

type verdict = Allowed | Forbidden

type t = {
  name : string;
  description : string;
  verdict : verdict;
  mk : unit -> Explore.instance;
}

(* Build a litmus instance: [threads] is a list of programs over the two
   (or more) shared cells; [observed] inspects host registers and final
   memory and returns true iff the outcome of interest happened. The
   instance's check returns Error on observation, so explorer "failures"
   are sightings. *)
let instance ~cells ~threads ~observed () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let mem = Machine.memory m in
  let addrs = List.map (fun name -> Memory.alloc mem ~name ~init:0) cells in
  let regs = Hashtbl.create 8 in
  let reg name = Option.value ~default:(-1) (Hashtbl.find_opt regs name) in
  let setr name v = Hashtbl.replace regs name v in
  List.iteri
    (fun i prog ->
      ignore
        (Machine.spawn m ~name:(Printf.sprintf "t%d" i) (fun () ->
             prog addrs setr)))
    threads;
  let check () =
    let final a = Memory.get mem a in
    if observed ~reg ~final ~addrs then Error "outcome observed" else Ok ()
  in
  { Explore.machine = m; check }

let nth = List.nth

let sb ~fences =
  let prog other mine r addrs setr =
    Program.store (nth addrs mine) 1;
    if fences then Program.fence ();
    setr r (Program.load (nth addrs other))
  in
  instance ~cells:[ "x"; "y" ]
    ~threads:[ prog 1 0 "r0"; prog 0 1 "r1" ]
    ~observed:(fun ~reg ~final:_ ~addrs:_ -> reg "r0" = 0 && reg "r1" = 0)

let sb_rmw =
  (* the locked RMW flushes the buffer, acting as the fence *)
  let prog other mine scratch r addrs setr =
    Program.store (nth addrs mine) 1;
    ignore (Program.cas (nth addrs scratch) ~expect:0 ~replace:1);
    setr r (Program.load (nth addrs other))
  in
  instance
    ~cells:[ "x"; "y"; "z"; "w" ]
    ~threads:[ prog 1 0 2 "r0"; prog 0 1 3 "r1" ]
    ~observed:(fun ~reg ~final:_ ~addrs:_ -> reg "r0" = 0 && reg "r1" = 0)

let mp =
  (* message passing: stores are not reordered with stores, loads not with
     loads, so seeing the flag implies seeing the data *)
  instance ~cells:[ "data"; "flag" ]
    ~threads:
      [
        (fun addrs _ ->
          Program.store (nth addrs 0) 1;
          Program.store (nth addrs 1) 1);
        (fun addrs setr ->
          setr "f" (Program.load (nth addrs 1));
          setr "d" (Program.load (nth addrs 0)));
      ]
    ~observed:(fun ~reg ~final:_ ~addrs:_ -> reg "f" = 1 && reg "d" = 0)

let lb =
  (* load buffering: requires load/store reordering, impossible under TSO *)
  instance ~cells:[ "x"; "y" ]
    ~threads:
      [
        (fun addrs setr ->
          setr "r0" (Program.load (nth addrs 0));
          Program.store (nth addrs 1) 1);
        (fun addrs setr ->
          setr "r1" (Program.load (nth addrs 1));
          Program.store (nth addrs 0) 1);
      ]
    ~observed:(fun ~reg ~final:_ ~addrs:_ -> reg "r0" = 1 && reg "r1" = 1)

let n6 =
  (* Sewell et al.'s n6: store forwarding lets t0 read its own buffered
     x=1 while y's store is still invisible, and t1's x=2 can be overwritten
     by t0's buffered x=1 draining later *)
  instance ~cells:[ "x"; "y" ]
    ~threads:
      [
        (fun addrs setr ->
          Program.store (nth addrs 0) 1;
          setr "r0" (Program.load (nth addrs 0));
          setr "r1" (Program.load (nth addrs 1)));
        (fun addrs _ ->
          Program.store (nth addrs 1) 2;
          Program.store (nth addrs 0) 2);
      ]
    ~observed:(fun ~reg ~final ~addrs ->
      reg "r0" = 1 && reg "r1" = 0 && final (nth addrs 0) = 1)

let n5 =
  (* two threads storing to the same location cannot each read the other's
     value: forwarding forces a thread to see at least its own store *)
  instance ~cells:[ "x" ]
    ~threads:
      [
        (fun addrs setr ->
          Program.store (nth addrs 0) 1;
          setr "r0" (Program.load (nth addrs 0)));
        (fun addrs setr ->
          Program.store (nth addrs 0) 2;
          setr "r1" (Program.load (nth addrs 0)));
      ]
    ~observed:(fun ~reg ~final:_ ~addrs:_ -> reg "r0" = 2 && reg "r1" = 1)

let iriw =
  (* independent reads of independent writes: forbidden under TSO because
     stores hit memory in a single total order *)
  instance ~cells:[ "x"; "y" ]
    ~threads:
      [
        (fun addrs _ -> Program.store (nth addrs 0) 1);
        (fun addrs _ -> Program.store (nth addrs 1) 1);
        (fun addrs setr ->
          setr "a" (Program.load (nth addrs 0));
          setr "b" (Program.load (nth addrs 1)));
        (fun addrs setr ->
          setr "c" (Program.load (nth addrs 1));
          setr "d" (Program.load (nth addrs 0)));
      ]
    ~observed:(fun ~reg ~final:_ ~addrs:_ ->
      reg "a" = 1 && reg "b" = 0 && reg "c" = 1 && reg "d" = 0)

let store_forwarding =
  (* a thread always sees its own latest buffered store *)
  instance ~cells:[ "x" ]
    ~threads:
      [
        (fun addrs setr ->
          Program.store (nth addrs 0) 1;
          Program.store (nth addrs 0) 2;
          setr "r0" (Program.load (nth addrs 0)));
      ]
    ~observed:(fun ~reg ~final:_ ~addrs:_ -> reg "r0" <> 2)

let rmw_atomic =
  (* two increments via CAS retry loops must not be lost *)
  instance ~cells:[ "x" ]
    ~threads:
      (List.init 2 (fun _ ->
           fun addrs _ ->
            let rec inc () =
              let v = Program.load (nth addrs 0) in
              if not (Program.cas (nth addrs 0) ~expect:v ~replace:(v + 1)) then begin
                Program.spin_pause ();
                inc ()
              end
            in
            inc ()))
    ~observed:(fun ~reg:_ ~final ~addrs -> final (nth addrs 0) <> 2)

let all =
  [
    {
      name = "SB";
      description = "store buffering: both loads read 0";
      verdict = Allowed;
      mk = sb ~fences:false;
    };
    {
      name = "SB+fences";
      description = "store buffering with MFENCEs: both loads read 0";
      verdict = Forbidden;
      mk = sb ~fences:true;
    };
    {
      name = "SB+rmw";
      description = "store buffering with locked RMWs: both loads read 0";
      verdict = Forbidden;
      mk = sb_rmw;
    };
    {
      name = "MP";
      description = "message passing: flag seen but data missed";
      verdict = Forbidden;
      mk = mp;
    };
    {
      name = "LB";
      description = "load buffering: both loads see the other's later store";
      verdict = Forbidden;
      mk = lb;
    };
    {
      name = "n6";
      description = "forwarding + late drain overwrite (Sewell et al. n6)";
      verdict = Allowed;
      mk = n6;
    };
    {
      name = "n5";
      description = "same-address cross reads (Sewell et al. n5)";
      verdict = Forbidden;
      mk = n5;
    };
    {
      name = "IRIW";
      description = "independent readers disagree on the store order";
      verdict = Forbidden;
      mk = iriw;
    };
    {
      name = "store-forwarding";
      description = "a thread misses its own newest buffered store";
      verdict = Forbidden;
      mk = store_forwarding;
    };
    {
      name = "rmw-atomic";
      description = "a CAS-loop increment is lost";
      verdict = Forbidden;
      mk = rmw_atomic;
    };
  ]

let find name = List.find (fun t -> String.equal t.name name) all

type result = {
  test : t;
  observed : bool;
  runs : int;
  exhausted : bool;
  ok : bool;
  memo_lookups : int;
  memo_hits : int;
}

let run ?(max_runs = 400_000) ?(memo = false) ?(por = false)
    ?(dpor = false) ?memo_dir ?(snapshots = true) test =
  let memo_store =
    match memo_dir with
    | None -> None
    | Some dir -> (
        (* One store per test, under [dir]: every test is its own machine
           configuration, so each pins its own header. *)
        let path = Filename.concat dir test.name in
        match
          Tso.Memo_store.open_ ~path ~config:("tso-litmus/" ^ test.name)
            ~max_depth:Explore.default_max_depth ~preemption_bound:None ~por
            ~dpor ()
        with
        | Ok store -> Some store
        | Error e -> failwith e)
  in
  let st =
    Explore.search ~max_runs ~memo ~por ~dpor ?memo_store ~snapshots
      ~mk:test.mk ()
  in
  let observed = st.Explore.failures <> [] in
  let exhausted = st.Explore.complete && st.Explore.truncated = 0 in
  let ok =
    match test.verdict with
    | Allowed -> observed
    | Forbidden -> (not observed) && exhausted
  in
  let memo_lookups, memo_hits =
    match memo_store with
    | None -> (0, 0)
    | Some store -> (Tso.Memo_store.lookups store, Tso.Memo_store.hits store)
  in
  { test; observed; runs = st.Explore.runs; exhausted; ok; memo_lookups; memo_hits }

let run_all ?max_runs ?memo ?por ?dpor ?memo_dir ?snapshots () =
  List.map (fun t -> run ?max_runs ?memo ?por ?dpor ?memo_dir ?snapshots t) all

let pp_result ppf r =
  Format.fprintf ppf "%-18s %-9s %-12s %7d runs%s  %s" r.test.name
    (match r.test.verdict with Allowed -> "allowed" | Forbidden -> "forbidden")
    (if r.observed then "observed" else "not observed")
    r.runs
    (if r.exhausted then " (exhaustive)" else "")
    (if r.ok then "OK" else "** MODEL VIOLATION **")
