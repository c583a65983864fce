(* The native (non-simulated) side of the library: a work-stealing pool of
   real OCaml 5 domains built on the Atomic-based deques.

   Run with:  dune exec examples/native_pool.exe

   (The deques here are the *fenced* algorithms: their take fence is the
   tail's Atomic.set, an xchg on amd64 (DESIGN.md §1). The fence-free
   algorithms live on the simulated machine. DESIGN.md §12 has the pool
   architecture: injector, parking, exception safety.) *)

let () =
  let pool = Ws_native.Pool.create ~domains:3 () in

  (* parallel naive fib on real domains *)
  let n = 30 in
  let t0 = Unix.gettimeofday () in
  let r = Ws_native.Pool.fib pool n in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "fib %d = %d (%.3fs on 3 workers + caller)\n" n r dt;

  (* parallel map via spawn *)
  let inputs = Array.init 64 (fun i -> i) in
  let outputs = Array.make 64 0 in
  Ws_native.Pool.parallel_run pool
    (List.init 64 (fun i () ->
         let rec slow_square x k = if k = 0 then x * x else slow_square x (k - 1) in
         outputs.(i) <- slow_square inputs.(i) 10_000));
  Printf.printf "parallel map ok: outputs.(7) = %d (expect 49)\n" outputs.(7);

  (* a raising task no longer hangs the pool: the run completes and the
     first failure is re-raised at the join point *)
  (match
     Ws_native.Pool.parallel_run pool
       (List.init 16 (fun i () -> if i = 9 then failwith "task 9 exploded"))
   with
  | () -> assert false
  | exception Failure msg ->
      Printf.printf "failure surfaced at parallel_run: %S\n" msg);

  (* spawning from a domain that is not a pool worker is safe: it goes
     through the injector queue, never another domain's deque *)
  let hits = Atomic.make 0 in
  let outsider =
    Domain.spawn (fun () ->
        for _ = 1 to 100 do
          Ws_native.Pool.spawn pool (fun () ->
              ignore (Atomic.fetch_and_add hits 1))
        done)
  in
  Domain.join outsider;
  (* shutdown drains any still-queued work before joining the workers *)
  let stats = Ws_native.Pool.worker_stats pool in
  Ws_native.Pool.shutdown pool;
  Printf.printf "external spawns ran: %d/100\n" (Atomic.get hits);
  Array.iteri
    (fun i st ->
      Printf.printf "  slot %d: ran=%d stolen=%d parks=%d\n" i
        st.Ws_native.Pool.tasks_run st.Ws_native.Pool.tasks_stolen
        st.Ws_native.Pool.parks)
    stats
