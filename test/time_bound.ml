(* A wall-clock bound for fuzz cases. [within ~seconds f] runs [f]; if it
   is still running after [seconds], a SIGALRM handler raises [Timeout]
   at [f]'s next poll point, so a parser that hangs fails its case
   instead of holding the suite. Single-domain callers only: the signal
   goes to the process. *)

exception Timeout

let within ~seconds f =
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timeout)) in
  let arm v =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = v })
  in
  arm seconds;
  Fun.protect
    ~finally:(fun () ->
      arm 0.;
      Sys.set_signal Sys.sigalrm old)
    f
