type _ request =
  | Req_load : Addr.t -> int request
  | Req_store : Addr.t * int -> unit request
  | Req_cas : Addr.t * int * int -> bool request
  | Req_fetch_add : Addr.t * int -> int request
  | Req_fence : unit request
  | Req_work : int -> unit request
  | Req_label : string -> unit request
  | Req_pause : unit request

type _ Effect.t += E_req : 'a request -> 'a Effect.t

let load a = Effect.perform (E_req (Req_load a))
let store a v = Effect.perform (E_req (Req_store (a, v)))
let cas a ~expect ~replace = Effect.perform (E_req (Req_cas (a, expect, replace)))
let fetch_add a d = Effect.perform (E_req (Req_fetch_add (a, d)))
let fence () = Effect.perform (E_req Req_fence)
let work n = if n > 0 then Effect.perform (E_req (Req_work n))
let label s = Effect.perform (E_req (Req_label s))
let spin_pause () = Effect.perform (E_req Req_pause)

type status =
  | Done : status
  | Paused_at : 'a request * ('a, status) Effect.Deep.continuation -> status

let start body =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> Done);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_req req ->
              Some (fun (k : (a, status) continuation) -> Paused_at (req, k))
          | _ -> None);
    }

let resume k v = Effect.Deep.continue k v

(* Private, so no thread body can name it: a body sees it only through a
   catch-all handler. *)
exception Released

(* A body that catches [Released] and reaches another instruction is
   discontinued there too, but only [release_rounds] times in all, so one
   that swallows every exception in a loop cannot hang its caller. *)
let release_rounds = 2

let release st =
  let rec go rounds = function
    | Done -> ()
    | Paused_at (_, k) ->
        if rounds = 0 then
          invalid_arg "Program.release: thread body kept running after release";
        (match Effect.Deep.discontinue k Released with
        | st -> go (rounds - 1) st
        | exception Released -> ())
  in
  go release_rounds st

let describe_named (type a) name (req : a request) =
  match req with
  | Req_load a -> Printf.sprintf "load %s" (name a)
  | Req_store (a, v) -> Printf.sprintf "store %s := %d" (name a) v
  | Req_cas (a, e, r) -> Printf.sprintf "cas %s (%d -> %d)" (name a) e r
  | Req_fetch_add (a, d) -> Printf.sprintf "faa %s += %d" (name a) d
  | Req_fence -> "fence"
  | Req_work n -> Printf.sprintf "work %d" n
  | Req_label s -> Printf.sprintf "label %S" s
  | Req_pause -> "pause"

let describe req =
  describe_named (fun a -> Format.asprintf "%a" Addr.pp a) req
