(* Disk-backed visited-state store: the explorer's memo table, persisted
   across runs so repeated explorations of the same configuration are
   incremental. The layout is a directory:

     PATH/header.json   -- schema + the configuration the entries are valid
                           for (config string, bounds, reduction flags)
     PATH/shard-K.dat   -- append-only "fingerprint depth_rem preempt_rem"
                           lines, sharded by fingerprint
     PATH/failures.json -- the violations sighted by committed searches,
                           so a fully-memoized warm run still reports them

   Soundness mirrors the in-memory cache ({!Explore}): an entry only prunes
   a revisit with no more remaining budget than the recorded visit, and the
   header pins everything else that shapes the reduced tree (machine
   configuration, depth bound, preemption bound, por/dpor). A store opened
   against a mismatched header is rejected with a descriptive error rather
   than silently poisoning verdicts.

   Concurrency: [seen] is safe from any domain — the table is sharded by
   fingerprint with one mutex per shard, and novel entries are buffered
   per shard (write-back) until [commit] appends them. [commit] must be
   called from one domain, after the search quiesces, and only for
   searches that ran to completion: entries from a [max_runs]-interrupted
   search are real visits, but the failure set of a partial search is not
   the configuration's failure set, so partial searches are not merged. *)

let schema = "wsrepro-memo/v1"
let n_shards = 16

type shard = {
  lock : Mutex.t;
  tbl : (int, (int * int) list) Hashtbl.t;
  mutable pending : (int * int * int) list;  (** newest first *)
}

type t = {
  path : string;
  header : Telemetry.Json.value;
  shards : shard array;
  mutable stored_failures : (int list * string) list;
  mutable loaded : int;
  lookups : int Atomic.t;
  hits : int Atomic.t;
}

(* The Pareto-frontier membership/insertion shared with the explorer's
   in-memory memo: a fingerprint maps to the maximal (depth_rem,
   preempt_rem) pairs already explored. *)
let tbl_check tbl fp ~depth_rem ~preempt_rem =
  let entries = Option.value ~default:[] (Hashtbl.find_opt tbl fp) in
  if List.exists (fun (d, p) -> d >= depth_rem && p >= preempt_rem) entries
  then true
  else begin
    let entries =
      (depth_rem, preempt_rem)
      :: List.filter
           (fun (d, p) -> not (d <= depth_rem && p <= preempt_rem))
           entries
    in
    Hashtbl.replace tbl fp entries;
    false
  end

let header_json ~config ~max_depth ~preemption_bound ~por ~dpor =
  let open Telemetry.Json in
  Obj
    [
      ("schema", Str schema);
      ("config", Str config);
      ("max_depth", Int max_depth);
      ( "preemption_bound",
        Int (match preemption_bound with None -> -1 | Some b -> b) );
      ("por", Bool por);
      ("dpor", Bool dpor);
      ("shards", Int n_shards);
    ]

let fresh ~path ~header =
  {
    path;
    header;
    shards =
      Array.init n_shards (fun _ ->
          { lock = Mutex.create (); tbl = Hashtbl.create 1024; pending = [] });
    stored_failures = [];
    loaded = 0;
    lookups = Atomic.make 0;
    hits = Atomic.make 0;
  }

let shard_file path k = Filename.concat path (Printf.sprintf "shard-%d.dat" k)
let header_file path = Filename.concat path "header.json"
let failures_file path = Filename.concat path "failures.json"

let check_header ~path ~expected found =
  let open Telemetry.Json in
  let err what = Error (Printf.sprintf "%s: memo store %s" path what) in
  let field name =
    match (member name found, member name expected) with
    | Some f, Some e -> Ok (f, e)
    | _ -> err (Printf.sprintf "header is missing %S" name)
  in
  let describe = function
    | Str s -> s
    | Int i -> string_of_int i
    | Bool b -> string_of_bool b
    | v -> to_string ~indent:false v
  in
  let rec check = function
    | [] -> Ok ()
    | name :: rest -> (
        match field name with
        | Error _ as e -> e
        | Ok (f, e) ->
            if f = e then check rest
            else
              err
                (Printf.sprintf "was built with %s = %s; this run uses %s"
                   name (describe f) (describe e)))
  in
  match member "schema" found with
  | Some (Str s) when s = schema ->
      check
        [ "config"; "max_depth"; "preemption_bound"; "por"; "dpor"; "shards" ]
  | Some (Str s) ->
      err (Printf.sprintf "has schema %S; this build expects %S" s schema)
  | _ -> err "header has no schema field"

let load_failures path =
  let file = failures_file path in
  if not (Sys.file_exists file) then Ok []
  else
    match Telemetry.Json.parse_file file with
    | Error e -> Error (Printf.sprintf "%s: %s" file e)
    | Ok doc -> (
        let open Telemetry.Json in
        let one = function
          | Obj _ as f -> (
              match (member "choices" f, member "message" f) with
              | Some (List cs), Some (Str msg) ->
                  let choice = function Int i -> i | _ -> raise Exit in
                  Some (List.map choice cs, msg)
              | _ -> None)
          | _ -> None
        in
        match member "failures" doc with
        | Some (List fs) -> (
            try
              match List.map one fs with
              | l when List.for_all Option.is_some l ->
                  Ok (List.map Option.get l)
              | _ -> Error (file ^ ": malformed failure entry")
            with Exit -> Error (file ^ ": malformed failure entry"))
        | _ -> Error (file ^ ": missing failures field"))

let load_shard t k =
  let file = shard_file t.path k in
  if not (Sys.file_exists file) then Ok ()
  else begin
    let ic = open_in file in
    let sh = t.shards.(k) in
    let result = ref (Ok ()) in
    (try
       let rec loop () =
         match In_channel.input_line ic with
         | None -> ()
         | Some line ->
             (match
                Scanf.sscanf line "%d %d %d" (fun fp d p -> (fp, d, p))
              with
             | fp, d, p ->
                 ignore (tbl_check sh.tbl fp ~depth_rem:d ~preempt_rem:p);
                 t.loaded <- t.loaded + 1
             | exception _ ->
                 result := Error (file ^ ": malformed entry " ^ String.escaped line));
             if !result = Ok () then loop ()
       in
       loop ()
     with e ->
       close_in_noerr ic;
       raise e);
    close_in ic;
    !result
  end

let open_ ~path ~config ~max_depth ~preemption_bound ~por ~dpor () =
  let header = header_json ~config ~max_depth ~preemption_bound ~por ~dpor in
  if not (Sys.file_exists path) then Ok (fresh ~path ~header)
  else if not (Sys.is_directory path) then
    Error (path ^ ": memo store path exists but is not a directory")
  else if not (Sys.file_exists (header_file path)) then
    Error (path ^ ": memo store directory has no header.json")
  else
    match Telemetry.Json.parse_file (header_file path) with
    | Error e -> Error (Printf.sprintf "%s: unreadable header (%s)" path e)
    | Ok found -> (
        match check_header ~path ~expected:header found with
        | Error _ as e -> e
        | Ok () -> (
            let t = fresh ~path ~header in
            let rec shards k =
              if k >= n_shards then Ok ()
              else match load_shard t k with Ok () -> shards (k + 1) | e -> e
            in
            match shards 0 with
            | Error _ as e -> e
            | Ok () -> (
                match load_failures path with
                | Error _ as e -> e
                | Ok fs ->
                    t.stored_failures <- fs;
                    Ok t)))

let seen t fp ~depth_rem ~preempt_rem =
  Atomic.incr t.lookups;
  let sh = t.shards.((fp land max_int) mod n_shards) in
  Mutex.lock sh.lock;
  let hit = tbl_check sh.tbl fp ~depth_rem ~preempt_rem in
  if hit then Atomic.incr t.hits
  else sh.pending <- (fp, depth_rem, preempt_rem) :: sh.pending;
  Mutex.unlock sh.lock;
  hit

let lookups t = Atomic.get t.lookups
let hits t = Atomic.get t.hits
let loaded_entries t = t.loaded

let pending_entries t =
  Array.fold_left (fun n sh -> n + List.length sh.pending) 0 t.shards

let stored_failures t = t.stored_failures

(* Stored failures come first (their sighting order is the committed one),
   then any novel live sightings, deduplicated by schedule; capped at
   [max_failures] so warm reruns report byte-identically to the run that
   populated the store. *)
let merge_failures t ~max_failures live =
  let known schedule l = List.exists (fun (s, _) -> s = schedule) l in
  let novel =
    List.filter (fun (s, _) -> not (known s t.stored_failures)) live
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | f :: rest -> f :: take (n - 1) rest
  in
  take max_failures (t.stored_failures @ novel)

let failures_json failures =
  let open Telemetry.Json in
  Obj
    [
      ("schema", Str schema);
      ( "failures",
        List
          (List.map
             (fun (choices, msg) ->
               Obj
                 [
                   ("choices", List (List.map (fun i -> Int i) choices));
                   ("message", Str msg);
                 ])
             failures) );
    ]

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if parent <> path then mkdir_p parent;
    (* tolerate a concurrent creator (e.g. sibling stores under one root) *)
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.is_directory path -> ()
  end

let commit t ~failures =
  try
    mkdir_p t.path;
    Telemetry.Json.write_file (header_file t.path) t.header;
    Array.iteri
      (fun k sh ->
        match sh.pending with
        | [] -> ()
        | pending ->
            let oc =
              open_out_gen
                [ Open_wronly; Open_append; Open_creat ]
                0o644 (shard_file t.path k)
            in
            List.iter
              (fun (fp, d, p) -> Printf.fprintf oc "%d %d %d\n" fp d p)
              (List.rev pending);
            close_out oc;
            sh.pending <- [])
      t.shards;
    Telemetry.Json.write_file (failures_file t.path) (failures_json failures);
    t.stored_failures <- failures;
    Ok ()
  with Sys_error e -> Error e
