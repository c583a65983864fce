(* The explorer's memo table: a visited-state store, in memory only or
   persisted across runs so repeated explorations of the same configuration
   are incremental. A persisted store is a directory:

     PATH/header.json   -- schema + the configuration the entries are valid
                           for (config string, bounds, reduction flag)
     PATH/shard-K.dat   -- append-only "fingerprint depth_rem preempt_rem"
                           lines, sharded by fingerprint
     PATH/failures.json -- the violations sighted by committed searches,
                           so a fully-memoized warm run still reports them

   An entry only prunes a revisit with no more remaining budget than the
   recorded visit, and the header pins everything else that shapes the
   reduced tree (machine configuration, depth bound, preemption bound,
   dpor). A store opened against a mismatched header is rejected with a
   descriptive error rather than silently poisoning verdicts.

   One domain: a store belongs to the one search that opened it
   ([Classic.run] opens one per litmus test, [wsrepro explore] one per
   search), so it has no locks and plain counters. Novel entries of a
   persisted store are buffered per shard file (write-back) until [commit]
   appends them. [commit] runs after the search returns, and only for
   searches that ran to completion: entries from a [max_runs]-interrupted
   search are real visits, but the failure set of a partial search is not
   the configuration's failure set, so partial searches are not merged. *)

let schema = "wsrepro-memo/v1"
let n_shards = 16

(* {2 Budgets}

   A slot packs both remaining budgets of a visit into one int, each in a
   [budget_bits]-bit field. [max_int] (no bound) is the field's all-ones
   code, above every bounded budget, so comparing codes compares budgets.
   A budget the field cannot hold is refused, never clamped: a clamped
   budget would let a smaller recorded one cover it. *)
let budget_bits = (Sys.int_size - 1) / 2
let unbounded = (1 lsl budget_bits) - 1
let holds b = b = max_int || (b >= 0 && b < unbounded)
let[@inline] code b = if b = max_int then unbounded else b

(* {2 The table}

   Open addressing with linear probing over one flat int array: slot [i]
   is the fingerprint at [2i] and the packed budgets at [2i + 1], or [-1]
   there when the slot is empty. A fingerprint's Pareto frontier of k
   pairs takes k slots of the probe run that starts at its home slot, so a
   lookup scans that run up to its first empty slot. The home slot is the
   top bits of a multiplicative mix: an FNV fingerprint's low bits depend
   only on the low bits of what it hashed. The loops below are top-level
   functions over ints, so a lookup allocates nothing; only growing does. *)

let golden = 0x278DDE6E5FD29F05
let min_bits = 12

type t = {
  dir : (string * Telemetry.Json.value) option;
      (** the directory and its header; [None] in memory *)
  mutable slots : int array;
  mutable bits : int;  (** log2 of the slot count *)
  mutable used : int;  (** occupied slots *)
  pending : (int * int * int) list array;
      (** per shard file, newest first; always empty in memory *)
  mutable stored_failures : (int list * string) list;
  mutable loaded : int;
  mutable lookups : int;
  mutable hits : int;
}

let create dir =
  {
    dir;
    slots = Array.make (2 lsl min_bits) (-1);
    bits = min_bits;
    used = 0;
    pending = Array.make n_shards [];
    stored_failures = [];
    loaded = 0;
    lookups = 0;
    hits = 0;
  }

let in_memory () = create None

let[@inline] home bits fp = (fp * golden) lsr (Sys.int_size - bits)

(* Scan the probe run of [fp] from slot [i] ([d], [p] are budget codes):
   [-1] when a recorded pair covers the query; else the slot the query's
   pair goes in, which is the first recorded pair it covers ([dom], a pair
   the frontier drops) or else the empty slot that ends the run. Indices
   are masked, so the unchecked reads stay in bounds. *)
let rec scan slots mask fp d p i dom =
  let v = Array.unsafe_get slots ((2 * i) + 1) in
  if v < 0 then if dom >= 0 then dom else i
  else if Array.unsafe_get slots (2 * i) <> fp then
    scan slots mask fp d p ((i + 1) land mask) dom
  else
    let vd = v lsr budget_bits and vp = v land unbounded in
    if vd >= d && vp >= p then -1
    else
      scan slots mask fp d p
        ((i + 1) land mask)
        (if dom < 0 && vd <= d && vp <= p then i else dom)

(* The first empty slot of the run from [i]. *)
let rec free slots mask i =
  if Array.unsafe_get slots ((2 * i) + 1) < 0 then i
  else free slots mask ((i + 1) land mask)

(* Empty slot [i], then close the gap (backward-shift deletion): each later
   entry [j] of the run whose home does not lie cyclically in (i, j] moves
   back into the gap, so every entry stays reachable from its home without
   crossing an empty slot. *)
let rec delete t i j =
  let slots = t.slots and mask = (1 lsl t.bits) - 1 in
  let j = (j + 1) land mask in
  let v = slots.((2 * j) + 1) in
  if v < 0 then slots.((2 * i) + 1) <- -1
  else
    let h = home t.bits slots.(2 * j) in
    if if i <= j then i < h && h <= j else i < h || h <= j then delete t i j
    else begin
      slots.(2 * i) <- slots.(2 * j);
      slots.((2 * i) + 1) <- v;
      delete t j j
    end

(* Drop the other pairs of [fp] that the new pair [packed] (budget codes
   [d], [p]) covers, scanning the rest of the run from slot [i]. *)
let rec drop_covered t fp packed d p i =
  let slots = t.slots and mask = (1 lsl t.bits) - 1 in
  let v = slots.((2 * i) + 1) in
  if v >= 0 then
    if
      slots.(2 * i) = fp && v <> packed
      && v lsr budget_bits <= d
      && v land unbounded <= p
    then begin
      delete t i i;
      t.used <- t.used - 1;
      drop_covered t fp packed d p i
    end
    else drop_covered t fp packed d p ((i + 1) land mask)

let grow t =
  let old = t.slots in
  let bits = t.bits + 1 in
  let slots = Array.make (2 lsl bits) (-1) in
  let mask = (1 lsl bits) - 1 in
  for i = 0 to (Array.length old / 2) - 1 do
    let v = old.((2 * i) + 1) in
    if v >= 0 then begin
      let fp = old.(2 * i) in
      let j = free slots mask (home bits fp) in
      slots.(2 * j) <- fp;
      slots.((2 * j) + 1) <- v
    end
  done;
  t.slots <- slots;
  t.bits <- bits

(* Membership, or insertion into the frontier of [fp]: [true] iff a
   recorded pair covers ([depth_rem], [preempt_rem]). *)
let check t fp ~depth_rem ~preempt_rem =
  let d = code depth_rem and p = code preempt_rem in
  let mask = (1 lsl t.bits) - 1 in
  let s = scan t.slots mask fp d p (home t.bits fp) (-1) in
  s < 0
  || begin
       let packed = (d lsl budget_bits) lor p in
       if t.slots.((2 * s) + 1) >= 0 then begin
         (* [s] holds a pair the new one covers: take its place *)
         t.slots.((2 * s) + 1) <- packed;
         drop_covered t fp packed d p ((s + 1) land mask)
       end
       else begin
         let s =
           if 4 * (t.used + 1) <= 3 lsl t.bits then s
           else begin
             grow t;
             free t.slots ((1 lsl t.bits) - 1) (home t.bits fp)
           end
         in
         t.slots.(2 * s) <- fp;
         t.slots.((2 * s) + 1) <- packed;
         t.used <- t.used + 1
       end;
       false
     end

let header_json ~config ~max_depth ~preemption_bound ~dpor =
  let open Telemetry.Json in
  Obj
    [
      ("schema", Str schema);
      ("config", Str config);
      ("max_depth", Int max_depth);
      ( "preemption_bound",
        Int (match preemption_bound with None -> -1 | Some b -> b) );
      ("dpor", Bool dpor);
      ("shards", Int n_shards);
    ]

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
  | Some (Str s) when s = schema -> (
      match (member "por" found, member "dpor" found) with
      | Some (Bool true), Some (Bool false) ->
          (* keyed with sleep-set hashes the unreduced search never makes *)
          err
            "was built by the retired --por search, so none of its entries \
             can ever hit: delete the store"
      | _ ->
          check
            [ "config"; "max_depth"; "preemption_bound"; "dpor"; "shards" ])
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

(* A decimal int exactly as [string_of_int] prints it: an optional '-',
   no leading zero, no '+', '_' or base prefix, and in range. *)
let decimal s =
  match int_of_string_opt s with
  | Some n when string_of_int n = s -> Some n
  | _ -> None

(* A shard line as {!commit} writes it: three decimal ints separated by
   single spaces, with budgets the table can hold. *)
let parse_entry line =
  match String.split_on_char ' ' line with
  | [ fp; d; p ] -> (
      match (decimal fp, decimal d, decimal p) with
      | Some fp, Some d, Some p when holds d && holds p -> Some (fp, d, p)
      | _ -> None)
  | _ -> None

let rec load_lines t file ic =
  match In_channel.input_line ic with
  | None -> Ok ()
  | Some line -> (
      match parse_entry line with
      | Some (fp, d, p) ->
          ignore (check t fp ~depth_rem:d ~preempt_rem:p);
          t.loaded <- t.loaded + 1;
          load_lines t file ic
      | None -> Error (file ^ ": malformed entry " ^ String.escaped line))

(* [Sys_error] from [open] names the file; from a read (of a directory,
   say) it does not. *)
let io_error file e =
  if String.starts_with ~prefix:(file ^ ": ") e then e else file ^ ": " ^ e

let load_shard t path k =
  let file = shard_file path k in
  if not (Sys.file_exists file) then Ok ()
  else
    try In_channel.with_open_text file (load_lines t file)
    with Sys_error e -> Error (io_error file e)

let open_ ~path ~config ~max_depth ~preemption_bound ~dpor () =
  let header = header_json ~config ~max_depth ~preemption_bound ~dpor in
  if not (Sys.file_exists path) then Ok (create (Some (path, header)))
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
            let t = create (Some (path, header)) in
            let rec shards k =
              if k >= n_shards then Ok ()
              else
                match load_shard t path k with
                | Ok () -> shards (k + 1)
                | e -> e
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
  if not (holds depth_rem && holds preempt_rem) then
    invalid_arg
      (Printf.sprintf
         "Memo_store.seen: budgets (%d, %d) out of range: each must be \
          max_int or in [0, %d)"
         depth_rem preempt_rem unbounded);
  t.lookups <- t.lookups + 1;
  let hit = check t fp ~depth_rem ~preempt_rem in
  if hit then t.hits <- t.hits + 1
  else begin
    match t.dir with
    | None -> ()
    | Some _ ->
        let k = (fp land max_int) mod n_shards in
        t.pending.(k) <- (fp, depth_rem, preempt_rem) :: t.pending.(k)
  end;
  hit

let lookups t = t.lookups
let hits t = t.hits
let loaded_entries t = t.loaded

let pending_entries t =
  Array.fold_left (fun n l -> n + List.length l) 0 t.pending

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
    (* tolerate another creator (e.g. sibling stores under one root) *)
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.is_directory path -> ()
  end

let commit t ~failures =
  match t.dir with
  | None -> Ok ()
  | Some (path, header) -> (
      try
        mkdir_p path;
        Telemetry.Json.write_file (header_file path) header;
        Array.iteri
          (fun k pending ->
            match pending with
            | [] -> ()
            | pending ->
                let oc =
                  open_out_gen
                    [ Open_wronly; Open_append; Open_creat ]
                    0o644 (shard_file path k)
                in
                List.iter
                  (fun (fp, d, p) -> Printf.fprintf oc "%d %d %d\n" fp d p)
                  (List.rev pending);
                close_out oc;
                t.pending.(k) <- [])
          t.pending;
        Telemetry.Json.write_file (failures_file path) (failures_json failures);
        t.stored_failures <- failures;
        Ok ()
      with Sys_error e -> Error e)
