(** The classic x86-TSO litmus tests (Sewell et al., CACM 2010 — the
    machine model the paper's §2 builds on), as executable checks of the
    abstract machine itself.

    Each test is a tiny multi-threaded program together with a predicate on
    its final registers/memory and the verdict TSO assigns to that outcome:
    [Allowed] outcomes must be reachable (the explorer must find a schedule
    exhibiting them) and [Forbidden] outcomes must be unreachable (the
    explorer must exhaust the schedule space without finding one). Running
    this suite is how we know the simulator implements x86-TSO rather than
    something weaker or stronger. *)

type verdict = Allowed | Forbidden

type t = {
  name : string;
  description : string;
  verdict : verdict;
  (* Builds a fresh instance whose check returns [Error _] iff the outcome
     of interest was observed — so [search] failures mean "observed". *)
  mk : unit -> Tso.Explore.instance;
}

val all : t list
(** SB, SB+fences, MP (two variants), LB, n6, n5/n4b-style same-address
    tests, IRIW, and RMW-ordering tests. *)

val find : string -> t

type result = {
  test : t;
  observed : bool;
  runs : int;
  exhausted : bool;
      (** the search completed within its run budget and no run was cut
          by the depth bound *)
  ok : bool;  (** observed matches the verdict (for Forbidden outcomes,
                  only meaningful when [exhausted]) *)
  memo_lookups : int;
      (** persistent-store lookups (0 unless [memo_dir] was given) *)
  memo_hits : int;
      (** persistent-store hits — nonzero on a warm rerun, since the
          store already holds the whole reduced tree *)
}

val run :
  ?max_runs:int ->
  ?memo:bool ->
  ?por:bool ->
  ?dpor:bool ->
  ?memo_dir:string ->
  ?snapshots:bool ->
  t ->
  result
(** Decide one test's verdict by bounded exhaustive search. [memo] prunes
    converged interleavings, shrinking [runs] without changing [observed];
    [por] applies sleep-set partial-order reduction (same verdicts, far
    fewer [runs]); [dpor] upgrades to source-DPOR (implies [por], fewer
    [runs] again); [memo_dir] persists the visited-state cache under
    [memo_dir/<test name>] across invocations ({!Tso.Memo_store}; raises
    [Failure] with the store's diagnostic on a header mismatch);
    [snapshots] selects snapshot-based sibling exploration (default) vs
    replay-from-root. Defaults: [memo = false], [por = false],
    [dpor = false], [snapshots = true]. *)

val run_all :
  ?max_runs:int ->
  ?memo:bool ->
  ?por:bool ->
  ?dpor:bool ->
  ?memo_dir:string ->
  ?snapshots:bool ->
  unit ->
  result list
val pp_result : Format.formatter -> result -> unit
