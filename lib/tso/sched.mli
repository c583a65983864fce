(** Nondeterministic schedulers for the abstract machine.

    A policy picks, at each state, one of the enabled transitions. The
    weighted random policy is the workhorse for litmus testing: giving drains
    a low weight keeps stores buffered for a long time, maximising the
    store/load reordering a run exhibits (the adversarial behaviour the
    paper's §7.3 litmus campaign is hunting for). *)

type outcome =
  | Quiescent  (** every thread finished and every buffer drained *)
  | Max_steps  (** the step budget ran out first *)
  | Deadlock  (** no transition enabled but the machine is not quiescent *)

type policy = Machine.t -> Machine.tbuf -> Machine.transition
(** Invoked only on non-empty transition buffers. The buffer is
    {!run}'s reusable enabled-set buffer (see {!Machine.enabled_into});
    policies must not retain it across invocations. *)

val run : ?max_steps:int -> Machine.t -> policy -> outcome
(** Drive the machine with a policy until quiescence or the step budget
    (default [2_000_000]) is exhausted. The enabled set is recomputed into
    one reusable buffer per step, so choosing a transition allocates
    nothing in steady state; applying it allocates what {!Machine.apply}
    does. *)

val round_robin : unit -> policy
(** Deterministic baseline: cycles fairly over transitions. *)

val uniform : Random.State.t -> policy
(** Uniformly random among enabled transitions. *)

val weighted : Random.State.t -> drain_weight:float -> policy
(** Random, but a [Drain]/[Flush] transition is selected with relative weight
    [drain_weight] (instruction steps have weight [1.0]). Values well below 1
    delay buffer drains and maximise observable reordering; values above 1
    approximate an eagerly-draining machine. When only drains are enabled one
    is picked uniformly. *)

val replay : int list -> fallback:policy -> policy
(** Follow a recorded list of choice indices (indices into the enabled list),
    then defer to [fallback]. Used by {!Explore} and by tests reproducing a
    specific interleaving. *)

val record : (int -> unit) -> policy -> policy
(** Wrap a policy, reporting the index of each choice it makes. *)
