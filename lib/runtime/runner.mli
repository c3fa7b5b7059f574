(** Driving a program to completion under a scheduler.

    This is the "RoadRunner" of the reproduction: it executes the program,
    streams every event to the given sink (race detector, cooperability
    automaton, a recording trace, or nothing at all for baseline timing),
    and reports how the run ended. *)

open Coop_trace

(** How a run terminated. *)
type termination =
  | Completed  (** Every thread finished or faulted. *)
  | Deadlock  (** Some thread is blocked forever. *)
  | Step_limit  (** The step budget ran out. *)

type outcome = {
  final : Vm.state;
      (** The last machine state, handed over to the caller: the run no
          longer steps it. *)
  termination : termination;
  steps : int;  (** Instructions executed. *)
}

val run :
  ?yields:Loc.Set.t ->
  ?max_steps:int ->
  sched:Sched.t ->
  sink:Trace.Sink.t ->
  Coop_lang.Bytecode.program ->
  outcome
(** [run ?yields ?max_steps ~sched ~sink prog] executes [prog] from its
    initial state. [yields] injects extra yield points (see {!Vm.step}).
    [max_steps] defaults to 10 million. *)

val run_from :
  ?max_steps:int ->
  sched:Sched.t ->
  sink:Trace.Sink.t ->
  last:int ->
  steps:int ->
  Vm.state ->
  outcome
(** The scheduling loop of {!run}, without its telemetry, continued from a
    given state: [last] is the thread that ran the previous step ([-1]
    for none) and [steps] the steps already taken, which count against
    [max_steps] (default 10 million). Steps [st] in place. Resuming a
    state restored from a snapshot taken mid-run, with the scheduler in
    the state it had then, reproduces the rest of that run exactly. *)

val record :
  ?yields:Loc.Set.t ->
  ?max_steps:int ->
  sched:Sched.t ->
  Coop_lang.Bytecode.program ->
  outcome * Trace.t
(** Like {!run} with a recording sink; returns the trace. *)

val analyze :
  ?yields:Loc.Set.t ->
  ?max_steps:int ->
  sched:Sched.t ->
  'r Analysis.t ->
  Coop_lang.Bytecode.program ->
  outcome * 'r
(** No-materialization mode: execute once, feeding every event straight
    from the VM into the analysis — no trace is recorded — and finalize.
    The single-pass analogue of {!record}+offline checking. *)

val source :
  ?yields:Loc.Set.t ->
  ?max_steps:int ->
  sched:(unit -> Sched.t) ->
  Coop_lang.Bytecode.program ->
  Source.t
(** The program-as-a-stream: each invocation of the source re-executes the
    program and streams its events. [sched] must build a fresh,
    identically seeded scheduler per call — the VM is deterministic given
    the schedule, so every replay then yields the identical event
    sequence, which is what multi-phase analyses (e.g.
    [Cooperability.check_source]) require. *)

val behavior_of : outcome -> Behavior.t
(** The observable behaviour of an outcome. *)

val pp_termination : Format.formatter -> termination -> unit
(** "completed", "deadlock" or "step-limit". *)
