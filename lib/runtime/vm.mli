(** The CoopLang virtual machine.

    The VM interprets {!Coop_lang.Bytecode} one instruction at a time under
    an external scheduler: [step] executes exactly one instruction of one
    thread and reports the events it produced. State is flat and mutable:
    one [int] heap for globals and array cells, lock owner/depth arrays,
    and per-thread value stacks holding every frame's locals and operands.
    [step] updates a state in place.

    Branching goes through {!snapshot}: an immutable image of the whole
    configuration, from which {!restore} builds a fresh, independent state
    any number of times ({!restore_into} overwrites a state the caller is
    done with instead). A snapshot is never affected by stepping the state
    it was taken from, or any state restored from it — so snapshots, not
    states, are what checkpoint stores, exploration frontiers and parallel
    tasks hold.

    Blocking: [Acquire] on a lock held by another thread and [Join] on a
    live thread do not advance; the thread parks in a blocked status and the
    instruction re-executes when the scheduler runs the thread again. The
    runnable set ({!runnable}, {!runnable_count}) already filters out
    threads whose blocking condition still holds, so a scheduler that only
    picks from it never spins; the VM maintains it incrementally, touching
    it only on steps that change a status, a lock owner or the thread
    count. Locks are reentrant, as in the paper's Java setting. *)

open Coop_trace
open Coop_lang

type status =
  | Runnable  (** Can execute its next instruction (modulo lock/join waits). *)
  | Blocked_on_lock of int  (** Parked on a lock handle. *)
  | Blocked_on_join of int  (** Parked waiting for a thread to finish. *)
  | Waiting of int
      (** Parked on a monitor's condition after [wait]; released the lock. *)
  | Reacquiring of int
      (** Notified; the next step reacquires the monitor (blocking until
          it is free) at the saved reentrancy depth. *)
  | Finished  (** Ran to completion. *)
  | Faulted of string  (** Died on a runtime fault (assert, div by zero...). *)

type state
(** A whole machine configuration. Mutable: {!step} changes it in place. *)

type snapshot
(** An immutable image of a configuration. *)

val init : ?yields:Loc.Set.t -> Bytecode.program -> state
(** The initial configuration: globals/arrays initialized, a single thread 0
    about to enter [main]. [yields] injects extra yield points: when a
    thread's next instruction sits at a location in [yields], its next
    step emits a [Yield] event and executes nothing (the mechanism used by
    inferred yields — no recompilation needed). The set is compiled once
    into a per-instruction table shared by every state and snapshot
    derived from this one. *)

val program : state -> Bytecode.program
(** The program this state executes. *)

val thread_status : state -> int -> status
(** Status of a thread id. Raises [Not_found] for unknown tids. *)

val runnable : state -> int list
(** Threads that can make progress now: [Runnable] threads plus blocked
    threads whose lock became available / join target finished. Ascending
    order. Allocates the list; the scheduling loop uses {!runnable_count}
    and {!blit_runnable} instead. *)

val runnable_count : state -> int
(** The number of threads in {!runnable}. *)

val blit_runnable : state -> int array -> unit
(** [blit_runnable st dst] writes {!runnable}'s tids, ascending, into
    [dst.(0) .. dst.(runnable_count st - 1)]. [dst] must be at least that
    long (raises [Invalid_argument] otherwise). Allocates nothing. *)

val all_quiescent : state -> bool
(** No thread can ever run again (all finished or faulted). *)

val deadlocked : state -> bool
(** [runnable] is empty but some thread is still blocked. *)

val step : state -> int -> sink:Trace.Sink.t -> unit
(** [step st tid ~sink] executes one instruction of [tid] in place, feeding
    the produced events to [sink] (one reused event record; see
    {!Trace.Sink}). Raises [Invalid_argument] if [tid] cannot run. *)

type next_instr =
  | No_frame  (** Nothing left to execute: finished, faulted or frameless. *)
  | Sched_point
      (** A visible instruction (shared memory, locks, monitors, spawn,
          join, print, yield) or an injected yield point (see {!init}),
          whether or not that yield was already emitted. *)
  | Invisible  (** Thread-local: no other thread can observe it. *)

val next_instr : state -> int -> next_instr
(** Classifies the instruction a thread would execute next, from a
    per-instruction table {!init} builds once. Allocates nothing; the
    explorers use it to end a transition at its scheduling point. Raises
    [Not_found] for unknown tids. *)

val last_step_yielded : state -> bool
(** Whether the most recent [step] emitted a [Yield] event (consulted by the
    cooperative scheduler). *)

val global_value : state -> int -> int
(** Current value of a global slot. *)

val output : state -> int list
(** [print] outputs so far, in emission order. *)

val failures : state -> (int * string) list
(** [(tid, message)] for each faulted thread, in fault order. *)

val snapshot : state -> snapshot
(** An immutable image of the configuration (a copy of its heap, locks and
    live stack regions). Later steps of [st] do not affect it. *)

val restore : snapshot -> state
(** A fresh state equal to the one the snapshot was taken from: same
    future events under the same schedule, same behaviour, same {!key}.
    Every call returns an independent copy. *)

val restore_into : snapshot -> state -> unit
(** [restore_into snap st] makes [st] equal to [restore snap], reusing
    [st]'s storage: for a caller that no longer needs [st]'s own
    configuration, such as an explorer moving to its next branch. [st]
    must run the same program (physically) as the snapshot; it takes the
    snapshot's injected yields. Raises [Invalid_argument] otherwise. *)

val approx_words : snapshot -> int
(** The words a snapshot retains on its own, block headers included —
    exactly [Obj.reachable_words] of the snapshot minus the program and
    tables it shares with every state of its run. O(1): computed when the
    snapshot is taken. Used to budget checkpoint stores. *)

val key : state -> string
(** A canonical serialization of the configuration, equal for semantically
    identical states — used for memoization during schedule exploration.
    Ignores fault messages and {!last_step_yielded}. *)
