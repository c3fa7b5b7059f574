open Coop_trace

type termination =
  | Completed
  | Deadlock
  | Step_limit

type outcome = {
  final : Vm.state;
  termination : termination;
  steps : int;
}

let run_from ?(max_steps = 10_000_000) ~sched ~sink ~last ~steps st =
  (* One context per run, rewritten before every pick: the loop allocates
     nothing per step. *)
  let ctx = Sched.context ~last [] in
  let pick = sched.Sched.pick in
  let rec loop steps =
    if steps >= max_steps then { final = st; termination = Step_limit; steps }
    else begin
      let n = Vm.runnable_count st in
      if n = 0 then
        { final = st;
          termination = (if Vm.all_quiescent st then Completed else Deadlock);
          steps }
      else begin
        if Array.length ctx.Sched.runnable < n then
          ctx.Sched.runnable <- Array.make (2 * n) 0;
        Vm.blit_runnable st ctx.Sched.runnable;
        ctx.Sched.n_runnable <- n;
        ctx.Sched.last_yielded <- Vm.last_step_yielded st;
        let tid = pick ctx in
        Vm.step st tid ~sink;
        ctx.Sched.last <- tid;
        loop (steps + 1)
      end
    end
  in
  loop steps

let run_raw ~yields ~max_steps ~sched ~sink prog =
  run_from ~max_steps ~sched ~sink ~last:(-1) ~steps:0 (Vm.init ~yields prog)

let run ?(yields = Loc.Set.empty) ?(max_steps = 10_000_000) ~sched ~sink prog =
  if not (Coop_obs.enabled ()) then run_raw ~yields ~max_steps ~sched ~sink prog
  else
    (* Telemetry path: one span per VM run, plus step and event-dispatch
       counters accumulated locally and flushed once — the checked-per-run
       branch above is the uninstrumented hot path's entire cost. *)
    Coop_obs.span ("vm/run:" ^ sched.Sched.name) (fun () ->
        let events = ref 0 in
        let counting e = incr events; sink e in
        let outcome = run_raw ~yields ~max_steps ~sched ~sink:counting prog in
        Coop_obs.count "vm/steps" outcome.steps;
        Coop_obs.count "vm/events" !events;
        outcome)

let record ?yields ?max_steps ~sched prog =
  let trace = Trace.create () in
  let outcome =
    run ?yields ?max_steps ~sched ~sink:(Trace.Sink.recording trace) prog
  in
  (outcome, trace)

let analyze ?yields ?max_steps ~sched analysis prog =
  let outcome =
    run ?yields ?max_steps ~sched ~sink:(Analysis.sink analysis) prog
  in
  (outcome, Analysis.finalize analysis)

let source ?yields ?max_steps ~sched prog : Source.t =
 fun sink -> ignore (run ?yields ?max_steps ~sched:(sched ()) ~sink prog)

let behavior_of outcome = Behavior.of_state outcome.final

let pp_termination ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Deadlock -> Format.pp_print_string ppf "deadlock"
  | Step_limit -> Format.pp_print_string ppf "step-limit"
