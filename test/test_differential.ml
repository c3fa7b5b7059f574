(* Differential suite: the single-pass online engine against the two-pass
   reference oracle.

   The single-pass refactor classifies movers optimistically and repairs
   transactions when racy-variable / shared-lock facts arrive late; the
   two-pass mode learns the final fact set first and classifies with full
   knowledge. The two must be extensionally identical — same violations,
   warnings, races and racy sets, in the same order — on every input. This
   suite pins that equivalence on random feasible traces, on traces built
   to deliver facts late (single-threaded prefix, racing epilogue), on
   lock-saturated traces where every thread takes every lock, on
   fork/join-heavy generated programs re-executed as streams, and through
   the inference fixpoint at pool sizes 1, 2 and 4. It also pins the
   operational payoffs: one VM execution per portfolio schedule (the
   two-pass oracle needs two), and the ability to consume a non-replayable
   pipe. *)

(* Bind the shared harness before [open QCheck2] shadows the module name. *)
let gen_trace = Gen.gen_trace
let gen_late_trace = Gen.gen_late_trace
let print_trace = Gen.print_trace
let gen_late_program = Gen.gen_late_program

open QCheck2
open Coop_util
open Coop_trace
open Coop_runtime
open Coop_core
open Coop_workloads

(* Structural equality is right for every field except the variable set,
   whose balanced-tree layout depends on insertion order. *)
let coop_result_equal (a : Cooperability.result) (b : Cooperability.result) =
  a.Cooperability.violations = b.Cooperability.violations
  && a.Cooperability.races = b.Cooperability.races
  && Event.Var_set.equal a.Cooperability.racy b.Cooperability.racy
  && a.Cooperability.events = b.Cooperability.events

let pipeline_result_equal (a : Coop_pipeline.result) (b : Coop_pipeline.result)
    =
  a.Coop_pipeline.races = b.Coop_pipeline.races
  && Event.Var_set.equal a.Coop_pipeline.racy b.Coop_pipeline.racy
  && a.Coop_pipeline.lockset_races = b.Coop_pipeline.lockset_races
  && a.Coop_pipeline.violations = b.Coop_pipeline.violations
  && a.Coop_pipeline.deadlock = b.Coop_pipeline.deadlock
  && a.Coop_pipeline.atomizer = b.Coop_pipeline.atomizer
  && a.Coop_pipeline.conflict = b.Coop_pipeline.conflict
  && a.Coop_pipeline.events = b.Coop_pipeline.events

let coop_agrees trace =
  coop_result_equal
    (Cooperability.check_source (Source.of_trace trace))
    (Cooperability.check_source ~two_pass:true (Source.of_trace trace))

let atomizer_agrees trace =
  Coop_atomicity.Atomizer.check trace
  = Coop_atomicity.Atomizer.check_two_pass trace

let pipeline_agrees mk_source =
  pipeline_result_equal
    (Coop_pipeline.run ~lockset:true ~atomize:true ~conflict:true
       (mk_source ()))
    (Coop_pipeline.run ~lockset:true ~atomize:true ~conflict:true
       ~two_pass:true (mk_source ()))

let prop gen name count f =
  QCheck_alcotest.to_alcotest
    (Test.make ~name ~count ~print:print_trace gen f)

(* --- Checker-level equivalence on random traces --------------------- *)

let coop_on_traces =
  prop gen_trace "cooperability: single-pass = two-pass on feasible traces" 80
    coop_agrees

let coop_on_late_traces =
  prop gen_late_trace
    "cooperability: single-pass = two-pass on late-knowledge traces" 80
    coop_agrees

let atomizer_on_traces =
  prop gen_trace "atomizer: fused = three-stream on feasible traces" 80
    atomizer_agrees

let atomizer_on_late_traces =
  prop gen_late_trace "atomizer: fused = three-stream on late-knowledge traces"
    80 atomizer_agrees

let pipeline_on_late_traces =
  prop gen_late_trace
    "full pipeline: single-pass = two-pass on late-knowledge traces" 50
    (fun trace -> pipeline_agrees (fun () -> Source.of_trace trace))

(* The online sink is the same engine again, attached to a live stream. *)
let online_sink_agrees =
  prop gen_late_trace "Cooperability.online sink = check" 50 (fun trace ->
      let sink, finish = Cooperability.online () in
      Trace.iter sink trace;
      coop_result_equal (finish ()) (Cooperability.check trace))

(* --- Lock-saturated traces --------------------------------------------- *)

(* Every lock is acquired and released by every thread, round after
   round, so each lock turns shared early and the lock-heavy mover
   classification dominates; occasional unprotected writes make
   variables racy mid-stream, while function activations, atomic blocks
   and yields exercise the Atomizer and the automaton. Lock operations
   are well-paired per thread, so the trace stays feasible. *)
let gen_lock_saturated_trace =
  let open Gen in
  let* rounds = int_range 5 25 in
  let* seed = int_bound 1_000_000 in
  return
    (let rng = Rng.create seed in
     let trace = Trace.create () in
     let loc () = Loc.make ~func:0 ~pc:(Rng.int rng 40) ~line:1 in
     let emit tid op = Trace.add trace (Event.make ~tid ~op ~loc:(loc ())) in
     let n_threads = 4 in
     let locks = [| 0; 1; 2 |] in
     let vars = [| Event.Global 0; Event.Global 1; Event.Cell (0, 0) |] in
     for t = 1 to n_threads - 1 do
       emit 0 (Event.Fork t)
     done;
     let tids = Array.init n_threads Fun.id in
     for _ = 1 to rounds do
       (* Each round every thread walks the whole lock array, in a
          freshly shuffled thread order. *)
       let order = Array.copy tids in
       for i = n_threads - 1 downto 1 do
         let j = Rng.int rng (i + 1) in
         let tmp = order.(i) in
         order.(i) <- order.(j);
         order.(j) <- tmp
       done;
       Array.iter
         (fun t ->
           let entered = Rng.int rng 3 = 0 in
           if entered then emit t (Event.Enter (t mod 2));
           Array.iter
             (fun l ->
               emit t (Event.Acquire l);
               if Rng.int rng 2 = 0 then emit t (Event.Write (Rng.pick rng vars))
               else emit t (Event.Read (Rng.pick rng vars));
               emit t (Event.Release l))
             locks;
           if Rng.int rng 3 = 0 then emit t (Event.Write (Rng.pick rng vars));
           if entered then emit t (Event.Exit (t mod 2));
           if Rng.int rng 2 = 0 then emit t Event.Yield)
         order
     done;
     for t = 1 to n_threads - 1 do
       emit 0 (Event.Join t)
     done;
     trace)

let coop_on_lock_saturated_traces =
  prop gen_lock_saturated_trace
    "cooperability: single-pass = two-pass on lock-saturated traces" 40
    coop_agrees

let atomizer_on_lock_saturated_traces =
  prop gen_lock_saturated_trace
    "atomizer: fused = three-stream on lock-saturated traces" 30
    atomizer_agrees

let pipeline_on_lock_saturated_traces =
  prop gen_lock_saturated_trace
    "full pipeline: single-pass = two-pass on lock-saturated traces" 20
    (fun trace -> pipeline_agrees (fun () -> Source.of_trace trace))

(* --- Program-level equivalence: re-executed streams ----------------- *)

(* Fork/join-heavy programs with an unsynchronized main prelude: the
   facts about the prelude's variables (and the atomic blocks' implicit
   assumptions) only arrive once the workers run. Both modes re-execute
   deterministically via the scheduler factory. *)
let pipeline_on_late_programs =
  QCheck_alcotest.to_alcotest
    (Test.make ~name:"full pipeline: single-pass = two-pass on late programs"
       ~count:25 ~print:Coop_lang.Pretty.program gen_late_program (fun p ->
         let prog = Coop_lang.Compile.program p in
         let sched () = Sched.random ~seed:31 () in
         pipeline_agrees (fun () ->
             Runner.source ~max_steps:300_000 ~sched prog)))

(* --- Inference: identical fixpoints, half the executions ------------ *)

let pools = [ (1, Pool.create ~jobs:1 ()); (2, Pool.create ~jobs:2 ());
              (4, Pool.create ~jobs:4 ()) ]

let loc_set =
  Alcotest.testable
    (Fmt.of_to_string (fun s ->
         String.concat ","
           (List.map (Format.asprintf "%a" Loc.pp) (Loc.Set.elements s))))
    Loc.Set.equal

let infer_prog () =
  let e = Option.get (Registry.find "philo") in
  Registry.program_of ~threads:2 ~size:2 e

let test_infer_modes_agree () =
  let prog = infer_prog () in
  let reference =
    Infer.infer ~pool:(List.assoc 1 pools) ~max_steps:300_000 prog
  in
  List.iter
    (fun (jobs, pool) ->
      List.iter
        (fun two_pass ->
          let r = Infer.infer ~pool ~max_steps:300_000 ~two_pass prog in
          let tag =
            Printf.sprintf "jobs=%d two_pass=%b" jobs two_pass
          in
          Alcotest.check loc_set (tag ^ ": yields") reference.Infer.yields
            r.Infer.yields;
          Alcotest.(check int) (tag ^ ": rounds") reference.Infer.rounds
            r.Infer.rounds;
          Alcotest.(check int)
            (tag ^ ": initial violations")
            reference.Infer.initial_violations r.Infer.initial_violations;
          Alcotest.(check int)
            (tag ^ ": final check")
            reference.Infer.final_check_violations
            r.Infer.final_check_violations;
          Alcotest.(check int)
            (tag ^ ": events analyzed")
            reference.Infer.events_analyzed r.Infer.events_analyzed)
        [ false; true ])
    pools

(* Span-count accounting: in single-pass mode every [infer/schedule:*]
   span contains exactly one [vm/run:*] span — the program executed once
   per schedule; the two-pass oracle re-executes for its automaton phase,
   so its ratio is exactly two. *)
let count_spans snap prefix =
  List.length
    (List.filter
       (fun s -> String.starts_with ~prefix s.Coop_obs.span_name)
       snap.Coop_obs.spans)

let executions_per_schedule ~two_pass =
  Coop_obs.reset ();
  Coop_obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Coop_obs.disable ();
      Coop_obs.reset ())
    (fun () ->
      let prog = infer_prog () in
      ignore
        (Infer.infer ~pool:(List.assoc 1 pools) ~max_steps:300_000 ~two_pass
           prog);
      let snap = Coop_obs.snapshot () in
      let schedules = count_spans snap "infer/schedule:" in
      let runs = count_spans snap "vm/run:" in
      Alcotest.(check bool) "portfolio ran schedules" true (schedules > 0);
      (schedules, runs))

let test_single_pass_executes_once () =
  let schedules, runs = executions_per_schedule ~two_pass:false in
  Alcotest.(check int) "one VM execution per schedule" schedules runs

let test_two_pass_executes_twice () =
  let schedules, runs = executions_per_schedule ~two_pass:true in
  Alcotest.(check int) "two VM executions per schedule" (2 * schedules) runs

(* --- Pipes: single-pass consumes what two-pass cannot --------------- *)

let test_channel_source () =
  let e = Option.get (Registry.find "philo") in
  let prog = Registry.program_of ~threads:3 ~size:2 e in
  let _, trace =
    Runner.record ~max_steps:3_000_000 ~sched:(Sched.random ~seed:3 ()) prog
  in
  let path = Filename.temp_file "coop_differential" ".tr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.with_file_sink path (fun sink -> Trace.iter sink trace);
      (* The single-pass checker consumes the channel in its one pass. *)
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Alcotest.(check bool) "piped check = recorded check" true
            (coop_result_equal
               (Cooperability.check_source (Source.of_channel ic))
               (Cooperability.check trace)));
      (* A channel source refuses to replay rather than stream garbage. *)
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let source = Source.of_channel ic in
          Alcotest.(check int) "first replay streams every event"
            (Trace.length trace) (Source.count source);
          let raised =
            try
              ignore (Source.count source);
              false
            with Invalid_argument _ -> true
          in
          Alcotest.(check bool) "second replay raises Invalid_argument" true
            raised))

(* --- Atomizer: deferred evaluation on deep, late and unfinished runs - *)

(* The single-pass Atomizer logs each op once and evaluates every
   activation at the end. Stress what that depends on: activations nested
   deeper than any random trace reaches, every level touching a variable
   and a lock that are learned racy and shared only after the recursion
   unwinds (so each level's verdict flips at the end), and streams that
   stop while activations are still open. *)
let deep_src ~racer_first =
  Printf.sprintf
    {|var x = 0;
var y = 0;
lock m;

fn deep(n) {
  x = x + 1;
  sync (m) { y = y + 1; }
  if (n > 0) {
    deep(n - 1);
  }
  x = x + 1;
}

fn racer() {
  sync (m) { y = 0; }
  x = 7;
}

fn main() {
  %s
}|}
    (if racer_first then "var t = spawn racer();\n  deep(40);\n  join t;"
     else "deep(40);\n  var t = spawn racer();\n  x = 1;\n  join t;")

let record ?(seed = 11) prog =
  snd
    (Runner.record ~max_steps:3_000_000 ~sched:(Sched.random ~seed ()) prog)

let max_nesting trace =
  let depth = Hashtbl.create 4 in
  Trace.fold
    (fun deepest (e : Event.t) ->
      let d = Option.value ~default:0 (Hashtbl.find_opt depth e.tid) in
      match e.op with
      | Event.Enter _ | Event.Atomic_begin ->
          Hashtbl.replace depth e.tid (d + 1);
          max deepest (d + 1)
      | Event.Exit _ | Event.Atomic_end ->
          Hashtbl.replace depth e.tid (d - 1);
          deepest
      | _ -> deepest)
    0 trace

(* Activations still open at the end of [trace]. *)
let open_activations trace =
  Trace.fold
    (fun n (e : Event.t) ->
      match e.op with
      | Event.Enter _ | Event.Atomic_begin -> n + 1
      | Event.Exit _ | Event.Atomic_end -> n - 1
      | _ -> n)
    0 trace

let prefix trace k =
  Trace.of_list (List.filteri (fun i _ -> i < k) (Trace.to_list trace))

let check_atomizer_modes name trace =
  let reference = Coop_atomicity.Atomizer.check_two_pass trace in
  Alcotest.(check bool)
    (name ^ ": single-pass = two-pass")
    true
    (Coop_atomicity.Atomizer.check trace = reference);
  reference

let test_atomizer_deep_nesting () =
  let late = record (Coop_lang.Compile.source (deep_src ~racer_first:false)) in
  Alcotest.(check bool) "recursion nests at least 32 deep" true
    (max_nesting late >= 32);
  let r = check_atomizer_modes "deep, race after unwinding" late in
  (* Only the late facts make the levels non-atomic (the innermost one
     needs the race on x): every one of the 41 [deep] activations must be
     flagged, which only final knowledge does. *)
  Alcotest.(check bool) "every level flagged" true
    (r.Coop_atomicity.Atomizer.violated_activations >= 41);
  let early = record (Coop_lang.Compile.source (deep_src ~racer_first:true)) in
  ignore (check_atomizer_modes "deep, racer alongside" early)

let test_atomizer_tsp () =
  let e = Option.get (Registry.find "tsp") in
  let trace = record ~seed:7 (Registry.program_of e) in
  let r = check_atomizer_modes "tsp" trace in
  Alcotest.(check bool) "tsp has warnings" true
    (r.Coop_atomicity.Atomizer.warnings <> [])

let test_atomizer_cut_off () =
  let deep = record (Coop_lang.Compile.source (deep_src ~racer_first:true)) in
  let tsp =
    record ~seed:7 (Registry.program_of (Option.get (Registry.find "tsp")))
  in
  List.iter
    (fun (name, trace) ->
      let n = Trace.length trace in
      List.iter
        (fun k ->
          let cut = prefix trace k in
          Alcotest.(check bool)
            (Printf.sprintf "%s cut at %d leaves activations open" name k)
            true
            (open_activations cut > 0);
          ignore
            (check_atomizer_modes (Printf.sprintf "%s cut at %d" name k) cut))
        [ n / 3; n / 2; (2 * n) / 3; n - 1 ])
    [ ("deep", deep); ("tsp", tsp) ]

let suite =
  [
    coop_on_traces;
    coop_on_late_traces;
    atomizer_on_traces;
    atomizer_on_late_traces;
    pipeline_on_late_traces;
    online_sink_agrees;
    coop_on_lock_saturated_traces;
    atomizer_on_lock_saturated_traces;
    pipeline_on_lock_saturated_traces;
    pipeline_on_late_programs;
    Alcotest.test_case "infer: identical across jobs and modes" `Slow
      test_infer_modes_agree;
    Alcotest.test_case "infer single-pass: 1 execution per schedule" `Quick
      test_single_pass_executes_once;
    Alcotest.test_case "infer two-pass: 2 executions per schedule" `Quick
      test_two_pass_executes_twice;
    Alcotest.test_case "channel source: consumable once, by one pass" `Quick
      test_channel_source;
    Alcotest.test_case "atomizer: deep nesting, late race" `Quick
      test_atomizer_deep_nesting;
    Alcotest.test_case "atomizer: tsp at default size" `Quick test_atomizer_tsp;
    Alcotest.test_case "atomizer: trace cut inside open activations" `Quick
      test_atomizer_cut_off;
  ]
