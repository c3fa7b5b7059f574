(* The snapshot/restore law of the flat VM. A state restored from a
   snapshot and driven along the rest of a schedule gives the same events,
   behaviour and key as the original run; stepping a restored state never
   changes its snapshot; two restores of one snapshot are independent;
   restoring into an existing state equals a fresh restore; and a
   snapshot's word count is exactly what it retains. *)

let gen_program = Gen.gen_concurrent_program

open QCheck2
open Coop_lang
open Coop_runtime
open Coop_workloads
module Trace = Coop_trace.Trace

(* Words a snapshot retains beyond the per-run code it shares (its first
   field). *)
let own_words (s : Vm.snapshot) =
  let r = Obj.repr s in
  Obj.reachable_words r - Obj.reachable_words (Obj.field r 0)

let drive st tids ~sink = List.iter (fun tid -> Vm.step st tid ~sink) tids

let split k l = (List.filteri (fun i _ -> i < k) l, List.filteri (fun i _ -> i >= k) l)

let encode trace = Coop_trace.Codec.to_string trace

(* Run [prog] under [sched] recording its decisions, then replay them with a
   snapshot taken after [cut] steps, checking the law along the way. *)
let law ?yields prog sched cut =
  let decisions, sched = Sched.recorded sched in
  let full = Trace.create () in
  let o =
    Runner.run ?yields ~max_steps:300_000 ~sched
      ~sink:(Trace.Sink.recording full) prog
  in
  let tids = decisions () in
  let cut = if tids = [] then 0 else cut mod (List.length tids + 1) in
  let before, after = split cut tids in
  let replayed = Trace.create () in
  let sink = Trace.Sink.recording replayed in
  let st = Vm.init ?yields prog in
  drive st before ~sink;
  let snap = Vm.snapshot st in
  let key_at = Vm.key st in
  let words_at = Vm.approx_words snap in
  let resumed = Vm.restore snap in
  let other = Vm.restore snap in
  let same_key_on_restore = Vm.key resumed = key_at in
  drive resumed after ~sink;
  (* [st] itself continues independently of both. *)
  drive st after ~sink:Trace.Sink.ignore;
  let fresh = Vm.restore snap in
  (* [st] has run to the end of the schedule: restoring the cut into it
     rewinds it, and it then replays the tail like the original run. *)
  Vm.restore_into snap st;
  let rewound_key = Vm.key st in
  drive st after ~sink:Trace.Sink.ignore;
  same_key_on_restore
  && rewound_key = key_at
  && Behavior.equal (Behavior.of_state st) (Runner.behavior_of o)
  && encode replayed = encode full
  && Behavior.equal (Behavior.of_state resumed) (Runner.behavior_of o)
  && Vm.key resumed = Vm.key o.Runner.final
  && Vm.key st = Vm.key o.Runner.final
  && Vm.key other = key_at
  && Vm.key fresh = key_at
  && Vm.approx_words snap = words_at
  && words_at = own_words snap

let prop_law =
  QCheck_alcotest.to_alcotest
    (Test.make ~name:"snapshot/restore law on generated programs" ~count:80
       ~print:(fun (p, seed, cut) ->
         Printf.sprintf "seed=%d cut=%d\n%s" seed cut (Pretty.program p))
       Gen.(triple gen_program (int_range 0 1000) (int_range 0 5000))
       (fun (p, seed, cut) ->
         law (Compile.program p) (Sched.random ~seed ()) cut))

(* Every cut of a run whose state exercises what generated programs do
   not: call frames and recursion, faults, wait/notify, injected
   yields. *)
let every_cut ?yields prog sched =
  let decisions, sched = Sched.recorded sched in
  let o =
    Runner.run ?yields ~max_steps:300_000 ~sched ~sink:Trace.Sink.ignore prog
  in
  let st = Vm.init ?yields prog in
  (* Restored into at every step, so it grows from the initial state's
     one thread to the run's peak. *)
  let recycled = Vm.init ?yields prog in
  List.iteri
    (fun i tid ->
      let s = Vm.snapshot st in
      let r = Vm.restore s in
      Vm.restore_into s recycled;
      if Vm.key r <> Vm.key st then
        Alcotest.failf "step %d: restored key differs" i;
      if Vm.key recycled <> Vm.key st then
        Alcotest.failf "step %d: key restored in place differs" i;
      if Vm.runnable recycled <> Vm.runnable st then
        Alcotest.failf "step %d: runnable set restored in place differs" i;
      if Vm.approx_words s <> own_words s then
        Alcotest.failf "step %d: %d words counted, %d retained" i
          (Vm.approx_words s) (own_words s);
      if Vm.last_step_yielded r <> Vm.last_step_yielded st then
        Alcotest.failf "step %d: last_step_yielded differs" i;
      if Vm.runnable r <> Vm.runnable st then
        Alcotest.failf "step %d: runnable sets differ" i;
      Vm.step st tid ~sink:Trace.Sink.ignore)
    (decisions ());
  Alcotest.(check bool) "behaviour" true
    (Behavior.equal (Behavior.of_state st) (Runner.behavior_of o));
  Alcotest.(check (list (pair int string))) "failures"
    (Vm.failures o.Runner.final) (Vm.failures st)

let test_every_cut () =
  let cases =
    [ ( "calls",
        "var x = 0; fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }\n\
         fn w(k) { x = x + fib(k); } fn main() { var a = spawn w(5); var b = spawn w(6);\n\
         join a; join b; print(x); }" );
      ( "faults",
        "array a[2]; fn bad(i) { a[i] = 1; } fn div(d) { print(10 / d); }\n\
         fn main() { var t = spawn bad(5); var u = spawn div(0); var v = spawn div(2);\n\
         join t; join u; join v; assert(0); }" );
      ("monitor", Micro.monitor_cell ~items:3);
      ("notify one", "var woke = 0; lock m;\n\
         fn waiter() { sync (m) { wait(m); woke = woke + 1; } }\n\
         fn main() { var a = spawn waiter(); var b = spawn waiter(); yield; yield;\n\
         sync (m) { notify(m); } join a; join b; }") ]
  in
  List.iter
    (fun (_, src) ->
      let prog = Compile.source src in
      List.iter (fun seed -> every_cut prog (Sched.random ~seed ())) [ 1; 2; 3 ];
      every_cut prog (Sched.cooperative ()))
    cases;
  let philo = Registry.program_of (Option.get (Registry.find "philo")) in
  let yields = Test_golden.philo_yields in
  every_cut ~yields philo (Sched.random ~seed:1 ());
  Alcotest.(check bool) "law with injected yields" true
    (List.for_all
       (fun cut -> law ~yields philo (Sched.random ~seed:4 ()) cut)
       [ 0; 1; 17; 500; 1500 ]);
  Alcotest.check_raises "restore_into another program's state"
    (Invalid_argument "Vm.restore_into: snapshot of another program")
    (fun () ->
      Vm.restore_into
        (Vm.snapshot (Vm.init philo))
        (Vm.init (Compile.source "fn main() { }")))

let suite =
  [ prop_law; Alcotest.test_case "every cut" `Quick test_every_cut ]
