(* Determinism of the domain-parallel analyses: for every pool size the
   parallel paths must produce the same answers as the sequential ones —
   identical inferred yield sets for Infer, identical behaviour sets,
   completeness and deadlock counts for Explore. DPOR, which runs
   sequentially, must reproduce itself exactly from run to run. Checked
   on hand-written micro programs and on qcheck-generated
   concurrent programs. *)

(* Bind before [open QCheck2] shadows the module name (same dance as
   test_fuzz.ml). *)
let gen_program = Gen.gen_concurrent_program

open QCheck2
open Coop_util
open Coop_trace
open Coop_lang
open Coop_runtime
open Coop_core
open Coop_workloads

(* Module-level pools, shared across test cases; alcotest runs cases
   sequentially so there is no cross-test interference. Size 4 appears
   twice so every determinism check also compares two runs at the same
   size — work stealing makes the task interleaving different every run,
   and the answers must not be. *)
let pool2 = Pool.create ~jobs:2 ()
let pool4 = Pool.create ~jobs:4 ()
let pools =
  [ (1, Pool.create ~jobs:1 ()); (2, pool2); (4, pool4); (4, pool4) ]

let micro_programs =
  [ ("racy_counter 2x2", Micro.racy_counter ~threads:2 ~incs:2);
    ("check_then_act 2", Micro.check_then_act ~threads:2);
    ("check_then_act 3", Micro.check_then_act ~threads:3);
    ("single_transaction 3", Micro.single_transaction ~threads:3);
    ("producer_consumer 2", Micro.producer_consumer ~items:2) ]
  |> List.map (fun (name, src) -> (name, Compile.source src))

let loc_set = Alcotest.testable (Fmt.of_to_string (fun s ->
    String.concat ","
      (List.map (Format.asprintf "%a" Loc.pp) (Loc.Set.elements s))))
    Loc.Set.equal

(* --- Infer: bit-identical across pool sizes ------------------------- *)

let test_infer_deterministic () =
  List.iter
    (fun (name, prog) ->
      (* Spin-wait micros produce very long runs under unfair random
         schedules; the step cap keeps the portfolio cheap and determinism
         holds regardless (truncation is itself deterministic). *)
      let reference =
        Infer.infer ~pool:(List.assoc 1 pools) ~max_steps:300_000 prog
      in
      List.iter
        (fun (jobs, pool) ->
          let r = Infer.infer ~pool ~max_steps:300_000 prog in
          Alcotest.check loc_set
            (Printf.sprintf "%s: yields identical at jobs=%d" name jobs)
            reference.Infer.yields r.Infer.yields;
          Alcotest.(check int)
            (Printf.sprintf "%s: rounds identical at jobs=%d" name jobs)
            reference.Infer.rounds r.Infer.rounds;
          Alcotest.(check int)
            (Printf.sprintf "%s: initial violations identical at jobs=%d" name
               jobs)
            reference.Infer.initial_violations r.Infer.initial_violations;
          Alcotest.(check int)
            (Printf.sprintf "%s: clean final check at jobs=%d" name jobs)
            0 r.Infer.final_check_violations)
        pools)
    micro_programs

(* --- Explore: same behaviours / completeness / deadlocks ------------ *)

let explore_agrees name prog =
  List.iter
    (fun mode ->
      let seq = Explore.run mode prog in
      Alcotest.(check bool)
        (Printf.sprintf "%s: sequential exploration complete" name)
        true seq.Explore.complete;
      List.iter
        (fun (jobs, pool) ->
          let par = Explore.run ~pool mode prog in
          Alcotest.(check bool)
            (Printf.sprintf "%s: complete at jobs=%d" name jobs)
            true par.Explore.complete;
          Alcotest.(check bool)
            (Printf.sprintf "%s: behaviours equal at jobs=%d" name jobs)
            true
            (Behavior.Set.equal seq.Explore.behaviors par.Explore.behaviors);
          Alcotest.(check int)
            (Printf.sprintf "%s: deadlocks equal at jobs=%d" name jobs)
            seq.Explore.deadlocks par.Explore.deadlocks)
        pools)
    [ Explore.Preemptive; Explore.Cooperative ]

let test_explore_deterministic () =
  List.iter (fun (name, prog) -> explore_agrees name prog) micro_programs

(* A deadlocking program: parallel shards must not double-count the
   deadlocked terminal states they share. *)
let test_explore_deadlock_dedup () =
  let prog = Compile.source (Micro.deadlock_prone ()) in
  explore_agrees "deadlock_prone" prog

(* --- DPOR: same behaviours ------------------------------------------ *)

(* DPOR is stateless: it only terminates on programs all of whose
   executions terminate, so spin-wait micros (producer_consumer) are out,
   and check_then_act stays at 2 threads to keep the execution count
   small. *)
let dpor_programs =
  [ ("racy_counter 2x2", Micro.racy_counter ~threads:2 ~incs:2);
    ("check_then_act 2", Micro.check_then_act ~threads:2);
    ("single_transaction 2", Micro.single_transaction ~threads:2);
    ("single_transaction 3", Micro.single_transaction ~threads:3) ]
  |> List.map (fun (name, src) -> (name, Compile.source src))

(* DPOR runs sequentially; a second run (with its own checkpoint store)
   must reproduce the first exactly. *)
let dpor_same (a : Dpor.result) (b : Dpor.result) =
  a.Dpor.complete = b.Dpor.complete
  && a.Dpor.executions = b.Dpor.executions
  && a.Dpor.novel_steps = b.Dpor.novel_steps
  && Behavior.Set.equal a.Dpor.behaviors b.Dpor.behaviors

let test_dpor_deterministic () =
  List.iter
    (fun (name, prog) ->
      let seq = Dpor.run prog in
      Alcotest.(check bool)
        (Printf.sprintf "%s: sequential dpor complete" name)
        true seq.Dpor.complete;
      Alcotest.(check bool)
        (Printf.sprintf "%s: second run identical" name)
        true
        (dpor_same seq (Dpor.run prog)))
    dpor_programs

(* --- Equivalence: the verdict is pool-independent -------------------- *)

let test_equivalence_deterministic () =
  List.iter
    (fun (name, prog) ->
      let inf =
        Infer.infer ~pool:(List.assoc 1 pools) ~max_steps:300_000 prog
      in
      let seq = Equivalence.compare ~yields:inf.Infer.yields prog in
      List.iter
        (fun (jobs, pool) ->
          let par = Equivalence.compare ~pool ~yields:inf.Infer.yields prog in
          Alcotest.(check bool)
            (Printf.sprintf "%s: equal verdict stable at jobs=%d" name jobs)
            seq.Equivalence.equal par.Equivalence.equal;
          Alcotest.(check bool)
            (Printf.sprintf "%s: subset verdict stable at jobs=%d" name jobs)
            seq.Equivalence.preemptive_subset par.Equivalence.preemptive_subset)
        pools)
    micro_programs

(* --- The same properties on random programs -------------------------- *)

let prop name count f =
  QCheck_alcotest.to_alcotest
    (Test.make ~name ~count ~print:Pretty.program gen_program f)

let infer_parallel_matches =
  prop "qcheck: parallel inference = sequential inference" 20 (fun p ->
      let prog = Compile.program p in
      let reference =
        Infer.infer ~pool:(List.assoc 1 pools) ~max_steps:300_000 prog
      in
      List.for_all
        (fun (_, pool) ->
          let r = Infer.infer ~pool ~max_steps:300_000 prog in
          Loc.Set.equal reference.Infer.yields r.Infer.yields
          && reference.Infer.rounds = r.Infer.rounds)
        pools)

let explore_parallel_matches =
  prop "qcheck: parallel exploration = sequential exploration" 8 (fun p ->
      let prog = Compile.program p in
      (* Generated programs always terminate, but cap the space anyway and
         only compare when the sequential pass is complete (budget
         exhaustion makes the behaviour set schedule-dependent). *)
      let seq = Explore.run ~max_states:40_000 Explore.Preemptive prog in
      (not seq.Explore.complete)
      || List.for_all
           (fun (_, pool) ->
             let par =
               Explore.run ~pool ~max_states:40_000 Explore.Preemptive prog
             in
             par.Explore.complete
             && Behavior.Set.equal seq.Explore.behaviors par.Explore.behaviors
             && seq.Explore.deadlocks = par.Explore.deadlocks)
           pools)

let dpor_deterministic =
  prop "qcheck: dpor deterministic across runs" 8 (fun p ->
      let prog = Compile.program p in
      dpor_same
        (Dpor.run ~max_executions:40_000 prog)
        (Dpor.run ~max_executions:40_000 prog))

let suite =
  [
    Alcotest.test_case "infer deterministic across pool sizes" `Quick
      test_infer_deterministic;
    Alcotest.test_case "explore deterministic across pool sizes" `Quick
      test_explore_deterministic;
    Alcotest.test_case "explore dedupes deadlocks across shards" `Quick
      test_explore_deadlock_dedup;
    Alcotest.test_case "dpor deterministic across runs" `Quick
      test_dpor_deterministic;
    Alcotest.test_case "equivalence verdict pool-independent" `Quick
      test_equivalence_deterministic;
    infer_parallel_matches;
    explore_parallel_matches;
    dpor_deterministic;
  ]
