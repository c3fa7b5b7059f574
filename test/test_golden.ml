(* Golden traces: the MD5 of every run's coop-trace/v1 encoding, with its
   step count and termination, pinned for each registry workload at its
   default size. Any change to the VM's interpretation, event emission or
   scheduling loop that alters a single event of a concurrent run shows
   up here — the sequential reference evaluator cannot pin these, since
   it rejects [spawn]. *)

open Coop_runtime
open Coop_workloads

(* The yield set [infer philo] settles on at default parameters:
   philosopher, pc 25, line 16. *)
let philo_yields =
  Coop_trace.Loc.Set.singleton (Coop_trace.Loc.make ~func:0 ~pc:25 ~line:16)

let schedulers =
  [ ("random1", fun () -> Sched.random ~seed:1 ());
    ("random2", fun () -> Sched.random ~seed:2 ());
    ("coop", fun () -> Sched.cooperative ()) ]

let runs =
  List.concat_map
    (fun (e : Registry.entry) ->
      List.map
        (fun (sname, sched) ->
          (e.Registry.name ^ "/" ^ sname, e.Registry.name, None, sched))
        schedulers)
    Registry.all
  @ [ ("philo/random1+yields", "philo", Some philo_yields,
       fun () -> Sched.random ~seed:1 ()) ]

let term_string = function
  | Runner.Completed -> "completed"
  | Runner.Deadlock -> "deadlock"
  | Runner.Step_limit -> "step-limit"

let digest_of (_, name, yields, sched) =
  let entry = Option.get (Registry.find name) in
  let prog = Registry.program_of entry in
  let o, trace = Runner.record ?yields ~sched:(sched ()) prog in
  Printf.sprintf "%d %s %s" o.Runner.steps
    (term_string o.Runner.termination)
    (Digest.to_hex (Digest.string (Coop_trace.Codec.to_string trace)))

(* (run, "steps termination md5"), recorded before the flat VM landed. *)
let expected = [
  ("series/random1", "23567 completed 5bbda0cf3208763c9410a9e37bafd58f");
  ("series/random2", "23566 completed e639f51d253ed7fa177ab7be125a5016");
  ("series/coop", "23565 completed 6f6498360714e0481d9cce1ccbf0b961");
  ("sparse/random1", "6447 completed acc0768cf8c1bead2347c97032fe1325");
  ("sparse/random2", "6447 completed 50ed486f3b2a0022542cb5bd35e7b56e");
  ("sparse/coop", "6447 completed ad56de5de213109c9a777a144cf2e7c1");
  ("crypt/random1", "3251 completed 9c61cf57fe044a4be3951cb8cc24c594");
  ("crypt/random2", "3251 completed e1a4667ae3f9dad4b6ca199346b399e2");
  ("crypt/coop", "3248 completed 233dea39c3114cd2ae45df1ebb4e0f3c");
  ("sor/random1", "21186 completed 402d9bbadfc3eb69390a46e687a71578");
  ("sor/random2", "21256 completed a6d5d3129ba48647c151c2fa000761e2");
  ("sor/coop", "17607 completed 9c9dbe4ee547c1a266f41cfc595c1c3b");
  ("lufact/random1", "16158 completed 3ce1aaadd76c27ef405ae0daed6fd791");
  ("lufact/random2", "16027 completed 514853bdea3a01a9523b11174ed8bd49");
  ("lufact/coop", "12435 completed 2c58afecfc4972512ac56f2235a77a99");
  ("moldyn/random1", "42916 completed 6eebc298c701a08afec3d2f195ebd4e6");
  ("moldyn/random2", "42700 completed b112557dc403ae7032818cc59e2b7fce");
  ("moldyn/coop", "42071 completed 296d3ac4ba9fa2df2dda7cf35b70c133");
  ("montecarlo/random1", "41912 completed c8994fac2ae75a1512650d04ad0770c1");
  ("montecarlo/random2", "41911 completed 8a0f669f048ade3a08aef43ec497bc8f");
  ("montecarlo/coop", "41909 completed abee45a781c2a5c4366c458be369e6eb");
  ("raytracer/random1", "13868 completed 98c15189180a20658fdae25744645519");
  ("raytracer/random2", "13861 completed 62347661880c65338180f44686d15ad6");
  ("raytracer/coop", "13847 completed f4058aeaa6bca378a2be1aa749d7809f");
  ("philo/random1", "1956 completed e61f55b66867264615a0cffe643d8ce6");
  ("philo/random2", "1955 completed b2b39cf71fab075428048b6684309c1a");
  ("philo/coop", "1889 completed 26efee378570b6ec7726bb168a051d35");
  ("bank/random1", "9711 completed 4e0b22d72d8dc01eb2f50e114e69a24c");
  ("bank/random2", "9717 completed b9e7ecac7c376b57a7d2469f17ce8ddf");
  ("bank/coop", "9703 completed 7222d8b9931ccb57f4f49ec5e739eb49");
  ("queue/random1", "7298 completed 0ae97ef6385f0dcdee49defcc4f838b1");
  ("queue/random2", "7217 completed 27152a0ad5cc3bce15d96a924a3b43ac");
  ("queue/coop", "7011 completed e4f6b4dfb90e37a990fbf8c7e58719b5");
  ("elevator/random1", "5938 completed ae3bedc330ad8484913c3b88e181dd12");
  ("elevator/random2", "5836 completed c51e8c7b0fe45161fa7a5479a026dbcd");
  ("elevator/coop", "6168 completed 5908f95981e0d597779e1885aceee131");
  ("tsp/random1", "25335 completed 60944c65ff93e43f47b1b7ff0b1b9ca3");
  ("tsp/random2", "25412 completed ba6b0ca35a77c1a629393ec087e3f4f2");
  ("tsp/coop", "22593 completed b0955f26781b2d515dac3e716fd8270f");
  ("hedc/random1", "15827 completed 7a1c8fa84de6b75b0d5ba80ad0501f96");
  ("hedc/random2", "16013 completed c491400e8567a27c0c1b30aceab65ede");
  ("hedc/coop", "15631 completed 7653fdc53d4e79577aa55ce63a7edef3");
  ("philo/random1+yields", "2048 completed 66420b811a279d2276ceb7d7a224ea31");
]

let test_golden () =
  List.iter
    (fun ((label, _, _, _) as run) ->
      let got = digest_of run in
      match List.assoc_opt label expected with
      | Some want -> Alcotest.(check string) label want got
      | None -> Printf.printf "  (%S, %S);\n" label got)
    runs;
  Alcotest.(check int) "every run pinned" (List.length runs)
    (List.length expected)

let suite = [ Alcotest.test_case "registry traces" `Quick test_golden ]
