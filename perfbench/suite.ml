module Registry = Coop_workloads.Registry
module Micro = Coop_workloads.Micro

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> invalid_arg ("perfbench: unknown workload " ^ name)

let scaled name k = (name, k * (entry name).Registry.default_size)

let check_programs =
  [ scaled "series" 8; scaled "sparse" 8; scaled "crypt" 8; scaled "sor" 4;
    scaled "lufact" 1; scaled "moldyn" 2; scaled "montecarlo" 8;
    scaled "raytracer" 8; scaled "philo" 8; scaled "bank" 8;
    scaled "queue" 8; scaled "elevator" 8; scaled "tsp" 8; scaled "hedc" 8 ]

let sched_seeds = List.init 8 (fun i -> i + 1)
let seeds_per_program = 2
let pair_key name size seed = Printf.sprintf "pair:%s/s%d/seed%d" name size seed

let registry_source ?threads ~size name =
  let e = entry name in
  let threads = Option.value threads ~default:e.Registry.default_threads in
  e.Registry.source ~threads ~size

let dpor_cases () =
  let micro name src = ("dpor:" ^ name, src) in
  let registry name ~threads ~size =
    ( Printf.sprintf "dpor:%s(t%d s%d)" name threads size,
      registry_source ~threads ~size name )
  in
  [ micro "racy_counter(2x2)" (Micro.racy_counter ~threads:2 ~incs:2);
    micro "racy_counter(3x1)" (Micro.racy_counter ~threads:3 ~incs:1);
    micro "locked_counter(2x3)"
      (Micro.locked_counter ~threads:2 ~incs:3 ~yield_at_loop:false);
    micro "check_then_act(2)" (Micro.check_then_act ~threads:2);
    micro "single_transaction(3)" (Micro.single_transaction ~threads:3);
    registry "bank" ~threads:2 ~size:2;
    registry "philo" ~threads:3 ~size:1;
    registry "bank" ~threads:3 ~size:1 ]

let infer_programs () =
  List.map
    (fun name ->
      ( "infer:" ^ name,
        registry_source ~size:(entry name).Registry.default_size name ))
    [ "sor"; "lufact"; "moldyn"; "queue"; "elevator"; "hedc"; "philo";
      "bank"; "tsp"; "raytracer"; "crypt" ]

let infer_max_steps = 50_000
let infer_jobs = 1
