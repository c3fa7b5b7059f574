(* The repository benchmark: one closed-loop workload per process.

   main.exe --workload check|trace|dpor|infer --seed N --seconds S
            --trace 0|1 --expected perfbench/expected.tsv --work-dir DIR

   One client runs ops back to back, in whole passes ("cycles") over the
   workload's inputs, each cycle in a seed-shuffled order, until S
   seconds have passed. Every op's verdict digest is compared with
   expected.tsv; a mismatch, an exception or a checkpoint store that
   broke its byte cap counts as a failed op. With --trace 0 the last stdout line
   carries the end-to-end metrics; with --trace 1 it carries the
   per-layer metrics of a separate traced run (see NOTES.md). *)

open Coop_trace
open Coop_runtime
module Pool = Coop_util.Pool
module Ckpt = Coop_util.Ckpt_cache
module Infer = Coop_core.Infer
open Perfbench_core

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* ---------------------------------------------------------------- *)
(* Statistics                                                         *)
(* ---------------------------------------------------------------- *)

let quantile q = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

let peak_rss_mb () =
  let kb =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> 0
            | Some l when String.starts_with ~prefix:"VmHWM:" l ->
                Scanf.sscanf l "VmHWM: %d kB" Fun.id
            | Some _ -> go ()
          in
          go ())
    with Sys_error _ -> 0
  in
  float_of_int kb /. 1024.

(* ---------------------------------------------------------------- *)
(* Host speed                                                         *)
(* ---------------------------------------------------------------- *)

(* The host is a few virtual CPUs of a shared machine whose speed drifts
   by tens of per cent over seconds to minutes, moving every op of a run
   alike. The benchmark runs a fixed reference kernel of its own between
   the ops (a pseudo-random walk over a small table and hash-table
   updates; no code of the repository) and reports the end-to-end times
   at the host's nominal speed: measured time x [nominal_chunk_s] / the
   reference chunk's time measured alongside. A change to the program
   moves its op times but not the kernel's, so it shows in full; a change
   of host speed moves both and cancels (see NOTES.md). *)
module Calib = struct
  let mask = 2047
  let table = Array.init (mask + 1) (fun i -> (i * 40503) land mask)
  let h : (int, int) Hashtbl.t = Hashtbl.create 256

  let () =
    for k = 0 to 255 do
      Hashtbl.replace h k 0
    done

  (* Allocation-free, over ~26 KiB that stay in the core's caches once
     warm, so neither the program's heap (and the major GC work it leaves
     pending) nor what its ops left in the caches enters the time. *)
  let run iters =
    let j = ref 1 and acc = ref 0 in
    for i = 1 to iters do
      j := table.((!j + i) land mask);
      if i land 15 = 0 then Hashtbl.replace h (!j land 255) i;
      acc := !acc + ((!j lxor i) land 7)
    done;
    ignore (Sys.opaque_identity !acc)

  (* A fixed scale: near one chunk's time on the NOTES.md baseline machine
     with a quiet host. *)
  let nominal_chunk_s = 140e-6

  (* [n] chunks after an untimed warming pass; their total time. *)
  let sample n =
    run 4_000;
    let t0 = now () in
    for _ = 1 to n do
      run 25_000
    done;
    now () -. t0

  (* Host slowness over [n] chunks: 1 at nominal speed, 2 at half. *)
  let slowness n = sample n /. float_of_int n /. nominal_chunk_s
end

(* ---------------------------------------------------------------- *)
(* Ops                                                                *)
(* ---------------------------------------------------------------- *)

type outcome = {
  digest : string;
  events : int;  (** Events analysed; novel transitions for [dpor]. *)
  execs : int;  (** Program executions the op covered. *)
  rounds : int;  (** Inference rounds; 1 for the other workloads. *)
  over_cap : bool;  (** A checkpoint store broke its byte cap. *)
  probe : (string * float) list;  (** Layer readings for the traced run. *)
}

type input = { key : string; op : unit -> unit -> outcome }
(** [op ()] is the timed work; the thunk it returns builds the verdict
    outside the timing. *)

let plain ~events ~execs ~rounds digest =
  { digest; events; execs; rounds; over_cap = false; probe = [] }

let probe_sum ops name =
  sum (List.map (fun (_, _, p) -> List.assoc name p) ops)

(* "The byte cap holds", seen from outside the store: at rest it retains
   at most [cap_bytes], and its peak passes the cap only while an add has
   not yet evicted, so a peak over the cap needs an eviction and is at
   most the cap plus the heaviest entry ([heaviest], where the benchmark
   weighs the entries itself). *)
let ckpt_probe ?(heaviest = max_int) store =
  let s = Ckpt.stats store and cap = Ckpt.cap_bytes store in
  ( s.Ckpt.bytes > cap
    || s.peak_bytes > cap
       && (s.evictions = 0 || s.peak_bytes - cap > heaviest),
    [ ("hits", float_of_int s.hits); ("misses", float_of_int s.misses);
      ("evictions", float_of_int s.evictions);
      ("peak_bytes", float_of_int s.peak_bytes) ] )

let ckpt_metrics ops =
  let t = probe_sum ops in
  [ ("ckpt.hit_rate", ratio (t "hits") (t "hits" +. t "misses"));
    ("ckpt.evictions", t "evictions");
    ( "ckpt.peak_mb",
      List.fold_left
        (fun m (_, _, p) -> Float.max m (List.assoc "peak_bytes" p))
        0. ops
      /. 1048576. ) ]

(* What a workload hands the main loop after set-up. [layers] runs the
   traced replays; it gets, per input, the traced loop's median op time
   and median probe readings, and returns attribution rows (seconds per
   cycle, unattributed excluded) and per-layer metrics. *)
type prepared = {
  inputs : input list;
  compile_s : float;
  trace_on : unit -> unit;  (** Switch the ops to their traced form. *)
  layers :
    deadline:float ->
    (string * float * (string * float) list) list ->
    (string * float) list * (string * float) list;
  teardown : unit -> unit;
}

let compile_all srcs =
  timed (fun () ->
      List.map (fun (k, src) -> (k, Coop_lang.Compile.source src)) srcs)

let warm_up inputs =
  List.iter (fun i -> let (_ : unit -> outcome) = i.op () in ()) inputs

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Layer replays: measure every item at least once, and again while the
   deadline allows (at most [max_reps] times); per-item medians. *)
let replay ~deadline ?(max_reps = 5) items measure =
  let samples = List.map (fun it -> (it, ref [])) items in
  let rec reps k =
    List.iter (fun (it, acc) -> acc := measure it :: !acc) samples;
    if k < max_reps && now () < deadline then reps (k + 1)
  in
  reps 1;
  List.map
    (fun (it, acc) ->
      let names = List.map fst (List.hd !acc) in
      ( it,
        List.map
          (fun n -> (n, median (List.map (List.assoc n) !acc)))
          names ))
    samples

let total name per_item =
  sum (List.map (fun (_, m) -> List.assoc name m) per_item)

(* VM alone on one (program, scheduler) run, plus the same run emitting
   into an event counter: the interpretation and emission layers. Runs
   too short to time alone are repeated [reps] times. *)
let vm_alone ?yields ?max_steps ?(reps = 1) ~sched prog =
  let repeat f =
    let t, r =
      timed (fun () ->
          for _ = 2 to reps do
            ignore (f ())
          done;
          f ())
    in
    (t /. float_of_int reps, r)
  in
  let mw0 = Gc.minor_words () in
  let t_ignore, o =
    repeat (fun () ->
        Runner.run ?yields ?max_steps ~sched:(sched ())
          ~sink:Trace.Sink.ignore prog)
  in
  let mw = (Gc.minor_words () -. mw0) /. float_of_int reps in
  let t_count, (_, events) =
    repeat (fun () ->
        Runner.analyze ?yields ?max_steps ~sched:(sched ())
          (Analysis.count ()) prog)
  in
  ( o,
    [ ("vm_s", t_ignore); ("emit_s", t_count -. t_ignore);
      ("steps", float_of_int o.Runner.steps); ("vm_words", mw);
      ("vm_events", float_of_int events) ] )

let vm_metrics per_item =
  let steps = total "steps" per_item in
  let events = total "vm_events" per_item in
  [ ("vm.ns_per_step", 1e9 *. ratio (total "vm_s" per_item) steps);
    ("vm.minor_words_per_step", ratio (total "vm_words" per_item) steps);
    ("vm.steps_per_event", ratio steps events);
    ("vm.emit_ns_per_event", 1e9 *. ratio (total "emit_s" per_item) events) ]

(* ---------------------------------------------------------------- *)
(* check and trace: the fused pipeline, live or over a recording      *)
(* ---------------------------------------------------------------- *)

(* The (program, scheduler seed) pairs of one run, programs compiled. *)
let compiled_pairs rng =
  let pairs =
    List.concat_map
      (fun (name, size) ->
        let seeds = Array.of_list Suite.sched_seeds in
        shuffle rng seeds;
        List.init Suite.seeds_per_program (fun i -> (name, size, seeds.(i))))
      Suite.check_programs
  in
  let id n s = Printf.sprintf "%s/%d" n s in
  let compile_s, progs =
    compile_all
      (List.map
         (fun (n, s) -> (id n s, Suite.registry_source ~size:s n))
         Suite.check_programs)
  in
  ( compile_s,
    List.map
      (fun (n, s, seed) -> (n, s, seed, List.assoc (id n s) progs))
      pairs )

let random_sched seed () = Sched.random ~seed ()

let pipeline_outcome (r : Coop_pipeline.result) =
  plain ~events:r.events ~execs:1 ~rounds:1 (Verdict.pipeline r)

(* Per pair: the VM alone, every checker alone over the in-memory
   recording, the whole pipeline over it with and without the Atomizer,
   and the codec both ways. *)
let analysis_layers ~work_dir (name, size, seed, prog) =
  let sched = random_sched seed in
  let _, vm = vm_alone ~sched prog in
  let _, tr = Runner.record ~sched:(sched ()) prog in
  let src = Source.of_trace tr in
  let alone a = fst (timed (fun () -> Source.run src a)) in
  let t_ft = alone (Coop_race.Fasttrack.analysis ()) in
  let t_online = alone (Coop_core.Cooperability.online_analysis ()) in
  let t_dead = alone (Coop_core.Deadlock.analysis ()) in
  let mw0 = Gc.minor_words () in
  let t_pipe, r = timed (fun () -> Coop_pipeline.run ~atomize:true src) in
  let pipe_words = Gc.minor_words () -. mw0 in
  let t_noatom, _ = timed (fun () -> Coop_pipeline.run src) in
  let t_enc, bytes = timed (fun () -> Codec.to_string tr) in
  let file =
    Filename.concat work_dir
      (Printf.sprintf "layers-%s-%d-%d.cpt" name size seed)
  in
  Out_channel.with_open_bin file (fun oc -> output_string oc bytes);
  let t_dec, () = timed (fun () -> Codec.iter_file file ignore) in
  Sys.remove file;
  let events = float_of_int r.Coop_pipeline.events in
  vm
  @ [ ("events", events); ("fasttrack_s", t_ft); ("online_s", t_online -. t_ft);
      ("deadlock_s", t_dead); ("atomizer_s", t_pipe -. t_noatom);
      ("pipeline_s", t_pipe); ("pipeline_words", pipe_words);
      ("encode_s", t_enc); ("decode_s", t_dec);
      ("bytes", float_of_int (String.length bytes)) ]

let analysis_report ~live ~deadline ~work_dir pairs ops =
  let per_item = replay ~deadline pairs (analysis_layers ~work_dir) in
  let t name = total name per_item in
  let events = t "events" in
  let op_s = sum (List.map (fun (_, m, _) -> m) ops) in
  let per_ev name = 1e9 *. ratio (t name) events in
  let checkers = [ "fasttrack"; "online"; "deadlock"; "atomizer" ] in
  let dispatch =
    t "pipeline_s" -. sum (List.map (fun c -> t (c ^ "_s")) checkers)
  in
  let front =
    if live then [ ("vm_interp", t "vm_s"); ("vm_emit", t "emit_s") ]
    else [ ("codec_decode", t "decode_s") ]
  in
  let rows =
    front @ List.map (fun c -> (c, t (c ^ "_s"))) checkers
    @ [ ("dispatch", dispatch) ]
  in
  let live_metrics =
    if live then
      [ ("vm.share", ratio (t "vm_s") op_s);
        ( "pipeline.live_gap_ns_per_event",
          1e9 *. ratio (op_s -. t "vm_s" -. t "pipeline_s") events ) ]
    else []
  in
  ( rows,
    vm_metrics per_item @ live_metrics
    @ [ ("codec.encode_ns_per_event", per_ev "encode_s");
        ("codec.decode_ns_per_event", per_ev "decode_s");
        ("codec.bytes_per_event", ratio (t "bytes") events);
        ("pipeline.ns_per_event", per_ev "pipeline_s");
        ("pipeline.minor_words_per_event", ratio (t "pipeline_words") events) ]
    @ List.map (fun c -> (c ^ ".ns_per_event", per_ev (c ^ "_s"))) checkers )

let setup_check ~rng ~work_dir () =
  let compile_s, pairs = compiled_pairs rng in
  let inputs =
    List.map
      (fun (n, s, seed, prog) ->
        let op () =
          let r =
            Coop_pipeline.run ~atomize:true
              (Runner.source ~sched:(random_sched seed) prog)
          in
          fun () -> pipeline_outcome r
        in
        { key = Suite.pair_key n s seed; op })
      pairs
  in
  warm_up inputs;
  { inputs; compile_s; trace_on = ignore;
    layers =
      (fun ~deadline ops ->
        analysis_report ~live:true ~deadline ~work_dir pairs ops);
    teardown = ignore }

let setup_trace ~rng ~work_dir () =
  let compile_s, pairs = compiled_pairs rng in
  let files =
    List.map
      (fun (n, s, seed, prog) ->
        let _, tr = Runner.record ~sched:(Sched.random ~seed ()) prog in
        let file =
          Filename.concat work_dir (Printf.sprintf "%s-%d-%d.cpt" n s seed)
        in
        Codec.save file tr;
        file)
      pairs
  in
  let inputs =
    List.map2
      (fun (n, s, seed, _) file ->
        let op () =
          let r = Coop_pipeline.run ~atomize:true (Source.of_file file) in
          fun () -> pipeline_outcome r
        in
        { key = Suite.pair_key n s seed; op })
      pairs files
  in
  warm_up inputs;
  { inputs; compile_s; trace_on = ignore;
    layers =
      (fun ~deadline ops ->
        analysis_report ~live:false ~deadline ~work_dir pairs ops);
    teardown = (fun () -> List.iter Sys.remove files) }

(* ---------------------------------------------------------------- *)
(* dpor: checkpointed exploration                                     *)
(* ---------------------------------------------------------------- *)

(* The traced store: the default 64 MiB cap and [Vm.approx_words]
   weight of [Dpor.default_cache], with every weight call timed and the
   heaviest entry kept for the byte-cap check. *)
let weight_s = ref 0.
let weight_calls = ref 0
let heaviest = ref 0

let timed_store () =
  Ckpt.create
    ~weight:(fun st ->
      let t0 = now () in
      let w = 8 * Vm.approx_words st in
      weight_s := !weight_s +. (now () -. t0);
      incr weight_calls;
      heaviest := max !heaviest w;
      w)
    ()

let setup_dpor ~rng:_ ~work_dir:_ () =
  let compile_s, cases = compile_all (Suite.dpor_cases ()) in
  let traced = ref false in
  let inputs =
    List.map
      (fun (key, prog) ->
        let op () =
          let store =
            if !traced then timed_store () else Dpor.default_cache ()
          in
          weight_s := 0.;
          weight_calls := 0;
          heaviest := 0;
          let call_s, r = timed (fun () -> Dpor.run ~ckpt:store prog) in
          fun () ->
            let over_cap, cp =
              if !traced then ckpt_probe ~heaviest:!heaviest store
              else ckpt_probe store
            in
            { (plain ~events:r.Dpor.novel_steps ~execs:r.executions ~rounds:1
                 (Verdict.dpor r))
              with
              over_cap;
              probe =
                cp
                @ [ ("call_s", call_s); ("weight_s", !weight_s);
                    ("weight_calls", float_of_int !weight_calls);
                    ("steps", float_of_int r.steps);
                    ("replayed", float_of_int r.replayed_steps) ] }
        in
        { key; op })
      cases
  in
  warm_up inputs;
  let layers ~deadline ops =
    let vm =
      replay ~deadline cases (fun (_, prog) ->
          snd (vm_alone ~reps:200 ~sched:(random_sched 1) prog))
    in
    let t = probe_sum ops in
    (* The VM inside [Dpor.run] is estimated, not timed: each case's DPOR
       steps at the VM's time per step on a random run of the program. *)
    let s_per_step key =
      let m = snd (List.find (fun ((k, _), _) -> k = key) vm) in
      ratio (List.assoc "vm_s" m) (List.assoc "steps" m)
    in
    let vm_s =
      sum
        (List.map (fun (key, _, p) -> List.assoc "steps" p *. s_per_step key) ops)
    in
    let rows =
      [ ("vm_interp", vm_s); ("dpor", t "call_s" -. t "weight_s" -. vm_s);
        ("ckpt_weight", t "weight_s") ]
    in
    ( rows,
      vm_metrics vm
      @ [ ("dpor.ns_per_step", 1e9 *. ratio (t "call_s") (t "steps"));
          ("dpor.steps_per_exec", ratio (t "steps") (t "execs"));
          ("dpor.replayed_frac", ratio (t "replayed") (t "steps"));
          ("ckpt.weight_ns", 1e9 *. ratio (t "weight_s") (t "weight_calls"));
          ("ckpt.weight_share", ratio (t "weight_s") (t "call_s")) ]
      @ ckpt_metrics ops )
  in
  { inputs; compile_s; trace_on = (fun () -> traced := true); layers;
    teardown = ignore }

(* ---------------------------------------------------------------- *)
(* infer: the yield-inference fixpoint through a 1-domain pool        *)
(* ---------------------------------------------------------------- *)

(* The traced pool's monitor: every task's duration, the domain that ran
   it, and the minor words it allocated there (OCaml counts allocation
   per domain, so worker allocation is invisible to the main domain). *)
module Tasks = struct
  let lock = Mutex.create ()
  let main = (Domain.self () :> int)
  let started = Atomic.make 0
  let finished = Atomic.make 0
  let steals = Atomic.make 0
  let main_s = ref 0.
  let worker_s = ref 0.
  let worker_words = ref 0.
  let durations = ref []

  let reset () =
    Mutex.protect lock (fun () ->
        main_s := 0.;
        worker_s := 0.;
        worker_words := 0.);
    Atomic.set steals 0

  (* A promise settles inside the task, so the awaiting domain can return
     before the task's wrapper has recorded it; wait for the stragglers. *)
  let quiesce () =
    while Atomic.get finished < Atomic.get started do
      Domain.cpu_relax ()
    done

  let monitor =
    { Pool.on_submit = (fun ~queued:_ -> ());
      wrap_task =
        (fun f () ->
          Atomic.incr started;
          let self = (Domain.self () :> int) in
          let w0 = Gc.minor_words () in
          let t0 = now () in
          Fun.protect f ~finally:(fun () ->
              let dt = now () -. t0 in
              let w = Gc.minor_words () -. w0 in
              Mutex.protect lock (fun () ->
                  durations := dt :: !durations;
                  if self = main then main_s := !main_s +. dt
                  else begin
                    worker_s := !worker_s +. dt;
                    worker_words := !worker_words +. w
                  end);
              Atomic.incr finished));
      on_steal = (fun ~thief:_ ~victim:_ ~latency_s:_ -> Atomic.incr steals);
      on_deque_depth = (fun ~slot:_ ~depth:_ -> ()) }
end

let setup_infer ~rng:_ ~work_dir:_ () =
  let compile_s, progs = compile_all (Suite.infer_programs ()) in
  let jobs = Suite.infer_jobs and max_steps = Suite.infer_max_steps in
  let pool = ref (Pool.create ~jobs ()) in
  let traced = ref false in
  let yields = Hashtbl.create 16 in
  let inputs =
    List.map
      (fun (key, prog) ->
        let op () =
          let ckpt = Infer.prefix_cache () in
          Tasks.reset ();
          let call_s, r =
            timed (fun () -> Infer.infer ~pool:!pool ~max_steps ~ckpt prog)
          in
          fun () ->
            Hashtbl.replace yields key r.Infer.yields;
            let over_cap, cp = ckpt_probe ckpt in
            let pool_probe =
              if !traced then begin
                Tasks.quiesce ();
                [ ("task_main_s", !Tasks.main_s);
                  ("task_worker_s", !Tasks.worker_s);
                  ("minor_words_workers", !Tasks.worker_words);
                  ("steals", float_of_int (Atomic.get Tasks.steals)) ]
              end
              else []
            in
            let portfolio = List.length Infer.default_portfolio in
            { (plain ~events:r.events_analyzed ~execs:(r.rounds * portfolio)
                 ~rounds:r.rounds (Verdict.infer r))
              with
              over_cap;
              probe =
                cp @ pool_probe
                @ [ ("call_s", call_s);
                    ("elided", float_of_int r.elided_events) ] }
        in
        { key; op })
      progs
  in
  warm_up inputs;
  let trace_on () =
    Pool.shutdown !pool;
    pool := Pool.create ~monitor:Tasks.monitor ~jobs ();
    traced := true
  in
  let layers ~deadline ops =
    (* Every default-portfolio schedule once more with the inferred
       yields: the VM alone, and how many runs hit the step budget. *)
    let runs =
      List.concat_map
        (fun (key, prog) ->
          List.map (fun sched -> (key, prog, sched)) Infer.default_portfolio)
        progs
    in
    let vm =
      replay ~deadline ~max_reps:1 runs (fun (key, prog, sched) ->
          let o, m =
            vm_alone ~yields:(Hashtbl.find yields key) ~max_steps ~sched prog
          in
          ( "step_limit",
            if o.Runner.termination = Runner.Step_limit then 1. else 0. )
          :: m)
    in
    let t = probe_sum ops in
    let fj = float_of_int jobs in
    let busy = t "task_main_s" +. t "task_worker_s" in
    (* The VM inside the tasks is estimated, not timed: each program's
       executed events (analysed minus elided) at the VM's time per event
       on its portfolio runs with the inferred yields. *)
    let s_per_event key =
      let runs = List.filter (fun ((k, _, _), _) -> k = key) vm in
      ratio (total "vm_s" runs) (total "vm_events" runs)
    in
    let vm_s =
      sum
        (List.map
           (fun (key, _, p) ->
             (List.assoc "events" p -. List.assoc "elided" p) *. s_per_event key)
           ops)
    in
    let rows =
      [ ("vm_interp", vm_s /. fj); ("pool_task", (busy -. vm_s) /. fj);
        ("main_serial", (t "call_s" -. t "task_main_s") /. fj);
        ("pool_idle", (((fj -. 1.) *. t "call_s") -. t "task_worker_s") /. fj) ]
    in
    let durs = !Tasks.durations in
    ( rows,
      vm_metrics vm
      @ [ ("infer.rounds", t "rounds");
          ("infer.elided_frac", ratio (t "elided") (t "events"));
          ("infer.step_limit_runs", total "step_limit" vm);
          ("pool.busy_frac", ratio busy (fj *. t "call_s"));
          ("pool.task_p50_ms", 1000. *. median durs);
          ("pool.task_max_ms", 1000. *. List.fold_left Float.max 0. durs);
          ("pool.steals", t "steals") ]
      @ ckpt_metrics ops )
  in
  { inputs; compile_s; trace_on; layers;
    teardown = (fun () -> Pool.shutdown !pool) }

(* ---------------------------------------------------------------- *)
(* The closed loop                                                    *)
(* ---------------------------------------------------------------- *)

type loop = {
  times : float list array;  (** Per input, successful op times. *)
  norm : float list array;  (** The same at nominal host speed. *)
  probes : (string * float) list list array;
  last : outcome option array;
  mutable cycle_p50 : float list;
      (** Per cycle, the median op time at nominal speed. *)
  mutable cycle_p90 : float list;
  mutable slowness : float list;  (** Per cycle, the host's slowness. *)
  mutable attempted : int;
  mutable failed : int;
  mutable cycles : int;
  mutable majors : int;
}

(* After every op, reference chunks run until they add up to this share
   of the cycle's op time at nominal speed (at least one), so the host's
   speed is sampled all through the cycle at a small fixed overhead. *)
let calib_share = 0.05

let run_loop ~rng ~expected ~seconds inputs =
  let arr = Array.of_list inputs in
  let n = Array.length arr in
  let l =
    { times = Array.make n [];
      norm = Array.make n [];
      probes = Array.make n [];
      last = Array.make n None;
      cycle_p50 = []; cycle_p90 = []; slowness = []; attempted = 0;
      failed = 0; cycles = 0; majors = 0 }
  in
  let fail key msg =
    l.failed <- l.failed + 1;
    Printf.eprintf "perfbench: op %s failed: %s\n%!" key msg
  in
  let order = Array.init n Fun.id in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let deadline = now () +. seconds in
  while l.cycles = 0 || now () < deadline do
    shuffle rng order;
    let cycle = ref [] in
    let op_s = ref 0. and ref_s = ref 0. and chunks = ref 0 in
    Array.iter
      (fun i ->
        let inp = arr.(i) in
        l.attempted <- l.attempted + 1;
        let w0 = Gc.minor_words () in
        let t0 = now () in
        (match inp.op () with
        | exception e -> fail inp.key (Printexc.to_string e)
        | verdict -> (
            let dt = now () -. t0 in
            op_s := !op_s +. dt;
            let words = Gc.minor_words () -. w0 in
            match verdict () with
            | exception e -> fail inp.key (Printexc.to_string e)
            | o ->
                if Hashtbl.find_opt expected inp.key <> Some o.digest then
                  fail inp.key ("verdict digest " ^ o.digest)
                else if o.over_cap then
                  fail inp.key "checkpoint store broke its byte cap"
                else begin
                  cycle := (i, dt) :: !cycle;
                  l.times.(i) <- dt :: l.times.(i);
                  l.probes.(i) <-
                    (("minor_words", words) :: o.probe) :: l.probes.(i);
                  l.last.(i) <- Some o
                end));
        let n =
          (calib_share *. !op_s -. !ref_s) /. Calib.nominal_chunk_s
          |> Float.ceil |> int_of_float |> max 1
        in
        ref_s := !ref_s +. Calib.sample n;
        chunks := !chunks + n)
      order;
    let slow = !ref_s /. float_of_int !chunks /. Calib.nominal_chunk_s in
    let norm =
      List.map
        (fun (i, dt) ->
          let x = dt /. slow in
          l.norm.(i) <- x :: l.norm.(i);
          x)
        !cycle
    in
    l.cycle_p50 <- quantile 0.5 norm :: l.cycle_p50;
    l.cycle_p90 <- quantile 0.9 norm :: l.cycle_p90;
    l.slowness <- slow :: l.slowness;
    l.cycles <- l.cycles + 1
  done;
  l.majors <- (Gc.quick_stat ()).Gc.major_collections - majors0;
  l

(* Per input: median op time and median probe readings, plus the
   deterministic counts of its last outcome. *)
let per_input inputs l =
  List.mapi
    (fun i inp ->
      match l.last.(i) with
      | None -> None
      | Some o ->
          let probes = l.probes.(i) in
          let med name = median (List.map (List.assoc name) probes) in
          let names = List.map fst (List.hd probes) in
          Some
            ( inp.key,
              median l.times.(i),
              List.map (fun n -> (n, med n)) names
              @ [ ("events", float_of_int o.events);
                  ("execs", float_of_int o.execs);
                  ("rounds", float_of_int o.rounds) ] ))
    inputs
  |> List.filter_map Fun.id

(* Throughputs are totals over the run's whole cycles, so the input mix
   is the same in every run. Latency percentiles are taken within each
   cycle and their median over cycles reported: the op times form one
   cluster per input, and a percentile of the pooled ops that falls
   between two clusters would be set by their extreme samples. All at
   nominal host speed. *)
let end_to_end l =
  let outcomes =
    List.concat
      (List.mapi
         (fun i ts ->
           match l.last.(i) with
           | Some o -> List.map (fun _ -> o) ts
           | None -> [])
         (Array.to_list l.norm))
  in
  let all = List.concat (Array.to_list l.norm) in
  let t = sum all in
  let c f = float_of_int (List.fold_left (fun acc o -> acc + f o) 0 outcomes) in
  [ ("kev_s", ratio (c (fun o -> o.events)) t /. 1000.);
    ("exec_s", ratio (c (fun o -> o.execs)) t);
    ("round_ms", 1000. *. ratio t (c (fun o -> o.rounds)));
    ("op_p50_ms", 1000. *. median l.cycle_p50);
    ("op_p90_ms", 1000. *. median l.cycle_p90) ]

(* ---------------------------------------------------------------- *)
(* Reporting                                                          *)
(* ---------------------------------------------------------------- *)

let end_to_end_units =
  [ ("setup_s", "s"); ("kev_s", "kev/s"); ("exec_s", "1/s"); ("round_ms", "ms");
    ("op_p50_ms", "ms"); ("op_p90_ms", "ms"); ("peak_rss_mb", "MiB") ]

let share_rows =
  [ "vm_interp"; "vm_emit"; "codec_decode"; "fasttrack"; "online"; "deadlock";
    "atomizer"; "dispatch"; "dpor"; "ckpt_weight"; "pool_task"; "main_serial";
    "pool_idle"; "unattributed" ]

let per_layer_units =
  [ ("lang.compile_ms", "ms"); ("vm.ns_per_step", "ns");
    ("vm.minor_words_per_step", "words"); ("vm.steps_per_event", "count");
    ("vm.emit_ns_per_event", "ns"); ("vm.share", "fraction");
    ("codec.encode_ns_per_event", "ns"); ("codec.decode_ns_per_event", "ns");
    ("codec.bytes_per_event", "bytes"); ("fasttrack.ns_per_event", "ns");
    ("online.ns_per_event", "ns"); ("deadlock.ns_per_event", "ns");
    ("atomizer.ns_per_event", "ns"); ("pipeline.ns_per_event", "ns");
    ("pipeline.minor_words_per_event", "words");
    ("pipeline.live_gap_ns_per_event", "ns"); ("dpor.ns_per_step", "ns");
    ("dpor.steps_per_exec", "count"); ("dpor.replayed_frac", "fraction");
    ("ckpt.hit_rate", "fraction"); ("ckpt.evictions", "count");
    ("ckpt.peak_mb", "MiB"); ("ckpt.weight_ns", "ns");
    ("ckpt.weight_share", "fraction"); ("infer.rounds", "count");
    ("infer.elided_frac", "fraction"); ("infer.step_limit_runs", "count");
    ("pool.busy_frac", "fraction"); ("pool.task_p50_ms", "ms");
    ("pool.task_max_ms", "ms"); ("pool.steals", "count");
    ("gc.minor_words_per_event", "words"); ("gc.major_collections", "count/op");
    ("attrib.op_ms", "ms") ]
  @ List.map (fun r -> ("share." ^ r, "fraction")) share_rows
  @ List.filter_map
      (fun (m, u) -> if m = "setup_s" || m = "peak_rss_mb" then None
        else Some ("overhead." ^ m, u))
      end_to_end_units

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~attempted ~failed ~units values =
  let metric (name, unit) =
    let v = try List.assoc name values with Not_found -> 0. in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map metric units))

(* ---------------------------------------------------------------- *)
(* Entry point                                                        *)
(* ---------------------------------------------------------------- *)

let setup_runs = 3

(* Reference chunks run before and after each set-up to take the host's
   speed, so [setup_s] too is at nominal speed. *)
let setup_calib_chunks = 200

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 in
  let expected_file = ref "perfbench/expected.tsv" and work_dir = ref "." in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "check|trace|dpor|infer");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
      ("--expected", Arg.Set_string expected_file, "expected verdict digests");
      ("--work-dir", Arg.Set_string work_dir, "scratch directory for traces") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  (match Sys.getenv_opt "COOP_SHARDS" with
   | None | Some "1" -> ()
   | Some v ->
       Printf.eprintf "perfbench: refusing to run with COOP_SHARDS=%s\n" v;
       exit 2);
  let setup =
    match !workload with
    | "check" -> setup_check
    | "trace" -> setup_trace
    | "dpor" -> setup_dpor
    | "infer" -> setup_infer
    | w ->
        Printf.eprintf "perfbench: unknown workload %S\n" w;
        exit 2
  in
  let expected = Verdict.load !expected_file in
  let rng = Random.State.make [| !seed |] in
  Printf.printf
    "{\"meta\": {\"workload\": %S, \"seed\": %d, \"trace\": %d, \"nproc\": %s, \
     \"ocaml\": %S, \"commit\": %S}}\n%!"
    !workload !seed !trace
    (Option.value (Sys.getenv_opt "PERFBENCH_NPROC") ~default:"0")
    Sys.ocaml_version
    (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown");
  (* Each set-up draws its pairs from a copy of the seeded state, so all
     of them (and the measured one, the last) build the same inputs. *)
  let setups =
    List.init setup_runs (fun i ->
        let rng = Random.State.copy rng in
        let before = Calib.slowness setup_calib_chunks in
        let t, p = timed (fun () -> setup ~rng ~work_dir:!work_dir ()) in
        let slow = (before +. Calib.slowness setup_calib_chunks) /. 2. in
        if i < setup_runs - 1 then p.teardown ();
        (t /. slow, p))
  in
  let prepared = snd (List.nth setups (setup_runs - 1)) in
  let setup_s = median (List.map fst setups) in
  let compile_ms =
    1000. *. median (List.map (fun (_, p) -> p.compile_s) setups)
  in
  let rng = Random.State.make [| !seed; 1 |] in
  let inputs = prepared.inputs in
  let finish ~attempted ~failed ~units values =
    prepared.teardown ();
    print_result ~attempted ~failed ~units values
  in
  if !trace = 0 then begin
    let l = run_loop ~rng ~expected ~seconds:!seconds inputs in
    (* What the wall clock read, before the host-speed correction. *)
    let raw_kev_s = List.assoc "kev_s" (end_to_end { l with norm = l.times }) in
    Printf.printf
      "{\"ops\": %d, \"cycles\": %d, \"host_slowness\": %s, \"raw_kev_s\": \
       %s}\n"
      l.attempted l.cycles
      (json_number (median l.slowness))
      (json_number raw_kev_s);
    finish ~attempted:l.attempted ~failed:l.failed ~units:end_to_end_units
      ((("setup_s", setup_s) :: end_to_end l)
       @ [ ("peak_rss_mb", peak_rss_mb ()) ])
  end
  else begin
    (* A quarter of the time untraced, a quarter traced (the difference is
       the tracing overhead), then the layer replays. *)
    let untraced = run_loop ~rng ~expected ~seconds:(!seconds /. 4.) inputs in
    prepared.trace_on ();
    let traced = run_loop ~rng ~expected ~seconds:(!seconds /. 4.) inputs in
    let ops = per_input inputs traced in
    let rows, layer_metrics =
      prepared.layers ~deadline:(now () +. (!seconds /. 2.)) ops
    in
    let op_s = sum (List.map (fun (_, m, _) -> m) ops) in
    let rows = rows @ [ ("unattributed", op_s -. sum (List.map snd rows)) ] in
    Printf.printf "attribution (ms per cycle of %d ops, %s):\n"
      (List.length ops) !workload;
    List.iter
      (fun (r, s) ->
        Printf.printf "  %-14s %10.3f  %6.2f%%\n" r (1000. *. s)
          (100. *. ratio s op_s))
      rows;
    Printf.printf "  %-14s %10.3f  100.00%%\n%!" "op wall" (1000. *. op_s);
    let u = end_to_end untraced and t = end_to_end traced in
    let c = probe_sum ops in
    let worker_words (_, _, p) =
      Option.value (List.assoc_opt "minor_words_workers" p) ~default:0.
    in
    let ops_n = float_of_int traced.attempted in
    finish
      ~attempted:(untraced.attempted + traced.attempted)
      ~failed:(untraced.failed + traced.failed) ~units:per_layer_units
      ([ ("lang.compile_ms", compile_ms); ("attrib.op_ms", 1000. *. op_s);
         ( "gc.minor_words_per_event",
           ratio
             (c "minor_words" +. sum (List.map worker_words ops))
             (c "events") );
         ("gc.major_collections", ratio (float_of_int traced.majors) ops_n) ]
      @ layer_metrics
      @ List.map (fun (r, s) -> ("share." ^ r, ratio s op_s)) rows
      @ List.map (fun (m, v) -> ("overhead." ^ m, List.assoc m t -. v)) u)
  end
