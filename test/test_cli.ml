(* End-to-end exit statuses of the coopcheck binary.

   The CLI promises three exits: 0 on a clean run, 1 when the check finds
   violations, and 2 on every malformed argument, option, environment
   value or input file — cmdliner's own command-line errors (unknown
   flags and commands) included, which it would otherwise report as 124.
   Each case runs the built binary as a child process on a tiny workload
   and checks the status; the trace round trip also compares output. *)

let coopcheck =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name
       (Filename.concat "bin" "coopcheck.exe"))

(* Run coopcheck with [args] (and [env] bindings on top of the inherited
   environment); return the exit status and everything it printed on
   stdout. stderr is discarded. *)
let run ?(env = []) args =
  let out = Filename.temp_file "coopcheck-cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let fd_out =
        Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o600
      in
      let fd_err = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let env =
        Array.append (Array.of_list env) (Unix.environment ())
      in
      let pid =
        Unix.create_process_env coopcheck
          (Array.of_list (coopcheck :: args))
          env Unix.stdin fd_out fd_err
      in
      Unix.close fd_out;
      Unix.close fd_err;
      let code =
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
      in
      (code, In_channel.with_open_bin out In_channel.input_all))

let small = [ "-t"; "2"; "-s"; "2" ]

let check_exit expected args ?env () =
  let code, _ = run ?env args in
  Alcotest.(check int) (String.concat " " args) expected code

let exit2 name args = Alcotest.test_case ("exit 2: " ^ name) `Quick (check_exit 2 args)

let test_exit_0_and_1 () =
  check_exit 0 ([ "check"; "series" ] @ small) ();
  check_exit 1 ([ "check"; "philo" ] @ small) ()

let test_malformed_env () =
  check_exit 2 ([ "infer"; "philo" ] @ small) ~env:[ "COOP_JOBS=abc" ] ()

(* A saved trace checked offline reports exactly what the live check
   reported, in both encodings. *)
let test_trace_round_trip () =
  let live_code, live = run ([ "check"; "philo" ] @ small) in
  List.iter
    (fun format ->
      let path = Filename.temp_file "coopcheck-cli" ".tr" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          check_exit 0
            ([ "trace"; "philo" ] @ small
            @ [ "--format"; format; "--save"; path ])
            ();
          let code, offline = run [ "check"; "--trace"; path ] in
          Alcotest.(check int) (format ^ ": exit") live_code code;
          Alcotest.(check string) (format ^ ": report") live offline))
    [ "text"; "binary" ]

let suite =
  [
    Alcotest.test_case "exit 0 when clean, 1 on violations" `Quick
      test_exit_0_and_1;
    exit2 "unknown flag" [ "check"; "philo"; "--no-such-flag" ];
    exit2 "removed --shards flag" [ "check"; "philo"; "--shards"; "2" ];
    exit2 "unknown command" [ "frobnicate" ];
    exit2 "unknown workload" [ "check"; "no-such-workload" ];
    exit2 "missing trace file" [ "check"; "--trace"; "no-such-file.tr" ];
    exit2 "malformed --jobs" [ "infer"; "philo"; "--jobs"; "0" ];
    exit2 "malformed --sched" [ "check"; "philo"; "--sched"; "rr:0" ];
    exit2 "malformed --format" [ "trace"; "philo"; "--format"; "xml" ];
    exit2 "malformed budget" [ "check"; "philo"; "--max-steps"; "0" ];
    Alcotest.test_case "exit 2: malformed COOP_JOBS" `Quick test_malformed_env;
    Alcotest.test_case "trace round trip: offline check = live check" `Quick
      test_trace_round_trip;
  ]
